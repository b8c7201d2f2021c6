"""Shared evaluation cache spanning the stages of the Fig. 2 pipeline.

The GA stage scores every chromosome it evaluates; the
subsequent front-synthesis stage used to rebuild all of that from
scratch (decode again, forward again, synthesize one model at a time),
and the reporting experiments (Table II, Fig. 4, Fig. 5) re-request the
same hardware reports.  :class:`EvaluationCache` is one bounded memo
shared by all of them, keyed by the chromosome's raw genome bytes:

``fitness``
    (evaluator context, genome) → fitness values (training accuracy +
    FA-count area), the GA's inner-loop memo.  The context part carries
    the training split and feasibility constraint, because the cached
    values embed both;
``models``
    genome → decoded :class:`~repro.approx.mlp.ApproximateMLP` (with its
    lazily built bit-plane caches), so the front synthesis never decodes
    a front member again.  Fitness is scored genome-natively, without a
    model per genome, so this section holds only the final archive's
    members: the trainer decodes-and-caches them once before returning
    (``GATrainer._populate_model_cache``);
``accuracy``
    (genome, dataset fingerprint) → accuracy on a held-out split;
``reports``
    (genome, voltage, clock period, registers flag) → hardware report,
    priced with the default EGFET library (callers with a custom
    library bypass this section — the key carries no library identity).

Every section is a true LRU (:class:`LRUCache`): a hit refreshes
recency, so hot genomes — elites that reappear generation after
generation — survive eviction pressure.  Sections also count hits and
misses, which the tests use to assert that a full pipeline run performs
zero redundant decode/forward/synthesis work.

The cache is **disk-backed**: :meth:`EvaluationCache.save` snapshots the
data sections (fitness, accuracy, reports — decoded models are
deliberately excluded: they are large and cheap to rebuild from cached
fitness work) into one versioned pickle, and
:meth:`EvaluationCache.load` restores them.  Keys are fully
self-namespacing — they embed the layout identity, the training split
digest and the feasibility constraint — so snapshots taken from
different datasets, scales or constraints can share a directory without
colliding.  Loading is corruption-tolerant: a missing, truncated,
garbage or version-mismatched file restores nothing instead of raising,
so a crashed writer can never take down the next run.

Long-lived cache directories are kept bounded by **snapshot
compaction**: every entry carries a last-used timestamp, and
:meth:`EvaluationCache.save` accepts a :class:`SnapshotPolicy` whose
age, per-section-entry and total-byte bounds are applied at write time —
entries a policy drops simply fall out of the snapshot (most recently
used survive first), so a directory accumulated over many runs shrinks
back to the configured bounds on the next save instead of growing with
the union of everything ever evaluated.

For **multi-process** runs (the island-model GA engine of
:mod:`repro.core.islands`), :class:`CachePool` promotes the snapshot
format into a shared content-addressed pool directory: every writer
appends its *new* entries as its own segment file (written atomically in
the ordinary snapshot format, so concurrent writers can never corrupt
each other), and every reader merges all unseen segments on load.  The
keys are process-stable (BLAKE2b split digests), so a fleet of workers
pools fitness/accuracy/report values instead of each recomputing them.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "LRUCache",
    "EvaluationCache",
    "SnapshotPolicy",
    "CachePool",
    "CACHE_FORMAT_VERSION",
    "stable_fingerprint",
]


def stable_fingerprint(*parts: Union[bytes, str], digest_size: int = 16) -> str:
    """Machine-stable BLAKE2b hex digest of a sequence of parts.

    The shared identity scheme of the persistence layers: the
    :class:`~repro.serving.store.DesignStore` keys its records with it,
    and it is stable across processes, machines and ``PYTHONHASHSEED``
    (unlike the built-in ``hash``).  Parts are length-prefixed before
    hashing so that the concatenation is unambiguous
    (``("ab", "c") != ("a", "bc")``).
    """
    digest = hashlib.blake2b(digest_size=digest_size)
    for part in parts:
        if isinstance(part, str):
            part = part.encode("utf-8")
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()

_LOGGER = logging.getLogger(__name__)

_MISSING = object()

#: Magic marker + schema version of the on-disk snapshot format.  Bump
#: the version whenever key structure or cached value types change; old
#: snapshots are then ignored (never mis-read) by :meth:`EvaluationCache.load`.
#: Version 2 stores each entry as a ``(key, value, last_used)`` triple
#: so snapshot compaction can age entries across process restarts.
#: Version 3 invalidates version-2 snapshots because pickled
#: ``DesignVerification`` reports gained the EDA-oracle fields.
_SNAPSHOT_MAGIC = "repro-evaluation-cache"
CACHE_FORMAT_VERSION = 3


@dataclass(frozen=True)
class SnapshotPolicy:
    """Compaction bounds applied by :meth:`EvaluationCache.save`.

    All bounds are optional; ``None`` disables that bound.  Bounds are
    applied in order: first entries whose last use is older than
    ``max_age_seconds`` are dropped, then each section is truncated to
    its ``max_entries_per_section`` most recently used entries, and
    finally — if the pickled snapshot still exceeds
    ``max_total_bytes`` — the least recently used half of every section
    is dropped repeatedly until the snapshot fits (or is empty).
    """

    max_age_seconds: Optional[float] = None
    max_entries_per_section: Optional[int] = None
    max_total_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_age_seconds", "max_entries_per_section", "max_total_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

#: The only non-builtin globals a snapshot may reference.  Snapshot
#: payloads are plain data (tuples, bytes, numbers, dicts) plus these
#: frozen dataclasses; refusing everything else keeps a cache directory
#: from being a code-execution vector (pickle runs ``__reduce__``
#: payloads during load, *before* any magic/version check could reject
#: them).
_SAFE_SNAPSHOT_GLOBALS = {
    ("repro.approx.config", "ApproxConfig"),
    ("repro.core.fitness", "FitnessValues"),
    ("repro.hardware.synthesis", "HardwareReport"),
    # The RTL-verification harness memoizes per-design results in the
    # reports section; they must survive the snapshot round trip.
    ("repro.evaluation.verification", "DesignVerification"),
}


class _SnapshotUnpickler(pickle.Unpickler):
    """Unpickler restricted to the snapshot allowlist."""

    def find_class(self, module: str, name: str):
        if (module, name) in _SAFE_SNAPSHOT_GLOBALS:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"cache snapshot references disallowed global {module}.{name}"
        )


class LRUCache:
    """A bounded mapping with least-recently-*used* eviction.

    Unlike a plain insertion-ordered dict bound, a :meth:`get` hit moves
    the entry to the back of the eviction queue, so entries are evicted
    in true LRU order.  ``hits`` / ``misses`` count lookups.  Each entry
    also carries a last-used wall-clock timestamp, which snapshot
    compaction (:class:`SnapshotPolicy`) uses to age entries out of
    long-lived cache directories.
    """

    def __init__(self, max_size: int) -> None:
        if max_size <= 0:
            raise ValueError(f"max_size must be positive, got {max_size}")
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._stamps: Dict[Hashable, float] = {}

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency on a hit."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self._stamps[key] = time.time()  # lint: allow(RP03) -- last-used stamps are persisted and aged across runs/processes; only the wall clock is comparable there
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting the least recently used."""
        data = self._data
        data[key] = value
        data.move_to_end(key)
        self._stamps[key] = time.time()  # lint: allow(RP03) -- last-used stamps are persisted and aged across runs/processes; only the wall clock is comparable there
        while len(data) > self.max_size:
            evicted, _ = data.popitem(last=False)
            self._stamps.pop(evicted, None)

    def last_used(self, key: Hashable) -> Optional[float]:
        """Wall-clock time of the entry's last :meth:`put`/:meth:`get` hit."""
        return self._stamps.get(key)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> List[Hashable]:
        """Keys in eviction order (least recently used first)."""
        return list(self._data.keys())

    def clear(self) -> None:
        """Drop every entry (counters are retained)."""
        self._data.clear()
        self._stamps.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class EvaluationCache:
    """One memo shared by the GA, front-synthesis and reporting stages."""

    def __init__(
        self,
        max_fitness_entries: int = 250_000,
        max_model_entries: int = 16_384,
        max_accuracy_entries: int = 250_000,
        max_report_entries: int = 65_536,
    ) -> None:
        self.fitness = LRUCache(max_fitness_entries)
        self.models = LRUCache(max_model_entries)
        self.accuracy = LRUCache(max_accuracy_entries)
        self.reports = LRUCache(max_report_entries)

    # ------------------------------------------------------------------
    @staticmethod
    def genome_key(chromosome: np.ndarray) -> bytes:
        """Canonical cache key of a chromosome (its raw genome bytes)."""
        return np.ascontiguousarray(chromosome, dtype=np.int64).tobytes()

    @staticmethod
    def layout_key(layout: Any) -> Hashable:
        """Decode-semantics identity of a chromosome layout.

        Two layouts with the same topology, number formats and shift
        handling decode any given genome identically; layouts differing
        only in gene *bounds* (the ablation experiments restrict those)
        share a key on purpose.  Namespacing model/fitness entries with
        this prevents collisions between layouts whose chromosomes
        merely have equal byte length.
        """
        return (
            tuple(layout.topology.sizes),
            layout.config,
            bool(getattr(layout, "learn_shifts", True)),
        )

    @staticmethod
    def split_fingerprint(inputs: np.ndarray, labels: np.ndarray) -> Hashable:
        """A compact identity for a dataset split, for accuracy keys.

        The content digest is a keyless BLAKE2b rather than Python's
        built-in ``hash``: the built-in hash of ``bytes`` is salted per
        process (``PYTHONHASHSEED``), which would make every persisted
        key miss after a restart.  The digest is stable across processes
        and machines, so disk-backed caches keep hitting.
        """
        inputs = np.asarray(inputs)
        labels = np.asarray(labels)
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.ascontiguousarray(inputs).tobytes())
        digest.update(np.ascontiguousarray(labels).tobytes())
        return (
            inputs.shape,
            labels.shape,
            str(inputs.dtype),
            str(labels.dtype),
            digest.hexdigest(),
        )

    @staticmethod
    def report_key(
        genome: Hashable,
        voltage: float,
        clock_period_ms: float,
        include_registers: bool = False,
    ) -> Hashable:
        """Cache key of one hardware report (a design at an operating point).

        ``genome`` is typically the layout-scoped ``(layout_key, genome
        bytes)`` pair used throughout :func:`evaluate_front`.
        """
        return (genome, float(voltage), float(clock_period_ms), bool(include_registers))

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Hit/miss counters of every section (for logs and tests)."""
        return {
            name: {
                "entries": len(section),
                "hits": section.hits,
                "misses": section.misses,
            }
            for name, section in (
                ("fitness", self.fitness),
                ("models", self.models),
                ("accuracy", self.accuracy),
                ("reports", self.reports),
            )
        }

    def clear(self) -> None:
        """Drop every entry of every section."""
        self.fitness.clear()
        self.models.clear()
        self.accuracy.clear()
        self.reports.clear()

    # ------------------------------------------------------------------
    # Disk persistence
    # ------------------------------------------------------------------
    #: Sections included in a disk snapshot.  ``models`` is excluded on
    #: purpose: decoded MLPs (with bit-plane caches) are orders of
    #: magnitude larger than fitness tuples and are rebuilt lazily from
    #: the genomes anyway.
    _PERSISTED_SECTIONS = ("fitness", "accuracy", "reports")

    def save(
        self,
        path: Union[str, Path],
        policy: Optional[SnapshotPolicy] = None,
        *,
        now: Optional[float] = None,
    ) -> int:
        """Snapshot the data sections to ``path``; returns entries written.

        The write is atomic (temp file + rename), so a crash mid-save
        leaves any previous snapshot intact.  Entries are stored in LRU
        order (least recently used first) together with their last-used
        timestamps, so a later :meth:`load` into a smaller cache keeps
        the hottest entries and compaction can age entries across runs.

        ``policy`` bounds the snapshot (see :class:`SnapshotPolicy`);
        ``now`` overrides the reference time of the age bound (tests).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if now is None:
            now = time.time()  # lint: allow(RP03) -- compaction ages entries against their persisted wall-clock stamps
        sections: Dict[str, List[Tuple[Hashable, Any, float]]] = {}
        for name in self._PERSISTED_SECTIONS:
            section = getattr(self, name)
            entries = [
                (key, value, section._stamps.get(key, now))
                for key, value in section._data.items()
            ]
            if policy is not None and policy.max_age_seconds is not None:
                entries = [
                    entry for entry in entries if now - entry[2] <= policy.max_age_seconds
                ]
            if (
                policy is not None
                and policy.max_entries_per_section is not None
                and len(entries) > policy.max_entries_per_section
            ):
                # LRU order: the most recently used entries are at the tail.
                entries = entries[-policy.max_entries_per_section :]
            sections[name] = entries

        def _serialize() -> Tuple[bytes, int]:
            payload = {
                "magic": _SNAPSHOT_MAGIC,
                "version": CACHE_FORMAT_VERSION,
                "sections": sections,
            }
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            return blob, sum(len(entries) for entries in sections.values())

        blob, total = _serialize()
        if policy is not None and policy.max_total_bytes is not None:
            while len(blob) > policy.max_total_bytes and total > 0:
                # Drop the least recently used half of every section and
                # re-measure; converges in O(log entries) pickles.
                sections = {
                    name: entries[len(entries) // 2 + len(entries) % 2 :]
                    for name, entries in sections.items()
                }
                blob, total = _serialize()
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return total

    def load(self, path: Union[str, Path]) -> int:
        """Restore a snapshot written by :meth:`save`; returns entries loaded.

        Loading is corruption-tolerant and never raises on bad input: a
        missing file, a truncated or garbage pickle, a foreign payload
        or a format-version mismatch all restore zero entries (logged at
        WARNING level, except the common missing-file case).
        Deserialization is restricted to the snapshot allowlist
        (:data:`_SAFE_SNAPSHOT_GLOBALS`), so a malicious file in the
        cache directory cannot execute code during load.  Restored
        entries go through the normal :meth:`LRUCache.put` path, so the
        section bounds of *this* cache apply.
        """
        path = Path(path)
        try:
            with open(path, "rb") as handle:
                payload = _SnapshotUnpickler(handle).load()
        except FileNotFoundError:
            return 0
        except Exception as error:  # noqa: BLE001 - tolerate any corruption
            _LOGGER.warning("ignoring unreadable cache snapshot %s: %s", path, error)
            return 0
        if not isinstance(payload, dict) or payload.get("magic") != _SNAPSHOT_MAGIC:
            _LOGGER.warning("ignoring foreign cache snapshot %s", path)
            return 0
        if payload.get("version") != CACHE_FORMAT_VERSION:
            _LOGGER.warning(
                "ignoring cache snapshot %s with format version %r (expected %d)",
                path,
                payload.get("version"),
                CACHE_FORMAT_VERSION,
            )
            return 0
        total = 0
        sections = payload.get("sections", {})
        for name in self._PERSISTED_SECTIONS:
            entries = sections.get(name, [])
            section = getattr(self, name)
            try:
                for key, value, stamp in entries:
                    section.put(key, value)
                    # Preserve the persisted last-used time so the age
                    # bound keeps working across process restarts (put
                    # freshly stamped the entry with "now").
                    if key in section._data:
                        section._stamps[key] = float(stamp)
                    total += 1
            except (TypeError, ValueError) as error:
                _LOGGER.warning(
                    "ignoring malformed %r section of cache snapshot %s: %s",
                    name,
                    path,
                    error,
                )
        return total


class CachePool:
    """A shared, multi-writer pool of evaluation-cache snapshot segments.

    One directory is shared by any number of concurrent processes (the
    islands of :class:`~repro.core.islands.IslandGATrainer`, or several
    independent runs pointed at the same ``cache_dir``).  The protocol
    is deliberately primitive so that no cross-process locking is ever
    needed:

    * **append-only per-writer segments** — :meth:`flush` writes only
      the entries added since the last :meth:`refresh`/:meth:`flush`
      into a *new* file named after this writer
      (``<owner>-<counter>.seg.pkl``), using the ordinary snapshot
      format and :meth:`EvaluationCache.save`'s atomic temp-file +
      rename.  Writers never touch each other's files, so concurrent
      flushes cannot corrupt or truncate anything;
    * **merge-on-load** — :meth:`refresh` restores every segment it has
      not seen yet into the local cache (duplicate keys simply refresh
      recency).  A torn or foreign file restores nothing, inheriting
      :meth:`EvaluationCache.load`'s corruption tolerance.

    Keys are process-stable (BLAKE2b split digests), so segments written
    by one machine's workers hit on another's.  :meth:`compact` folds
    every segment into one file — call it only from a coordinator that
    knows no other writer is active (other writers' *future* segments
    are unaffected either way; compaction can only lose entries written
    concurrently with it, and those writers will simply flush again).
    """

    SEGMENT_SUFFIX = ".seg.pkl"

    def __init__(self, directory: Union[str, Path], owner: Optional[str] = None) -> None:
        self.directory = Path(directory)
        if owner is None:
            # Unique per writer: pid alone is not enough (pids are
            # recycled, and one process may own several pools).
            owner = f"w{os.getpid():x}-{os.urandom(4).hex()}"
        self.owner = str(owner)
        self._counter = 0
        self._seen: set = set()
        self._baseline: Dict[str, set] = {
            name: set() for name in EvaluationCache._PERSISTED_SECTIONS
        }

    # ------------------------------------------------------------------
    def segment_paths(self) -> List[Path]:
        """Every segment file currently in the pool (sorted by name)."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(f"*{self.SEGMENT_SUFFIX}"))

    def refresh(self, cache: EvaluationCache) -> int:
        """Merge every unseen segment into ``cache``; returns entries loaded.

        After a refresh, everything currently in ``cache`` counts as
        already pooled: a subsequent :meth:`flush` writes only entries
        added *after* this call, keeping segments append-only deltas.
        """
        loaded = 0
        for path in self.segment_paths():
            if path.name in self._seen:
                continue
            loaded += cache.load(path)
            self._seen.add(path.name)
        for name in EvaluationCache._PERSISTED_SECTIONS:
            self._baseline[name].update(getattr(cache, name)._data.keys())
        return loaded

    def flush(self, cache: EvaluationCache) -> int:
        """Write entries added since the last refresh/flush as one new segment.

        Returns the number of entries written (0 writes no file).  On a
        fresh pool handle (no prior :meth:`refresh`), this seeds the
        pool with *everything* the cache currently holds — which is how
        a coordinator publishes its snapshot-loaded entries to workers.
        """
        delta = EvaluationCache()
        total = 0
        new_keys: Dict[str, List[Hashable]] = {}
        for name in EvaluationCache._PERSISTED_SECTIONS:
            section = getattr(cache, name)
            baseline = self._baseline[name]
            fresh = [key for key in section._data if key not in baseline]
            new_keys[name] = fresh
            target = getattr(delta, name)
            for key in fresh:
                target.put(key, section._data[key])
                stamp = section._stamps.get(key)
                if stamp is not None:
                    target._stamps[key] = stamp
            total += len(fresh)
        if total == 0:
            return 0
        path = self.directory / f"{self.owner}-{self._counter:06d}{self.SEGMENT_SUFFIX}"
        self._counter += 1
        delta.save(path)
        self._seen.add(path.name)
        for name, fresh in new_keys.items():
            self._baseline[name].update(fresh)
        return total

    def compact(self, cache: EvaluationCache) -> int:
        """Fold every segment (merged through ``cache``) into one file.

        Refreshes ``cache`` first, writes its full contents as a single
        new segment, then removes the superseded files (best-effort —
        a file another process deletes concurrently is simply skipped).
        Returns the number of entries in the compacted segment.
        """
        self.refresh(cache)
        superseded = [path.name for path in self.segment_paths()]
        merged = EvaluationCache()
        total = 0
        for name in EvaluationCache._PERSISTED_SECTIONS:
            section = getattr(cache, name)
            target = getattr(merged, name)
            for key, value in section._data.items():
                target.put(key, value)
                stamp = section._stamps.get(key)
                if stamp is not None:
                    target._stamps[key] = stamp
                total += 1
        path = (
            self.directory
            / f"{self.owner}-compact-{self._counter:06d}{self.SEGMENT_SUFFIX}"
        )
        self._counter += 1
        merged.save(path)
        self._seen.add(path.name)
        for name in superseded:
            if name == path.name:
                continue
            try:
                os.unlink(self.directory / name)
            except OSError:
                pass
        return total
