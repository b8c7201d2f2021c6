"""Tests of the disk-backed evaluation cache (save/load + session wiring).

Covers the snapshot format (versioning, atomic writes, LRU-order
preservation), the corruption tolerance of :meth:`EvaluationCache.load`,
the process-stable split fingerprints, and the end-to-end promise: a
second identical experiment run against the same ``--cache-dir`` is
served almost entirely (> 90 %) from the fitness cache.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.cache import CACHE_FORMAT_VERSION, CachePool, EvaluationCache, SnapshotPolicy
from repro.experiments.config import ExperimentScale
from repro.experiments.session import ExperimentSession


class TestSnapshotRoundTrip:
    def test_save_and_load_restores_data_sections(self, tmp_path):
        cache = EvaluationCache()
        cache.fitness.put(("ctx", b"genome-1"), (0.25, 12.0))
        cache.fitness.put(("ctx", b"genome-2"), (0.5, 8.0))
        cache.accuracy.put((("k", b"g"), "split"), 0.875)
        cache.reports.put(("g", 1.0, 200.0, False), {"area": 3.5})
        path = tmp_path / "snap.pkl"
        assert cache.save(path) == 4

        restored = EvaluationCache()
        assert restored.load(path) == 4
        assert restored.fitness.get(("ctx", b"genome-1")) == (0.25, 12.0)
        assert restored.fitness.get(("ctx", b"genome-2")) == (0.5, 8.0)
        assert restored.accuracy.get((("k", b"g"), "split")) == 0.875
        assert restored.reports.get(("g", 1.0, 200.0, False)) == {"area": 3.5}

    def test_models_section_is_not_persisted(self, tmp_path):
        cache = EvaluationCache()
        cache.models.put(("layout", b"g"), object())
        cache.fitness.put(("ctx", b"g"), 1.0)
        path = tmp_path / "snap.pkl"
        assert cache.save(path) == 1
        restored = EvaluationCache()
        restored.load(path)
        assert len(restored.models) == 0
        assert len(restored.fitness) == 1

    def test_load_preserves_lru_order(self, tmp_path):
        cache = EvaluationCache()
        for index in range(5):
            cache.fitness.put(("ctx", index), index)
        cache.fitness.get(("ctx", 0))  # refresh: 0 becomes most recent
        path = tmp_path / "snap.pkl"
        cache.save(path)
        restored = EvaluationCache(max_fitness_entries=2)
        restored.load(path)
        # Entries are stored least-recent first, so a smaller cache
        # keeps the hottest tail: the refreshed 0 and the latest insert.
        assert restored.fitness.keys() == [("ctx", 4), ("ctx", 0)]

    def test_save_creates_parent_directories(self, tmp_path):
        cache = EvaluationCache()
        cache.fitness.put("k", "v")
        path = tmp_path / "nested" / "dir" / "snap.pkl"
        cache.save(path)
        assert path.exists()

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "snap.pkl"
        first = EvaluationCache()
        first.fitness.put("k", "old")
        first.save(path)
        second = EvaluationCache()
        second.fitness.put("k", "new")
        second.save(path)
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []  # no temp files left behind
        restored = EvaluationCache()
        restored.load(path)
        assert restored.fitness.get("k") == "new"


class TestSnapshotCompaction:
    """The cache-eviction policy for long-lived ``--cache-dir`` directories."""

    def _entry_count(self, path):
        probe = EvaluationCache()
        return probe.load(path)

    def test_bloated_snapshot_shrinks_to_section_bounds(self, tmp_path):
        """A snapshot accumulated by a large cache shrinks back to the
        section bounds of the cache that saves it next."""
        big = EvaluationCache()
        for index in range(500):
            big.fitness.put(("ctx", index), float(index))
        path = tmp_path / "snap.pkl"
        assert big.save(path) == 500

        small = EvaluationCache(max_fitness_entries=50)
        assert small.load(path) == 500  # read fully, bounded on put
        assert len(small.fitness) == 50
        assert small.save(path) == 50
        assert self._entry_count(path) == 50

    def test_policy_entry_bound_compacts_on_save(self, tmp_path):
        cache = EvaluationCache()
        for index in range(200):
            cache.fitness.put(("ctx", index), float(index))
        cache.fitness.get(("ctx", 0))  # refresh: 0 must survive
        path = tmp_path / "snap.pkl"
        policy = SnapshotPolicy(max_entries_per_section=10)
        assert cache.save(path, policy=policy) == 10
        restored = EvaluationCache()
        restored.load(path)
        # The most recently used entries survive, including the refresh.
        assert ("ctx", 0) in restored.fitness
        assert ("ctx", 199) in restored.fitness
        assert ("ctx", 5) not in restored.fitness

    def test_policy_age_bound_drops_stale_entries(self, tmp_path):
        cache = EvaluationCache()
        cache.fitness.put("fresh", 1.0)
        cache.fitness.put("stale", 2.0)
        now = cache.fitness.last_used("fresh")
        cache.fitness._stamps["stale"] = now - 1000.0
        path = tmp_path / "snap.pkl"
        policy = SnapshotPolicy(max_age_seconds=500.0)
        assert cache.save(path, policy=policy, now=now) == 1
        restored = EvaluationCache()
        restored.load(path)
        assert restored.fitness.get("fresh") == 1.0
        assert "stale" not in restored.fitness

    def test_stamps_survive_the_snapshot_round_trip(self, tmp_path):
        """Aging keeps working across restarts: the persisted last-used
        time is restored on load, not replaced by load time."""
        cache = EvaluationCache()
        cache.fitness.put("old", 1.0)
        old_stamp = cache.fitness.last_used("old") - 10_000.0
        cache.fitness._stamps["old"] = old_stamp
        path = tmp_path / "snap.pkl"
        cache.save(path)

        restored = EvaluationCache()
        restored.load(path)
        assert restored.fitness.last_used("old") == old_stamp
        # A second save with an age policy can therefore still drop it.
        assert restored.save(path, policy=SnapshotPolicy(max_age_seconds=500.0)) == 0

    def test_policy_byte_bound_shrinks_the_file(self, tmp_path):
        cache = EvaluationCache()
        for index in range(300):
            cache.fitness.put(("ctx", "x" * 50, index), float(index))
        path = tmp_path / "snap.pkl"
        cache.save(path)
        unbounded_size = path.stat().st_size
        bound = unbounded_size // 4
        written = cache.save(path, policy=SnapshotPolicy(max_total_bytes=bound))
        assert path.stat().st_size <= bound
        assert 0 < written < 300
        # The survivors are the most recently used tail.
        restored = EvaluationCache()
        restored.load(path)
        assert ("ctx", "x" * 50, 299) in restored.fitness

    def test_policy_rejects_non_positive_bounds(self):
        with pytest.raises(ValueError):
            SnapshotPolicy(max_age_seconds=0)
        with pytest.raises(ValueError):
            SnapshotPolicy(max_entries_per_section=-1)
        with pytest.raises(ValueError):
            SnapshotPolicy(max_total_bytes=0)

    def test_pipeline_scale_policy_reaches_save(self, tmp_path):
        """The scale's compaction knobs become the session's policy."""
        scale = ExperimentScale(
            name="tiny-policy",
            datasets=("breast_cancer",),
            cache_dir=str(tmp_path),
            cache_max_age_days=7.0,
            cache_max_snapshot_bytes=123_456,
        )
        policy = ExperimentSession(scale).snapshot_policy
        assert policy == SnapshotPolicy(
            max_age_seconds=7.0 * 86400.0, max_total_bytes=123_456
        )
        diskless = ExperimentSession(
            ExperimentScale(name="no-policy", cache_max_age_days=None)
        )
        assert diskless.snapshot_policy is None


class TestCorruptionTolerance:
    def test_missing_file_loads_nothing(self, tmp_path):
        cache = EvaluationCache()
        assert cache.load(tmp_path / "absent.pkl") == 0

    def test_garbage_bytes_load_nothing(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        path.write_bytes(b"\x00\x01not a pickle at all")
        assert EvaluationCache().load(path) == 0

    def test_truncated_snapshot_loads_nothing(self, tmp_path):
        cache = EvaluationCache()
        for index in range(100):
            cache.fitness.put(("ctx", index), float(index))
        path = tmp_path / "snap.pkl"
        cache.save(path)
        truncated = tmp_path / "truncated.pkl"
        truncated.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert EvaluationCache().load(truncated) == 0

    def test_foreign_pickle_loads_nothing(self, tmp_path):
        path = tmp_path / "foreign.pkl"
        path.write_bytes(pickle.dumps({"something": "else"}))
        assert EvaluationCache().load(path) == 0

    def test_version_mismatch_loads_nothing(self, tmp_path):
        cache = EvaluationCache()
        cache.fitness.put("k", "v")
        path = tmp_path / "snap.pkl"
        cache.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = CACHE_FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        assert EvaluationCache().load(path) == 0

    def test_malicious_pickle_is_refused_without_execution(self, tmp_path):
        """Snapshots deserialize through a restricted unpickler: a
        pickle carrying an os.system payload must be rejected before
        anything executes, not after."""
        import os

        marker = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (os.system, (f"touch {marker}",))

        path = tmp_path / "evil.pkl"
        path.write_bytes(pickle.dumps(Evil()))
        assert EvaluationCache().load(path) == 0
        assert not marker.exists()

    def test_malformed_section_is_skipped(self, tmp_path):
        cache = EvaluationCache()
        cache.fitness.put("k", "v")
        path = tmp_path / "snap.pkl"
        cache.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["sections"]["accuracy"] = 42  # not an entry list
        path.write_bytes(pickle.dumps(payload))
        restored = EvaluationCache()
        restored.load(path)
        assert restored.fitness.get("k") == "v"
        assert len(restored.accuracy) == 0


class TestStableKeys:
    def test_split_fingerprint_uses_no_process_salted_hash(self):
        """The fingerprint must survive a process restart: every part is
        a plain value (no builtin ``hash`` of bytes, which is salted by
        ``PYTHONHASHSEED``)."""
        inputs = np.arange(12, dtype=np.int64).reshape(4, 3)
        labels = np.array([0, 1, 0, 1])
        fingerprint = EvaluationCache.split_fingerprint(inputs, labels)
        assert fingerprint == EvaluationCache.split_fingerprint(inputs, labels)
        # Stable golden value: changes here break every on-disk cache,
        # so they must come with a CACHE_FORMAT_VERSION bump.
        flat = []

        def flatten(part):
            if isinstance(part, tuple):
                for item in part:
                    flatten(item)
            else:
                flat.append(part)

        flatten(fingerprint)
        assert all(isinstance(part, (int, str)) for part in flat)

    def test_split_fingerprint_distinguishes_dtype(self):
        same_bytes_a = np.array([1, 2, 3, 4], dtype=np.int32)
        same_bytes_b = same_bytes_a.view(np.float32)
        labels = np.zeros(4, dtype=np.int64)
        assert EvaluationCache.split_fingerprint(
            same_bytes_a, labels
        ) != EvaluationCache.split_fingerprint(same_bytes_b, labels)

    def test_fitness_keys_round_trip_through_pickle(self, small_topology, approx_config):
        """Snapshot keys embed the layout identity; pickling must not
        change their equality/hash (frozen dataclasses of plain ints)."""
        from repro.core.chromosome import ChromosomeLayout

        layout = ChromosomeLayout(small_topology, approx_config)
        key = (
            EvaluationCache.layout_key(layout),
            EvaluationCache.genome_key(np.zeros(layout.num_genes, dtype=np.int64)),
        )
        assert pickle.loads(pickle.dumps(key)) == key
        assert hash(pickle.loads(pickle.dumps(key))) == hash(key)


def _pool_writer(directory, owner, start, count):
    """Child-process body: flush ``count`` fitness entries into the pool."""
    from repro.core.cache import CachePool, EvaluationCache

    cache = EvaluationCache()
    pool = CachePool(directory, owner=owner)
    pool.refresh(cache)
    for index in range(start, start + count):
        cache.fitness.put(("ctx", index), float(index))
    pool.flush(cache)


class TestCachePool:
    def test_flush_writes_only_new_entries(self, tmp_path):
        cache = EvaluationCache()
        cache.fitness.put(("ctx", 1), 1.0)
        pool = CachePool(tmp_path, owner="writer")
        # A fresh handle seeds the pool with everything the cache holds.
        assert pool.flush(cache) == 1
        # Nothing new since → no segment written.
        assert pool.flush(cache) == 0
        cache.fitness.put(("ctx", 2), 2.0)
        assert pool.flush(cache) == 1
        assert len(pool.segment_paths()) == 2

    def test_refresh_merges_unseen_segments_once(self, tmp_path):
        writer_cache = EvaluationCache()
        writer_cache.fitness.put(("ctx", 1), 1.0)
        writer_cache.accuracy.put(("ctx", "split"), 0.5)
        CachePool(tmp_path, owner="writer").flush(writer_cache)

        reader_cache = EvaluationCache()
        reader = CachePool(tmp_path, owner="reader")
        assert reader.refresh(reader_cache) == 2
        assert reader_cache.fitness.get(("ctx", 1)) == 1.0
        assert reader_cache.accuracy.get(("ctx", "split")) == 0.5
        # Segments already merged are not loaded again.
        assert reader.refresh(reader_cache) == 0

    def test_refresh_baseline_prevents_echoing_merged_entries(self, tmp_path):
        """Entries merged from the pool must not be re-flushed as own work."""
        writer_cache = EvaluationCache()
        writer_cache.fitness.put(("ctx", 1), 1.0)
        CachePool(tmp_path, owner="writer").flush(writer_cache)

        reader_cache = EvaluationCache()
        reader = CachePool(tmp_path, owner="reader")
        reader.refresh(reader_cache)
        assert reader.flush(reader_cache) == 0
        reader_cache.fitness.put(("ctx", 2), 2.0)
        assert reader.flush(reader_cache) == 1

    def test_concurrent_writers_never_corrupt_or_drop_entries(self, tmp_path):
        """Two processes flushing into the same directory concurrently:
        a merge-on-load afterwards must see every entry of both."""
        import multiprocessing

        ctx = multiprocessing.get_context()
        workers = [
            ctx.Process(target=_pool_writer, args=(tmp_path, f"w{i}", i * 100, 25))
            for i in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0

        merged = EvaluationCache()
        loaded = CachePool(tmp_path, owner="reader").refresh(merged)
        assert loaded == 50
        for index in list(range(0, 25)) + list(range(100, 125)):
            assert merged.fitness.get(("ctx", index)) == float(index)

    def test_torn_segment_is_tolerated(self, tmp_path):
        cache = EvaluationCache()
        cache.fitness.put(("ctx", 1), 1.0)
        pool = CachePool(tmp_path, owner="writer")
        pool.flush(cache)
        (tmp_path / f"torn{CachePool.SEGMENT_SUFFIX}").write_bytes(b"\x80garbage")
        restored = EvaluationCache()
        assert CachePool(tmp_path, owner="reader").refresh(restored) == 1
        assert restored.fitness.get(("ctx", 1)) == 1.0

    def test_compact_folds_segments_into_one(self, tmp_path):
        cache = EvaluationCache()
        pool = CachePool(tmp_path, owner="writer")
        for index in range(3):
            cache.fitness.put(("ctx", index), float(index))
            pool.flush(cache)
        assert len(pool.segment_paths()) == 3
        assert pool.compact(cache) == 3
        assert len(pool.segment_paths()) == 1
        restored = EvaluationCache()
        assert CachePool(tmp_path, owner="reader").refresh(restored) == 3


TINY = ExperimentScale(
    name="tiny-cache",
    datasets=("breast_cancer",),
    max_samples=200,
    gradient_epochs=30,
    gradient_restarts=1,
    ga_population=16,
    ga_generations=6,
    max_front_designs=6,
    seed=0,
)


class TestPipelinePersistence:
    def test_second_run_hits_over_90_percent(self, tmp_path):
        """The acceptance criterion: an identical second run against the
        same cache directory reports > 90 % fitness-cache hit rate and
        reproduces the same designs."""
        scale = replace(TINY, cache_dir=str(tmp_path))
        first = ExperimentSession(scale)
        first_result = first.front("breast_cancer")
        first_summary = first.cache_summary()["breast_cancer"]
        assert first_summary["loaded"] == 0
        assert first_summary["saved"] > 0
        assert (tmp_path / "breast_cancer.cache.pkl").exists()

        second = ExperimentSession(scale)
        second_result = second.front("breast_cancer")
        second_summary = second.cache_summary()["breast_cancer"]
        assert second_summary["loaded"] == first_summary["saved"]
        assert second_summary["hit_rate"] > 0.9

        # Same seed + restored fitness values => identical evolution.
        first_designs = [
            (d.point.error, d.point.area, d.test_accuracy, d.report.area_cm2)
            for d in first_result.approximate.designs
        ]
        second_designs = [
            (d.point.error, d.point.area, d.test_accuracy, d.report.area_cm2)
            for d in second_result.approximate.designs
        ]
        assert first_designs == second_designs

        # The GA never recomputed a fitness: everything it asked for was
        # either restored from disk or memoized within the run.
        ga_stats = second_result.approximate.ga_result.history[-1]
        assert ga_stats.fitness_computations == 0

    def test_scale_cache_dir_is_used(self, tmp_path):
        scale = ExperimentScale(
            name="tiny-cache-scale",
            datasets=("breast_cancer",),
            max_samples=200,
            gradient_epochs=30,
            gradient_restarts=1,
            ga_population=16,
            ga_generations=4,
            max_front_designs=6,
            seed=0,
            cache_dir=str(tmp_path / "from-scale"),
        )
        ExperimentSession(scale).front("breast_cancer")
        assert (tmp_path / "from-scale" / "breast_cancer.cache.pkl").exists()

    def test_no_cache_dir_keeps_pipeline_diskless(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        session = ExperimentSession(TINY)
        assert session.scale.cache_dir is None
        session.front("breast_cancer")
        assert list(tmp_path.iterdir()) == []  # nothing written anywhere
        assert session.cache_summary()["breast_cancer"]["loaded"] == 0


class TestRunnerFlag:
    def test_runner_cache_dir_reports_hit_rate(self, tmp_path, capsys, monkeypatch):
        """``runner.py --cache-dir`` wires the directory through and
        prints the per-dataset ``[cache]`` summary."""
        from repro.experiments import runner as runner_module
        from repro.experiments.config import SCALES

        monkeypatch.setitem(SCALES, "tiny-cache", TINY)
        argv = [
            "--experiment",
            "table2",
            "--scale",
            "tiny-cache",
            "--cache-dir",
            str(tmp_path),
        ]
        assert runner_module.main(argv) == 0
        first_out = capsys.readouterr().out
        assert "[cache] breast_cancer" in first_out
        assert (tmp_path / "breast_cancer.cache.pkl").exists()

        assert runner_module.main(argv) == 0
        second_out = capsys.readouterr().out
        line = next(
            l for l in second_out.splitlines() if l.startswith("[cache] breast_cancer")
        )
        rate = float(line.split("(")[1].split("%")[0])
        assert rate > 90.0
