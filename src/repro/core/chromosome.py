"""Chromosome encoding of the approximate MLP (Fig. 3 of the paper).

Every learnable parameter becomes one integer gene.  Genes are grouped
by weight (mask ``m``, sign ``s``, exponent ``k``), then by neuron
(its ``fan_in`` weights followed by the bias ``b``), then by layer —
mirroring the encoding illustrated in the paper's Fig. 3.  Optionally a
per-hidden-layer QReLU shift gene is appended at the end of the
chromosome (an extension enabled by default in the trainer: the GA can
then adapt the activation scaling to the pruning level it discovers).

The :class:`ChromosomeLayout` knows the lower/upper bound of every gene
and converts between flat gene vectors and :class:`ApproximateMLP`
models in both directions; :meth:`ChromosomeLayout.decode_population`
unpacks a whole ``(P, genes)`` population matrix into stacked
parameters for the GA's fitness kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.approx.config import ApproxConfig
from repro.approx.mlp import ApproximateMLP, default_shifts
from repro.approx.population import StackedMLP
from repro.approx.topology import Topology

__all__ = ["ChromosomeLayout"]

#: Number of genes per connection: mask, sign, exponent.
GENES_PER_CONNECTION = 3


@dataclass
class ChromosomeLayout:
    """Mapping between flat integer chromosomes and approximate MLPs.

    Parameters
    ----------
    topology:
        MLP layer sizes.
    config:
        Number formats (mask widths, exponent range, bias range).
    learn_shifts:
        When True, one extra gene per hidden layer encodes the QReLU
        right shift (bounded by the worst-case shift); when False the
        worst-case shifts are used verbatim.
    """

    topology: Topology
    config: ApproxConfig = field(default_factory=ApproxConfig)
    learn_shifts: bool = True

    def __post_init__(self) -> None:
        lower: List[np.ndarray] = []
        upper: List[np.ndarray] = []
        is_mask: List[np.ndarray] = []
        self._layer_slices: List[slice] = []
        offset = 0

        for layer_index, (fan_in, fan_out) in enumerate(self.topology.layer_shapes()):
            in_bits = self.config.layer_input_bits(layer_index)
            max_mask = (1 << in_bits) - 1
            genes_per_neuron = fan_in * GENES_PER_CONNECTION + 1
            layer_genes = fan_out * genes_per_neuron

            layer_lower = np.zeros(layer_genes, dtype=np.int64)
            layer_upper = np.zeros(layer_genes, dtype=np.int64)
            layer_is_mask = np.zeros(layer_genes, dtype=bool)
            for j in range(fan_out):
                base = j * genes_per_neuron
                for i in range(fan_in):
                    g = base + i * GENES_PER_CONNECTION
                    layer_lower[g] = 0
                    layer_upper[g] = max_mask
                    layer_is_mask[g] = True
                    layer_lower[g + 1] = 0
                    layer_upper[g + 1] = 1
                    layer_lower[g + 2] = 0
                    layer_upper[g + 2] = self.config.max_exponent
                bias_gene = base + fan_in * GENES_PER_CONNECTION
                layer_lower[bias_gene] = self.config.bias_min
                layer_upper[bias_gene] = self.config.bias_max
            lower.append(layer_lower)
            upper.append(layer_upper)
            is_mask.append(layer_is_mask)
            self._layer_slices.append(slice(offset, offset + layer_genes))
            offset += layer_genes

        self._max_shifts = default_shifts(self.topology, self.config)
        self._shift_slice = slice(offset, offset)
        if self.learn_shifts:
            num_hidden = self.topology.num_layers - 1
            shift_lower = np.zeros(num_hidden, dtype=np.int64)
            shift_upper = np.array(self._max_shifts[:num_hidden], dtype=np.int64)
            lower.append(shift_lower)
            upper.append(shift_upper)
            is_mask.append(np.zeros(num_hidden, dtype=bool))
            self._shift_slice = slice(offset, offset + num_hidden)
            offset += num_hidden

        self.lower_bounds = np.concatenate(lower) if lower else np.zeros(0, dtype=np.int64)
        self.upper_bounds = np.concatenate(upper) if upper else np.zeros(0, dtype=np.int64)
        self.mask_gene_flags = np.concatenate(is_mask) if is_mask else np.zeros(0, dtype=bool)
        self.num_genes = offset

    # ------------------------------------------------------------------
    # Gene bookkeeping
    # ------------------------------------------------------------------
    @property
    def mask_bits_per_gene(self) -> np.ndarray:
        """Bit-width of each mask gene (0 for non-mask genes)."""
        widths = np.zeros(self.num_genes, dtype=np.int64)
        for layer_index, sl in enumerate(self._layer_slices):
            in_bits = self.config.layer_input_bits(layer_index)
            flags = np.zeros(self.num_genes, dtype=bool)
            flags[sl] = self.mask_gene_flags[sl]
            widths[flags] = in_bits
        return widths

    def layer_slice(self, layer_index: int) -> slice:
        """Slice of the chromosome holding layer ``layer_index``'s genes."""
        return self._layer_slices[layer_index]

    @property
    def shift_slice(self) -> slice:
        """Slice holding the (optional) per-hidden-layer shift genes."""
        return self._shift_slice

    def validate(self, chromosome: np.ndarray) -> None:
        """Raise ``ValueError`` if a chromosome violates its gene bounds."""
        chromosome = np.asarray(chromosome, dtype=np.int64)
        if chromosome.shape != (self.num_genes,):
            raise ValueError(
                f"chromosome must have shape ({self.num_genes},), got {chromosome.shape}"
            )
        if np.any(chromosome < self.lower_bounds) or np.any(chromosome > self.upper_bounds):
            bad = np.flatnonzero(
                (chromosome < self.lower_bounds) | (chromosome > self.upper_bounds)
            )
            raise ValueError(f"genes {bad[:10].tolist()} out of bounds")

    def clip(self, chromosome: np.ndarray) -> np.ndarray:
        """Project a gene vector back into its bounds."""
        return np.clip(
            np.asarray(chromosome, dtype=np.int64), self.lower_bounds, self.upper_bounds
        )

    def random(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a uniformly random (in-bounds) chromosome."""
        return rng.integers(self.lower_bounds, self.upper_bounds + 1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Decode / encode
    # ------------------------------------------------------------------
    def decode(
        self, chromosome: np.ndarray, precompute_bit_planes: bool = True
    ) -> ApproximateMLP:
        """Build the :class:`ApproximateMLP` described by a chromosome.

        By default the decoded layers' bit-plane weight matrices are
        built eagerly, so later forward passes start from fully prepared
        layers (the planes are built exactly once per decode either way;
        see :attr:`ApproximateLayer.bit_planes`).
        """
        chromosome = np.asarray(chromosome, dtype=np.int64)
        # One vectorized shape+bounds check here replaces the per-layer
        # value validation (skipped below), so out-of-bounds gene
        # vectors still raise instead of decoding into corrupt models.
        self.validate(chromosome)
        masks: List[np.ndarray] = []
        signs: List[np.ndarray] = []
        exponents: List[np.ndarray] = []
        biases: List[np.ndarray] = []
        for layer_index, (fan_in, fan_out) in enumerate(self.topology.layer_shapes()):
            block = chromosome[self._layer_slices[layer_index]]
            per_neuron = block.reshape(fan_out, fan_in * GENES_PER_CONNECTION + 1)
            weight_genes = per_neuron[:, : fan_in * GENES_PER_CONNECTION].reshape(
                fan_out, fan_in, GENES_PER_CONNECTION
            )
            # Stored neuron-major; the model wants (fan_in, fan_out).
            masks.append(weight_genes[:, :, 0].T.copy())
            signs.append(np.where(weight_genes[:, :, 1].T == 0, -1, 1).astype(np.int64))
            exponents.append(weight_genes[:, :, 2].T.copy())
            biases.append(per_neuron[:, -1].copy())

        shifts = list(self._max_shifts)
        if self.learn_shifts:
            learned = chromosome[self._shift_slice]
            for idx, value in enumerate(learned.tolist()):
                shifts[idx] = int(value)

        # Genes are clipped to their bounds by every producer (random
        # init, operators, encode), so the decoded parameter ranges are
        # valid by construction.
        mlp = ApproximateMLP.from_parameters(
            topology=self.topology,
            config=self.config,
            masks=masks,
            signs=signs,
            exponents=exponents,
            biases=biases,
            shifts=shifts,
            validate=False,
        )
        if precompute_bit_planes:
            for layer in mlp.layers:
                layer.bit_planes
        return mlp

    def decode_population(self, population: np.ndarray) -> StackedMLP:
        """Decode an ``(P, genes)`` population matrix into stacked parameters.

        The genome-native counterpart of :meth:`decode`: the same gene
        layout is unpacked for all ``P`` rows at once by reshape and
        transpose, with no per-genome model.  One vectorized check keeps
        the :meth:`validate` contract (``ValueError`` on a wrong shape or
        an out-of-bounds gene).
        """
        population = np.asarray(population, dtype=np.int64)
        if population.ndim != 2 or population.shape[1] != self.num_genes:
            raise ValueError(
                f"population must have shape (P, {self.num_genes}), got {population.shape}"
            )
        bad = (population < self.lower_bounds) | (population > self.upper_bounds)
        if bad.any():
            genes = np.unique(np.nonzero(bad)[1])
            raise ValueError(f"genes {genes[:10].tolist()} out of bounds")
        size = population.shape[0]
        masks: List[np.ndarray] = []
        signs: List[np.ndarray] = []
        exponents: List[np.ndarray] = []
        biases: List[np.ndarray] = []
        for layer_index, (fan_in, fan_out) in enumerate(self.topology.layer_shapes()):
            block = population[:, self._layer_slices[layer_index]].reshape(
                size, fan_out, fan_in * GENES_PER_CONNECTION + 1
            )
            # Stored neuron-major; the stack wants (P, fan_in, fan_out).
            weight_genes = (
                block[:, :, : fan_in * GENES_PER_CONNECTION]
                .reshape(size, fan_out, fan_in, GENES_PER_CONNECTION)
                .transpose(3, 0, 2, 1)
            )
            masks.append(np.ascontiguousarray(weight_genes[0]))
            signs.append(np.where(weight_genes[1] == 0, -1, 1))
            exponents.append(np.ascontiguousarray(weight_genes[2]))
            biases.append(np.ascontiguousarray(block[:, :, -1]))

        num_hidden = self.topology.num_layers - 1
        if self.learn_shifts:
            shifts = population[:, self._shift_slice].copy()
        else:
            worst_case = np.array(self._max_shifts[:num_hidden], dtype=np.int64)
            shifts = np.tile(worst_case, (size, 1))
        return StackedMLP(
            config=self.config,
            masks=tuple(masks),
            signs=tuple(signs),
            exponents=tuple(exponents),
            biases=tuple(biases),
            shifts=shifts,
        )

    def encode(self, mlp: ApproximateMLP) -> np.ndarray:
        """Flatten an :class:`ApproximateMLP` into a gene vector."""
        if tuple(mlp.topology.sizes) != tuple(self.topology.sizes):
            raise ValueError(
                f"model topology {mlp.topology} does not match layout topology {self.topology}"
            )
        chromosome = np.zeros(self.num_genes, dtype=np.int64)
        for layer_index, layer in enumerate(mlp.layers):
            fan_in, fan_out = layer.fan_in, layer.fan_out
            weight_genes = np.stack(
                [
                    layer.masks.T,
                    (layer.signs.T > 0).astype(np.int64),
                    layer.exponents.T,
                ],
                axis=-1,
            )  # (fan_out, fan_in, 3)
            per_neuron = np.concatenate(
                [
                    weight_genes.reshape(fan_out, fan_in * GENES_PER_CONNECTION),
                    layer.biases[:, None],
                ],
                axis=1,
            )
            chromosome[self._layer_slices[layer_index]] = per_neuron.reshape(-1)
        if self.learn_shifts:
            shifts = mlp.shifts[: self.topology.num_layers - 1]
            capped = [
                min(int(s), int(self._max_shifts[idx])) for idx, s in enumerate(shifts)
            ]
            chromosome[self._shift_slice] = np.array(capped, dtype=np.int64)
        return self.clip(chromosome)

    def describe_gene(self, index: int) -> Tuple[str, int, int, int]:
        """Human-readable description of gene ``index``.

        Returns ``(kind, layer, neuron, input)`` where ``kind`` is one of
        ``"mask"``, ``"sign"``, ``"exponent"``, ``"bias"`` or ``"shift"``
        (``input`` is -1 for bias and shift genes).
        """
        if not 0 <= index < self.num_genes:
            raise IndexError(f"gene index {index} out of range")
        if self.learn_shifts and self._shift_slice.start <= index < self._shift_slice.stop:
            return ("shift", index - self._shift_slice.start, -1, -1)
        for layer_index, (fan_in, fan_out) in enumerate(self.topology.layer_shapes()):
            sl = self._layer_slices[layer_index]
            if not (sl.start <= index < sl.stop):
                continue
            local = index - sl.start
            genes_per_neuron = fan_in * GENES_PER_CONNECTION + 1
            neuron = local // genes_per_neuron
            within = local % genes_per_neuron
            if within == fan_in * GENES_PER_CONNECTION:
                return ("bias", layer_index, neuron, -1)
            input_index = within // GENES_PER_CONNECTION
            kind = ("mask", "sign", "exponent")[within % GENES_PER_CONNECTION]
            return (kind, layer_index, neuron, input_index)
        raise IndexError(f"gene index {index} not mapped")  # pragma: no cover
