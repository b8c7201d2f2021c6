"""The hardware-approximated multilayer perceptron.

An :class:`ApproximateMLP` is a stack of :class:`ApproximateLayer`
objects whose parameters (masks, signs, power-of-two exponents, biases
and per-layer QReLU shifts) are exactly the learnable parameters
``theta`` of the paper.  Inference is integer-only and vectorized over
the dataset, classification is the argmax over the raw output-layer
accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.approx.config import ApproxConfig
from repro.approx.layer import ApproximateLayer, worst_case_shift
from repro.approx.population import StackedMLP, accuracy_stacked, forward_stacked
from repro.approx.topology import Topology
from repro.quant.qrelu import QReLU

__all__ = [
    "ApproximateMLP",
    "default_shifts",
    "forward_population",
    "accuracy_population",
]


def default_shifts(topology: Topology, config: ApproxConfig) -> List[int]:
    """Worst-case QReLU shifts for every hidden layer of ``topology``.

    The output layer has no activation and therefore no shift; the
    returned list still has one entry per weight layer (the last one is
    unused but kept for a uniform chromosome layout).
    """
    shifts: List[int] = []
    for layer_index, (fan_in, _) in enumerate(topology.layer_shapes()):
        in_bits = config.layer_input_bits(layer_index)
        shifts.append(
            worst_case_shift(
                fan_in=fan_in,
                input_bits=in_bits,
                max_exponent=config.max_exponent,
                out_bits=config.activation_bits,
                bias_max=config.bias_max,
            )
        )
    return shifts


@dataclass
class ApproximateMLP:
    """Integer-only approximate MLP (the ``theta`` of the paper)."""

    topology: Topology
    config: ApproxConfig
    layers: List[ApproximateLayer]

    def __post_init__(self) -> None:
        if len(self.layers) != self.topology.num_layers:
            raise ValueError(
                f"expected {self.topology.num_layers} layers, got {len(self.layers)}"
            )
        for index, (layer, (fan_in, fan_out)) in enumerate(
            zip(self.layers, self.topology.layer_shapes())
        ):
            if (layer.fan_in, layer.fan_out) != (fan_in, fan_out):
                raise ValueError(
                    f"layer {index} has shape ({layer.fan_in}, {layer.fan_out}), "
                    f"expected ({fan_in}, {fan_out})"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        topology: Topology,
        config: ApproxConfig | None = None,
        rng: np.random.Generator | None = None,
        mask_density: float = 0.5,
        shifts: Optional[Sequence[int]] = None,
    ) -> "ApproximateMLP":
        """Draw a random approximate MLP (used to seed GA populations).

        Parameters
        ----------
        mask_density:
            Expected fraction of retained bits in each mask; 1.0 yields a
            nearly non-approximate network (only pow2 quantization).
        shifts:
            Per-layer QReLU shifts; defaults to the worst-case shifts of
            :func:`default_shifts`.
        """
        config = config or ApproxConfig()
        # Seeded fallback: library defaults must be reproducible (RP03);
        # pass an explicit Generator to draw different networks.
        rng = rng or np.random.default_rng(0)
        shifts = list(shifts) if shifts is not None else default_shifts(topology, config)
        layers: List[ApproximateLayer] = []
        for layer_index, (fan_in, fan_out) in enumerate(topology.layer_shapes()):
            in_bits = config.layer_input_bits(layer_index)
            max_mask = (1 << in_bits) - 1
            bit_draws = rng.random(size=(fan_in, fan_out, in_bits)) < mask_density
            weights = 1 << np.arange(in_bits, dtype=np.int64)
            masks = (bit_draws * weights).sum(axis=-1).astype(np.int64)
            masks = np.clip(masks, 0, max_mask)
            signs = rng.choice(np.array([-1, 1], dtype=np.int64), size=(fan_in, fan_out))
            exponents = rng.integers(0, config.max_exponent + 1, size=(fan_in, fan_out))
            biases = rng.integers(config.bias_min, config.bias_max + 1, size=fan_out)
            is_output = layer_index == topology.num_layers - 1
            activation = None if is_output else QReLU(
                shift=int(shifts[layer_index]), out_bits=config.activation_bits
            )
            layers.append(
                ApproximateLayer(
                    masks=masks,
                    signs=signs,
                    exponents=exponents,
                    biases=biases,
                    input_bits=in_bits,
                    activation=activation,
                )
            )
        return cls(topology=topology, config=config, layers=layers)

    @classmethod
    def from_parameters(
        cls,
        topology: Topology,
        config: ApproxConfig,
        masks: Sequence[np.ndarray],
        signs: Sequence[np.ndarray],
        exponents: Sequence[np.ndarray],
        biases: Sequence[np.ndarray],
        shifts: Optional[Sequence[int]] = None,
        validate: bool = True,
    ) -> "ApproximateMLP":
        """Assemble an MLP from per-layer parameter arrays.

        ``validate=False`` skips the per-layer value-range checks; only
        for producers whose parameters are in-bounds by construction.
        """
        shifts = list(shifts) if shifts is not None else default_shifts(topology, config)
        layers: List[ApproximateLayer] = []
        for layer_index in range(topology.num_layers):
            is_output = layer_index == topology.num_layers - 1
            activation = None if is_output else QReLU(
                shift=int(shifts[layer_index]), out_bits=config.activation_bits
            )
            layers.append(
                ApproximateLayer(
                    masks=np.asarray(masks[layer_index]),
                    signs=np.asarray(signs[layer_index]),
                    exponents=np.asarray(exponents[layer_index]),
                    biases=np.asarray(biases[layer_index]),
                    input_bits=config.layer_input_bits(layer_index),
                    activation=activation,
                    validate=validate,
                )
            )
        return cls(topology=topology, config=config, layers=layers)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Raw output-layer accumulators (class scores).

        Parameters
        ----------
        x:
            Integer-quantized inputs of shape ``(n_samples, num_inputs)``.
        """
        activations = np.asarray(x, dtype=np.int64)
        if activations.ndim == 1:
            activations = activations[None, :]
        for layer in self.layers:
            activations = layer.forward(activations)
        return activations

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class indices (argmax over the output accumulators)."""
        return np.argmax(self.forward(x), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on integer-quantized inputs ``x``."""
        y = np.asarray(y)
        predictions = self.predict(x)
        return float(np.mean(predictions == y))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shifts(self) -> List[int]:
        """Per-layer QReLU shifts (0 for the activation-less output layer)."""
        return [
            layer.activation.shift if layer.activation is not None else 0
            for layer in self.layers
        ]

    @property
    def num_parameters(self) -> int:
        """Total number of weights plus biases (as counted in Table I)."""
        return self.topology.num_parameters

    @property
    def active_connections(self) -> int:
        """Connections with non-zero masks across all layers."""
        return sum(layer.active_connections for layer in self.layers)

    @property
    def retained_bits(self) -> int:
        """Total retained summand bits across all layers."""
        return sum(layer.retained_bits for layer in self.layers)

    def sparsity(self) -> float:
        """Fraction of fully pruned connections (zero masks)."""
        total = self.topology.num_weights
        return 1.0 - self.active_connections / total if total else 0.0

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Serialize to plain Python containers (JSON-friendly)."""
        return {
            "topology": list(self.topology.sizes),
            "config": {
                "input_bits": self.config.input_bits,
                "activation_bits": self.config.activation_bits,
                "weight_bits": self.config.weight_bits,
                "bias_bits": self.config.bias_bits,
            },
            "shifts": self.shifts,
            "layers": [
                {
                    "masks": layer.masks.tolist(),
                    "signs": layer.signs.tolist(),
                    "exponents": layer.exponents.tolist(),
                    "biases": layer.biases.tolist(),
                }
                for layer in self.layers
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ApproximateMLP":
        """Inverse of :meth:`to_dict`."""
        topology = Topology(payload["topology"])
        config = ApproxConfig(**payload["config"])
        layers = payload["layers"]
        return cls.from_parameters(
            topology=topology,
            config=config,
            masks=[np.asarray(layer["masks"]) for layer in layers],
            signs=[np.asarray(layer["signs"]) for layer in layers],
            exponents=[np.asarray(layer["exponents"]) for layer in layers],
            biases=[np.asarray(layer["biases"]) for layer in layers],
            shifts=payload.get("shifts"),
        )

    def copy(self) -> "ApproximateMLP":
        """Deep copy of the model (copies the weight arrays directly)."""
        layers = [
            ApproximateLayer(
                masks=layer.masks.copy(),
                signs=layer.signs.copy(),
                exponents=layer.exponents.copy(),
                biases=layer.biases.copy(),
                input_bits=layer.input_bits,
                activation=layer.activation,
            )
            for layer in self.layers
        ]
        return ApproximateMLP(topology=self.topology, config=self.config, layers=layers)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


def forward_population(models: Sequence[ApproximateMLP], x: np.ndarray) -> np.ndarray:
    """Forward a shared input batch through a whole population at once.

    All models must share one topology/config (the GA case).  The
    models' parameters are stacked into a :class:`StackedMLP` and run
    through :func:`forward_stacked`: one batched bit-plane matmul per
    layer position, bitwise identical to calling
    :meth:`ApproximateMLP.forward` per model.

    Returns
    -------
    Output accumulators of shape ``(P, n_samples, num_outputs)``.
    """
    return forward_stacked(StackedMLP.from_models(models), x).astype(np.int64)


def accuracy_population(
    models: Sequence[ApproximateMLP], x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Classification accuracy of every model of a population at once."""
    return accuracy_stacked(StackedMLP.from_models(models), x, y)
