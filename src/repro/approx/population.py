"""Stacked inference and FA counting over a whole population of MLPs.

The GA scores every chromosome of a generation on the same training
batch.  Rather than building one :class:`~repro.approx.mlp.ApproximateMLP`
per chromosome, the population is held as a :class:`StackedMLP`: per
layer position, the ``(P, fan_in, fan_out)`` masks, signs and exponents,
the ``(P, fan_out)`` biases and the ``(P,)`` QReLU shifts of all ``P``
candidates.  One batched bit-plane matmul per layer then forwards the
whole stack, and the same tensors feed the stacked Full-Adder counter.

Every layer runs in one exact dtype, picked from the stack's accumulator
bounds with the rules of :attr:`ApproximateLayer.bit_planes`
(:func:`~repro.approx.layer.exact_matmul_dtype`), and stays in it end to
end: bias add, QReLU, bit expansion and the final ``argmax``.  The
results are therefore bitwise identical to the per-model
:meth:`ApproximateMLP.forward` and
:func:`~repro.hardware.fast_area.fast_mlp_fa_count`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.approx.config import ApproxConfig
from repro.approx.layer import exact_matmul_dtype, expand_activation_bits
from repro.hardware.fast_area import _population_layer_fa_counts

__all__ = [
    "StackedMLP",
    "forward_stacked",
    "accuracy_stacked",
    "fa_count_stacked",
    "score_stacked",
]


@dataclass(frozen=True)
class StackedMLP:
    """Parameters of ``P`` same-topology approximate MLPs, stacked per layer.

    Attributes
    ----------
    masks, signs, exponents:
        One ``(P, fan_in, fan_out)`` int64 array per layer; signs are
        ``-1``/``+1``.
    biases:
        One ``(P, fan_out)`` int64 array per layer.
    shifts:
        ``(P, num_layers - 1)`` QReLU shifts of the hidden layers.
    """

    config: ApproxConfig
    masks: Tuple[np.ndarray, ...]
    signs: Tuple[np.ndarray, ...]
    exponents: Tuple[np.ndarray, ...]
    biases: Tuple[np.ndarray, ...]
    shifts: np.ndarray

    @property
    def size(self) -> int:
        """Number of stacked candidates ``P``."""
        return int(self.shifts.shape[0])

    @classmethod
    def from_models(cls, models: Sequence) -> "StackedMLP":
        """Stack the parameters of a homogeneous sequence of MLPs."""
        if not models:
            raise ValueError("a population needs at least one model")
        sizes = models[0].topology.sizes
        config = models[0].config
        if any(m.topology.sizes != sizes or m.config != config for m in models):
            raise ValueError("a stacked population must share one topology and config")
        num_layers = len(models[0].layers)

        def stack(name: str) -> Tuple[np.ndarray, ...]:
            return tuple(
                np.stack([getattr(m.layers[index], name) for m in models])
                for index in range(num_layers)
            )

        shifts = np.array(
            [m.shifts[: num_layers - 1] for m in models], dtype=np.int64
        ).reshape(len(models), num_layers - 1)
        return cls(
            config=config,
            masks=stack("masks"),
            signs=stack("signs"),
            exponents=stack("exponents"),
            biases=stack("biases"),
            shifts=shifts,
        )


def _stacked_planes(
    masks: np.ndarray,
    signs: np.ndarray,
    exponents: np.ndarray,
    biases: np.ndarray,
    width: int,
) -> np.ndarray:
    """Bit-plane matrices ``(P, fan_in * width, fan_out)`` in the layer's exact dtype."""
    magnitudes = masks << exponents
    positive = np.add.reduce(np.where(signs > 0, magnitudes, 0), axis=1)
    negative = np.add.reduce(np.where(signs < 0, magnitudes, 0), axis=1)
    bound = max(
        int((negative - np.minimum(biases, 0)).max(initial=0)),
        int((positive + np.maximum(biases, 0)).max(initial=0)),
    )
    population, fan_in, fan_out = masks.shape
    bits = np.arange(width, dtype=np.int64)[None, None, :, None]
    retained = (masks[:, :, None, :] >> bits) & 1
    planes = (retained * signs[:, :, None, :]) << (bits + exponents[:, :, None, :])
    return planes.reshape(population, fan_in * width, fan_out).astype(
        exact_matmul_dtype(bound), copy=False
    )


def forward_stacked(stack: StackedMLP, x: np.ndarray) -> np.ndarray:
    """Output scores ``(P, n_samples, num_outputs)`` of every stacked MLP.

    The scores are exact integers held in the output layer's matmul
    dtype (float32, float64 or int64).
    """
    config = stack.config
    activations = np.asarray(x, dtype=np.int64)
    if activations.ndim == 1:
        activations = activations[None, :]
    for index in range(len(stack.masks)):
        if index:
            # QReLU of the previous layer, in its dtype.
            shifts = stack.shifts[:, index - 1]
            if acc.dtype == np.int64:
                shifted = acc >> shifts[:, None, None]
            else:
                # Scaling by a power of two is exact, so the floor equals
                # the arithmetic right shift of the integer accumulator.
                scale = np.exp2(-shifts).astype(acc.dtype)
                shifted = np.floor(acc * scale[:, None, None])
            activations = np.clip(shifted, 0, config.max_activation_value)
        input_bits = config.layer_input_bits(index)
        width = 8 if input_bits <= 8 else input_bits
        planes = _stacked_planes(
            stack.masks[index],
            stack.signs[index],
            stack.exponents[index],
            stack.biases[index],
            width,
        )
        if width != 8:
            activations = activations.astype(np.int64, copy=False)
        x_bits = expand_activation_bits(activations, width)
        acc = np.matmul(x_bits.astype(planes.dtype), planes)  # (P, n, fan_out)
        acc += stack.biases[index].astype(planes.dtype)[:, None, :]
    return acc


def accuracy_stacked(stack: StackedMLP, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Classification accuracy ``(P,)`` of every stacked MLP on ``(x, y)``."""
    predictions = np.argmax(forward_stacked(stack, x), axis=2)
    return (predictions == np.asarray(y)[None, :]).mean(axis=1)


def fa_count_stacked(stack: StackedMLP) -> np.ndarray:
    """Total FA count ``(P,)`` of every stacked MLP (equation (2))."""
    areas = np.zeros(stack.size, dtype=np.int64)
    for index in range(len(stack.masks)):
        areas += _population_layer_fa_counts(
            masks=stack.masks[index],
            exponents=stack.exponents[index],
            biases=stack.biases[index],
            input_bits=stack.config.layer_input_bits(index),
        )
    return areas


def score_stacked(
    stack: StackedMLP, x: np.ndarray, y: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Accuracy on ``(x, y)`` and FA-count area of every stacked MLP.

    Returns ``(accuracies, areas)``: a float64 and an int64 array of
    shape ``(P,)``.
    """
    return accuracy_stacked(stack, x, y), fa_count_stacked(stack)
