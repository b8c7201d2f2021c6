"""Conventional gradient-based MLP training (numpy backpropagation).

This is the training flow the paper calls "Grad." in Table III: a
floating-point MLP trained with backpropagation on the classification
loss only (no hardware awareness).  It serves three purposes in the
reproduction:

1. it produces the weights that are post-training-quantized into the
   exact bespoke baseline (Table I),
2. it is the starting point of the post-training approximation
   baselines (TC'23, TCAD'23),
3. its wall-clock training time is the reference point of the execution
   time study (Table III).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.approx.topology import Topology

__all__ = ["FloatMLP", "GradientTrainer", "TrainingResult"]


@dataclass
class FloatMLP:
    """A plain floating-point MLP with ReLU hidden layers and linear output."""

    topology: Topology
    weights: List[np.ndarray]
    biases: List[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != self.topology.num_layers:
            raise ValueError(
                f"expected {self.topology.num_layers} weight matrices, got {len(self.weights)}"
            )
        if len(self.biases) != self.topology.num_layers:
            raise ValueError(
                f"expected {self.topology.num_layers} bias vectors, got {len(self.biases)}"
            )
        for index, (shape, weight, bias) in enumerate(
            zip(self.topology.layer_shapes(), self.weights, self.biases)
        ):
            if weight.shape != shape:
                raise ValueError(f"layer {index} weights have shape {weight.shape}, expected {shape}")
            if bias.shape != (shape[1],):
                raise ValueError(f"layer {index} biases have shape {bias.shape}, expected ({shape[1]},)")

    @classmethod
    def random(cls, topology: Topology, rng: np.random.Generator | None = None) -> "FloatMLP":
        """He-initialized random MLP."""
        # Seeded fallback: library defaults must be reproducible (RP03).
        rng = rng or np.random.default_rng(0)
        weights = []
        biases = []
        for fan_in, fan_out in topology.layer_shapes():
            scale = np.sqrt(2.0 / fan_in)
            weights.append(rng.normal(scale=scale, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(topology=topology, weights=weights, biases=biases)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class scores (logits) for real-valued inputs ``x``."""
        activations = np.asarray(x, dtype=np.float64)
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            activations = activations @ weight + bias
            if index < len(self.weights) - 1:
                activations = np.maximum(activations, 0.0)
        return activations

    def hidden_activations(self, x: np.ndarray) -> List[np.ndarray]:
        """Post-ReLU activations of every hidden layer (for calibration)."""
        activations = np.asarray(x, dtype=np.float64)
        collected: List[np.ndarray] = []
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            activations = activations @ weight + bias
            if index < len(self.weights) - 1:
                activations = np.maximum(activations, 0.0)
                collected.append(activations)
        return collected

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return np.argmax(self.forward(x), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on real-valued inputs."""
        return float(np.mean(self.predict(x) == np.asarray(y)))


@dataclass(frozen=True)
class TrainingResult:
    """Outcome of a gradient training run."""

    model: FloatMLP
    train_accuracy: float
    losses: List[float] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    epochs_run: int = 0


def _softmax(logits: np.ndarray) -> np.ndarray:
    # Bare ufunc reductions: the same arithmetic as ``.max``/``.sum``
    # without the Python-level wrapper call per mini-batch.
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.add.reduce(exp, axis=1, keepdims=True)


@dataclass
class GradientTrainer:
    """Mini-batch Adam (or SGD with momentum) on the cross-entropy loss.

    The printed MLP topologies have very narrow hidden layers (2–5
    neurons), which makes plain SGD prone to collapsing onto the majority
    class; Adam with a handful of random restarts reliably reaches the
    baseline accuracies of Table I, so that is the default.

    Parameters
    ----------
    epochs:
        Number of passes over the training data.
    batch_size:
        Mini-batch size.
    learning_rate:
        Step size.
    optimizer:
        ``"adam"`` (default) or ``"sgd"`` (classical momentum).
    momentum:
        Momentum coefficient (SGD only).
    weight_decay:
        L2 regularization strength.
    restarts:
        Number of independently initialized runs; the model with the best
        training accuracy is returned.
    seed:
        Seed of the weight initialization and batch shuffling.
    """

    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 0.01
    optimizer: str = "adam"
    momentum: float = 0.9
    weight_decay: float = 1e-4
    restarts: int = 3
    seed: Optional[int] = 0
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")

    def train(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        topology: Topology | Sequence[int],
        slow: bool = False,
    ) -> TrainingResult:
        """Train a :class:`FloatMLP` on ``(features, labels)``.

        Runs ``restarts`` independent trainings and keeps the best.
        ``slow=True`` runs the per-layer reference loop instead of the
        flat-buffer loop; both perform the same per-element operations
        and return bit-identical models and losses.
        """
        start = time.perf_counter()
        if not isinstance(topology, Topology):
            topology = Topology(topology)
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.shape[1] != topology.num_inputs:
            raise ValueError(
                f"dataset has {features.shape[1]} features but topology expects {topology.num_inputs}"
            )
        if labels.max(initial=0) >= topology.num_outputs:
            raise ValueError(
                f"labels contain class {labels.max()} but topology has {topology.num_outputs} outputs"
            )
        base_seed = self.seed if self.seed is not None else 0
        best: Optional[TrainingResult] = None
        total_epochs = 0
        for restart in range(self.restarts):
            rng = np.random.default_rng(base_seed + restart)
            train_single = self._train_per_layer if slow else self._train_single
            model, losses = train_single(features, labels, topology, rng)
            accuracy = model.accuracy(features, labels)
            total_epochs += self.epochs
            candidate = TrainingResult(
                model=model, train_accuracy=accuracy, losses=losses
            )
            if best is None or candidate.train_accuracy > best.train_accuracy:
                best = candidate
        elapsed = time.perf_counter() - start
        assert best is not None
        return TrainingResult(
            model=best.model,
            train_accuracy=best.train_accuracy,
            losses=best.losses,
            wall_clock_seconds=elapsed,
            epochs_run=total_epochs,
        )

    def _train_single(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        topology: Topology,
        rng: np.random.Generator,
    ) -> tuple[FloatMLP, List[float]]:
        """One training run with every parameter in one flat buffer.

        The weights and biases are views of one vector ``theta`` and
        the backward pass writes into views of one gradient vector, so
        each step is a single set of optimizer ufunc calls instead of
        one set per array.  Per element the arithmetic is that of
        :meth:`_train_per_layer` (the oracle), so results are
        bit-identical.
        """
        model = FloatMLP.random(topology, rng)
        num_layers = topology.num_layers
        total = topology.num_parameters
        theta = np.empty(total)
        gradient = np.empty(total)
        weights: List[np.ndarray] = []
        biases: List[np.ndarray] = []
        grad_weights: List[np.ndarray] = []
        grad_biases: List[np.ndarray] = []
        offset = 0
        for weight, bias in zip(model.weights, model.biases):
            for source, params, grads in (
                (weight, weights, grad_weights),
                (bias, biases, grad_biases),
            ):
                end = offset + source.size
                params.append(theta[offset:end].reshape(source.shape))
                grads.append(gradient[offset:end].reshape(source.shape))
                params[-1][...] = source
                offset = end
        first = np.zeros(total)
        second = np.zeros(total)
        one_hot = np.eye(topology.num_outputs)[labels]
        n = features.shape[0]
        losses: List[float] = []
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        for epoch in range(self.epochs):
            # Shuffle once per epoch; each mini-batch is then a slice.
            order = rng.permutation(n)
            shuffled_x = features[order]
            shuffled_t = one_hot[order]
            epoch_loss = 0.0
            for start_idx in range(0, n, self.batch_size):
                x = shuffled_x[start_idx : start_idx + self.batch_size]
                t = shuffled_t[start_idx : start_idx + self.batch_size]
                size = len(x)

                activations = [x]
                for index in range(num_layers):
                    z = activations[-1] @ weights[index] + biases[index]
                    if index < num_layers - 1:
                        z = np.maximum(z, 0.0)
                    activations.append(z)
                probs = _softmax(activations[-1])
                log_likelihood = np.add.reduce(t * np.log(probs + 1e-12), axis=1)
                batch_loss = -(np.add.reduce(log_likelihood) / size)
                epoch_loss += batch_loss * size

                grad = (probs - t) / size
                step += 1
                for index in range(num_layers - 1, -1, -1):
                    grad_w = grad_weights[index]
                    np.matmul(activations[index].T, grad, out=grad_w)
                    grad_w += self.weight_decay * weights[index]
                    np.add.reduce(grad, axis=0, out=grad_biases[index])
                    if index > 0:
                        grad = grad @ weights[index].T
                        grad = grad * (activations[index] > 0)
                if self.optimizer == "adam":
                    first *= beta1
                    first += (1 - beta1) * gradient
                    second *= beta2
                    second += (1 - beta2) * gradient**2
                    correction1 = 1 - beta1**step
                    correction2 = 1 - beta2**step
                    update = (first / correction1) / (np.sqrt(second / correction2) + eps)
                    theta -= self.learning_rate * update
                else:
                    first *= self.momentum
                    first -= self.learning_rate * gradient
                    theta += first

            losses.append(epoch_loss / n)
            if self.verbose and (epoch % max(self.epochs // 10, 1) == 0):  # pragma: no cover
                print(f"epoch {epoch}: loss={losses[-1]:.4f}")
        trained = FloatMLP(
            topology=topology,
            weights=[w.copy() for w in weights],
            biases=[b.copy() for b in biases],
        )
        return trained, losses

    def _train_per_layer(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        topology: Topology,
        rng: np.random.Generator,
    ) -> tuple[FloatMLP, List[float]]:
        """Reference loop: one optimizer update per weight/bias array."""
        model = FloatMLP.random(topology, rng)
        velocity_w = [np.zeros_like(w) for w in model.weights]
        velocity_b = [np.zeros_like(b) for b in model.biases]
        second_w = [np.zeros_like(w) for w in model.weights]
        second_b = [np.zeros_like(b) for b in model.biases]
        one_hot = np.eye(topology.num_outputs)[labels]
        n = features.shape[0]
        losses: List[float] = []
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        for epoch in range(self.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start_idx in range(0, n, self.batch_size):
                batch = order[start_idx : start_idx + self.batch_size]
                x = features[batch]
                t = one_hot[batch]

                # Forward pass, keeping intermediate activations.
                activations = [x]
                for index, (weight, bias) in enumerate(zip(model.weights, model.biases)):
                    z = activations[-1] @ weight + bias
                    if index < topology.num_layers - 1:
                        z = np.maximum(z, 0.0)
                    activations.append(z)
                probs = _softmax(activations[-1])
                batch_loss = -np.mean(np.sum(t * np.log(probs + 1e-12), axis=1))
                epoch_loss += batch_loss * len(batch)

                # Backward pass.
                grad = (probs - t) / len(batch)
                step += 1
                for index in range(topology.num_layers - 1, -1, -1):
                    grad_w = activations[index].T @ grad + self.weight_decay * model.weights[index]
                    grad_b = grad.sum(axis=0)
                    if index > 0:
                        grad = grad @ model.weights[index].T
                        grad = grad * (activations[index] > 0)
                    if self.optimizer == "adam":
                        velocity_w[index] = beta1 * velocity_w[index] + (1 - beta1) * grad_w
                        velocity_b[index] = beta1 * velocity_b[index] + (1 - beta1) * grad_b
                        second_w[index] = beta2 * second_w[index] + (1 - beta2) * grad_w**2
                        second_b[index] = beta2 * second_b[index] + (1 - beta2) * grad_b**2
                        correction1 = 1 - beta1**step
                        correction2 = 1 - beta2**step
                        update_w = (velocity_w[index] / correction1) / (
                            np.sqrt(second_w[index] / correction2) + eps
                        )
                        update_b = (velocity_b[index] / correction1) / (
                            np.sqrt(second_b[index] / correction2) + eps
                        )
                        model.weights[index] = model.weights[index] - self.learning_rate * update_w
                        model.biases[index] = model.biases[index] - self.learning_rate * update_b
                    else:
                        velocity_w[index] = self.momentum * velocity_w[index] - self.learning_rate * grad_w
                        velocity_b[index] = self.momentum * velocity_b[index] - self.learning_rate * grad_b
                        model.weights[index] = model.weights[index] + velocity_w[index]
                        model.biases[index] = model.biases[index] + velocity_b[index]

            losses.append(epoch_loss / n)
            if self.verbose and (epoch % max(self.epochs // 10, 1) == 0):  # pragma: no cover
                print(f"epoch {epoch}: loss={losses[-1]:.4f}")
        return model, losses
