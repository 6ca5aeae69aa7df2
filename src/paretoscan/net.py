"""Small multi-head MLP bridging discrete oracles and continuous descent.

One hidden tanh layer, per-head sigmoid outputs.  The net is trained once on
oracle-labeled bit vectors via full-batch gradient descent and then frozen;
afterwards it serves a single purpose: supplying input-space gradients of the
per-head binary cross-entropy so the descent loop can move through the
relaxed space without touching the oracle.

Cross-entropy is computed from logits (softplus form), so losses and
gradients stay finite for any parameter scale.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DualPathNet", "DivergenceError", "FrozenNetError"]


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; retry with a smaller rate."""


class FrozenNetError(RuntimeError):
    """The net was already trained and is immutable."""


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bce_from_logits(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # softplus(z) - y*z = -[y log s(z) + (1-y) log(1 - s(z))], stable for all z
    return np.logaddexp(0.0, z) - y * z


class DualPathNet:
    """MLP with layer sizes [n_inputs, n_hidden, n_heads]."""

    def __init__(self, n_inputs: int, n_hidden: int, n_heads: int, seed: int = 0):
        if min(n_inputs, n_hidden, n_heads) < 1:
            raise ValueError("layer sizes must be positive")
        rng = np.random.default_rng(seed)
        self.w1 = rng.standard_normal((n_hidden, n_inputs)) / np.sqrt(n_inputs)
        self.b1 = np.zeros(n_hidden)
        self.w2 = rng.standard_normal((n_heads, n_hidden)) / np.sqrt(n_hidden)
        self.b2 = np.zeros(n_heads)
        self.frozen = False
        self.final_loss: float | None = None

    def _forward_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        H = np.tanh(X @ self.w1.T + self.b1)
        Z = H @ self.w2.T + self.b2
        return H, Z

    def forward(self, x) -> np.ndarray:
        """Per-head sigmoid outputs for a single input vector."""
        x = np.asarray(x, dtype=np.float64).ravel()
        _, Z = self._forward_batch(x[None, :])
        return _sigmoid(Z[0])

    def logits(self, x) -> np.ndarray:
        """Pre-sigmoid head activations for a single input vector."""
        x = np.asarray(x, dtype=np.float64).ravel()
        _, Z = self._forward_batch(x[None, :])
        return Z[0]

    def _loss_and_grads(self, X: np.ndarray, Y: np.ndarray):
        B = X.shape[0]
        H, Z = self._forward_batch(X)
        loss = float(np.mean(np.sum(_bce_from_logits(Z, Y), axis=1)))
        dZ = (_sigmoid(Z) - Y) / B  # (B, heads)
        gw2 = dZ.T @ H
        gb2 = dZ.sum(axis=0)
        dH = (dZ @ self.w2) * (1.0 - H * H)
        gw1 = dH.T @ X
        gb1 = dH.sum(axis=0)
        return loss, (gw1, gb1, gw2, gb2)

    def training_loss(self, X, Y) -> float:
        """Mean over the batch of the per-head cross-entropies, summed over heads."""
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        _, Z = self._forward_batch(X)
        return float(np.mean(np.sum(_bce_from_logits(Z, Y), axis=1)))

    def parameter_gradients(self, X, Y):
        """Analytic gradients of :meth:`training_loss` w.r.t. (w1, b1, w2, b2)."""
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        return self._loss_and_grads(X, Y)[1]

    def train(self, X, Y, epochs: int, rate: float = 1e-2) -> list[float]:
        """Full-batch gradient descent; freezes the net afterwards.

        Args:
            X: (B, n_inputs) training inputs.
            Y: (B, n_heads) targets in [0, 1].
            epochs: Gradient steps; zero leaves parameters untouched.
            rate: Step size.

        Returns:
            Per-epoch training losses (values before each step).

        Raises:
            FrozenNetError: If the net was trained already.
            DivergenceError: If the loss turns non-finite.
        """
        if self.frozen:
            raise FrozenNetError("net is immutable after training")
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        curve: list[float] = []
        for _ in range(epochs):
            loss, (gw1, gb1, gw2, gb2) = self._loss_and_grads(X, Y)
            if not np.isfinite(loss):
                raise DivergenceError(
                    "training loss is non-finite; use a smaller rate"
                )
            curve.append(loss)
            self.w1 -= rate * gw1
            self.b1 -= rate * gb1
            self.w2 -= rate * gw2
            self.b2 -= rate * gb2
        final = self.training_loss(X, Y)
        if not np.isfinite(final):
            raise DivergenceError("training loss is non-finite; use a smaller rate")
        self.frozen = True
        self.final_loss = final
        return curve

    def input_gradients(self, x) -> np.ndarray:
        """Per-head cross-entropy gradients with respect to the input.

        Column i is d BCE(yhat_i, 1) / dx: every head is pushed up.  Pure:
        never mutates parameters.
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        h = np.tanh(self.w1 @ x + self.b1)
        yhat = _sigmoid(self.w2 @ h + self.b2)
        # d bce_i / dz_i = yhat_i - 1;  dz_i/dx = W1^T (w2[i] * (1 - h^2))
        back = (self.w2 * (1.0 - h * h)) @ self.w1  # (heads, n_inputs)
        return ((yhat - 1.0)[:, None] * back).T
