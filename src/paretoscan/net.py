"""Small multi-head MLP bridging discrete oracles and continuous descent.

One hidden tanh layer, per-head sigmoid outputs.  The net is trained once on
oracle-labeled bit vectors via full-batch gradient descent with heavy-ball
momentum (Polyak 1964, beta = 0.9) and then frozen.  ``epochs`` caps the
steps: training stops earlier, before step k >= 100, once the loss has
stopped falling, that is when it fell by at least 0 and at most 1e-4 of its
current value over the last 100 steps.  Afterwards the net serves a single
purpose: supplying the per-head binary cross-entropies and their
input-space gradients so the descent loop can move through the relaxed
space without touching the oracle.

Cross-entropy is computed from logits (softplus form), so losses and
gradients stay finite for any parameter scale.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["DualPathNet", "DivergenceError", "FrozenNetError"]


# The loss plateau that stops training: window in steps, relative tolerance.
_PLATEAU_WINDOW = 100
_PLATEAU_TOL = 1e-4
# Heavy-ball momentum: the share of the last step that the next one keeps.
_MOMENTUM = 0.9


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; retry with a smaller rate."""


class FrozenNetError(RuntimeError):
    """The net was already trained and is immutable."""


def _sigmoid_into(z: np.ndarray, e: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the logistic of ``z`` into ``out``, given ``e = exp(-|z|)``.

    1/(1+e) where z >= 0 and e/(1+e) elsewhere: neither branch overflows.
    """
    np.copyto(out, e)
    np.copyto(out, 1.0, where=z >= 0)
    out /= 1.0 + e
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return _sigmoid_into(z, np.exp(-np.abs(z)), np.empty_like(z))


class _Workspace:
    """Work arrays for full-batch loss-and-gradient evaluations of a net.

    ``train`` allocates them once and reuses them every epoch: (B, hidden)
    temporaries are large enough that the allocator maps and unmaps fresh
    pages for each one, which made the training time depend on whatever
    else the process had loaded.  ``velocity`` holds the momentum step of
    each parameter, zero before the first step.
    """

    def __init__(self, net: DualPathNet, batch: int) -> None:
        hidden, heads = net.b1.size, net.b2.size
        self.H = np.empty((batch, hidden))  # tanh activations
        self.F = np.empty((batch, hidden))  # 1 - H*H
        self.dH = np.empty((batch, hidden))
        self.Z = np.empty((batch, heads))  # logits
        self.E = np.empty((batch, heads))  # exp(-|Z|)
        self.L = np.empty((batch, heads))  # per-element cross-entropy
        self.T = np.empty((batch, heads))
        self.dZ = np.empty((batch, heads))
        self.grads = tuple(np.empty_like(p) for p in (net.w1, net.b1, net.w2, net.b2))
        self.velocity = tuple(np.zeros_like(g) for g in self.grads)


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

    def _loss_and_grads(self, X: np.ndarray, Y: np.ndarray, work: _Workspace) -> float:
        """Training loss at the current parameters; gradients land in ``work.grads``.

        The loss is the mean over the batch of the per-head cross-entropies,
        summed over heads; the gradients are with respect to (w1, b1, w2, b2).
        """
        B = X.shape[0]
        H, F, dH, Z, E, L, T, dZ = (
            work.H, work.F, work.dH, work.Z, work.E, work.L, work.T, work.dZ
        )
        gw1, gb1, gw2, gb2 = work.grads
        np.matmul(X, self.w1.T, out=H)
        H += self.b1
        np.tanh(H, out=H)
        np.matmul(H, self.w2.T, out=Z)
        Z += self.b2
        # softplus(z) - y*z = max(z, 0) + log1p(exp(-|z|)) - y*z, stable for all z
        np.abs(Z, out=E)
        np.negative(E, out=E)
        np.exp(E, out=E)
        np.maximum(Z, 0.0, out=L)
        L += np.log1p(E, out=T)
        L -= np.multiply(Y, Z, out=T)
        loss = float(L.sum()) / B
        _sigmoid_into(Z, E, dZ)
        dZ -= Y
        dZ /= B
        np.matmul(dZ.T, H, out=gw2)
        np.sum(dZ, axis=0, out=gb2)
        np.matmul(dZ, self.w2, out=dH)
        np.multiply(H, H, out=F)
        np.subtract(1.0, F, out=F)
        dH *= F
        np.matmul(dH.T, X, out=gw1)
        np.sum(dH, axis=0, out=gb1)
        return loss

    def train(self, X, Y, epochs: int, rate: float = 1e-2) -> None:
        """Full-batch heavy-ball descent up to a loss plateau; freezes the net.

        Each step sets v <- 0.9 * v + rate * grad, from v = 0, and then
        param <- param - v.  Let L[k] be the training loss before step k.
        Training stops before step k when k >= 100 and 0 <= L[k-100] - L[k]
        <= 1e-4 * L[k], or after ``epochs`` steps, whichever comes first.  A
        loss that rises over the window is no plateau.  Stopping only
        truncates: a net that stops before step k holds the parameters
        ``epochs=k`` gives.

        Args:
            X: (B, n_inputs) finite training inputs, B >= 1.
            Y: (B, n_heads) finite targets in [0, 1].
            epochs: Cap on the gradient steps, a non-negative int; zero
                leaves parameters untouched.
            rate: Gradient scale of each step, finite and positive.

        Raises:
            FrozenNetError: If the net was trained already.
            ValueError: If an argument has the wrong shape, type or range,
                or ``X`` or ``Y`` holds a non-finite value.
            DivergenceError: If the loss or a parameter turns non-finite.
        """
        if self.frozen:
            raise FrozenNetError("net is immutable after training")
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        n_inputs, n_heads = self.w1.shape[1], self.w2.shape[0]
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] != n_inputs:
            raise ValueError(
                f"X must have shape (B, {n_inputs}) with B >= 1, got {X.shape}"
            )
        if not np.all(np.isfinite(X)):
            raise ValueError("X must be finite")
        if Y.shape != (X.shape[0], n_heads):
            raise ValueError(
                f"Y must have shape ({X.shape[0]}, {n_heads}), got {Y.shape}"
            )
        if not np.all(np.isfinite(Y)):
            raise ValueError("Y must be finite")
        if (
            isinstance(epochs, bool)
            or not isinstance(epochs, numbers.Integral)
            or epochs < 0
        ):
            raise ValueError(f"epochs must be a non-negative int, got {epochs!r}")
        if (
            isinstance(rate, bool)
            or not isinstance(rate, numbers.Real)
            or not (math.isfinite(rate) and rate > 0)
        ):
            raise ValueError(f"rate must be finite and positive, got {rate!r}")
        work = _Workspace(self, X.shape[0])
        params = (self.w1, self.b1, self.w2, self.b2)
        history = []
        for k in range(epochs):
            loss = self._loss_and_grads(X, Y, work)
            if not math.isfinite(loss):
                raise DivergenceError(
                    "training loss is non-finite; use a smaller rate"
                )
            if k >= _PLATEAU_WINDOW:
                fall = history[k - _PLATEAU_WINDOW] - loss
                if 0.0 <= fall <= _PLATEAU_TOL * loss:
                    break
            history.append(loss)
            for param, grad, vel in zip(params, work.grads, work.velocity):
                vel *= _MOMENTUM
                grad *= rate
                vel += grad
                param -= vel
        if not all(np.all(np.isfinite(param)) for param in params):
            raise DivergenceError("a trained parameter is non-finite; use a smaller rate")
        self.frozen = True

    def losses_and_gradients(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-head cross-entropies (target 1) of each row of an
        (r, n_inputs) float64 stack and their input gradients, as
        (r, n_heads) and (r, n_inputs, n_heads).

        One forward pass gives both: the losses softplus(-z) = -log
        sigmoid(z) of the head logits z, and the matrices whose column i is
        d BCE(yhat_i, 1) / dx, so every head is pushed up; each is
        Fortran-ordered.  The layers multiply vector slices, so a row's
        numbers do not depend on its stack (one gemm would sum in another
        order).  Pure: never mutates parameters.
        """
        H = np.tanh(np.matmul(self.w1, X[:, :, None])[:, :, 0] + self.b1)
        Z = np.matmul(self.w2, H[:, :, None])[:, :, 0] + self.b2
        # d bce_i / dz_i = yhat_i - 1;  dz_i/dx = W1^T (w2[i] * (1 - h^2))
        back = np.matmul(self.w2 * (1.0 - H * H)[:, None, :], self.w1)  # (r, heads, n_inputs)
        return np.logaddexp(0.0, -Z), ((_sigmoid(Z) - 1.0)[:, :, None] * back).transpose(0, 2, 1)
