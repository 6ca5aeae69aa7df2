"""Small multi-head MLP bridging discrete oracles and continuous descent.

One hidden tanh layer, per-head sigmoid outputs.  The net is trained once on
oracle-labeled bit vectors via full-batch L-BFGS (Liu & Nocedal 1989;
Nocedal & Wright, Numerical Optimization, ch. 7: memory 10, Armijo
backtracking) and then frozen.  ``epochs`` caps the iterations: training
stops earlier, before iteration k >= 10, once the loss has stopped falling,
that is when it fell by at least 0 and at most 1e-5 of its current value
over the last 10 iterations.  Afterwards the net serves a single
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


# The loss plateau that stops training: window in iterations, relative tolerance.
_PLATEAU_WINDOW = 10
_PLATEAU_TOL = 1e-5
# L-BFGS: curvature pairs kept, Armijo's sufficient-decrease share of the
# slope, and the steps tried per iteration, each half the last.
_MEMORY = 10
_ARMIJO = 1e-4
_BACKTRACKS = 30


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameter, or its rate-scaled
    first step could not lower the loss; retry with a smaller rate."""


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


def _views(flat: np.ndarray, shapes) -> tuple[np.ndarray, ...]:
    """Consecutive slices of ``flat`` reshaped to ``shapes``, as views."""
    out, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[start : start + size].reshape(shape))
        start += size
    return tuple(out)


class _Workspace:
    """Work arrays for full-batch loss-and-gradient evaluations of a net.

    ``train`` allocates them once and reuses them every evaluation: (B,
    hidden) temporaries are large enough that the allocator maps and unmaps
    fresh pages for each one, which made the training time depend on
    whatever else the process had loaded.  ``grads`` are views of the one
    flat vector ``grad``, laid out as ``train`` lays out the parameters.
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
        shapes = [p.shape for p in (net.w1, net.b1, net.w2, net.b2)]
        self.grad = np.empty(sum(math.prod(shape) for shape in shapes))
        self.grads = _views(self.grad, shapes)


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

    def _checked_loss(self, X: np.ndarray, Y: np.ndarray, work: _Workspace) -> float:
        """``_loss_and_grads`` at parameters that must be finite, giving a
        finite loss."""
        if not all(np.all(np.isfinite(p)) for p in (self.w1, self.b1, self.w2, self.b2)):
            raise DivergenceError("a trained parameter is non-finite; use a smaller rate")
        loss = self._loss_and_grads(X, Y, work)
        if not math.isfinite(loss):
            raise DivergenceError("training loss is non-finite; use a smaller rate")
        return loss

    def train(self, X, Y, epochs: int, rate: float = 1e-2) -> None:
        """Full-batch L-BFGS up to a loss plateau; freezes the net.

        Each iteration moves along d = -H grad.  H is the two-loop
        recursion's inverse-Hessian estimate from the last 10 kept pairs of
        a step s and its gradient change y, a pair kept only when s.y > 0,
        started from (s.y / y.y) I of the newest pair, or H = rate * I while
        no pair is kept, as on the first iteration.  The step taken is the
        first of d, d/2, d/4, ... (30 tries) whose loss lies at least 1e-4
        of the slope grad.d below the current loss (Armijo), so the loss
        never rises between iterates.  Let L[k] be the training loss before
        iteration k.  Training stops before iteration k when k >= 10 and 0
        <= L[k-10] - L[k] <= 1e-5 * L[k], in iteration k when no try of a
        step from kept pairs is accepted (the loss is at its floor), or
        after ``epochs`` iterations, whichever comes first.  Stopping only
        truncates: a net that stops before or in iteration k holds the
        parameters ``epochs=k`` gives.

        Args:
            X: (B, n_inputs) finite training inputs, B >= 1.
            Y: (B, n_heads) finite targets in [0, 1].
            epochs: Cap on the iterations, a non-negative int; zero
                leaves parameters untouched.
            rate: Gradient scale of the steps taken while no pair is
                kept, finite and positive.

        Raises:
            FrozenNetError: If the net was trained already.
            ValueError: If an argument has the wrong shape, type or range,
                or ``X`` or ``Y`` holds a non-finite value.
            DivergenceError: If the loss or a parameter turns non-finite,
                or no try of a rate-scaled step lowers the loss.
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
        theta = np.concatenate([param.ravel() for param in params])
        self.w1, self.b1, self.w2, self.b2 = _views(theta, [p.shape for p in params])
        grad = work.grad
        S = np.empty((_MEMORY, theta.size))  # kept steps s, the newest at (pairs - 1) % 10
        G = np.empty_like(S)  # their gradient changes y
        rho = np.empty(_MEMORY)  # 1 / (s . y)
        pairs = 0
        start, grad_start, direction = (np.empty_like(theta) for _ in range(3))
        history = []
        for k in range(epochs):
            if k == 0:
                loss = self._checked_loss(X, Y, work)
            elif k >= _PLATEAU_WINDOW:
                fall = history[k - _PLATEAU_WINDOW] - loss
                if 0.0 <= fall <= _PLATEAU_TOL * loss:
                    break
            history.append(loss)
            # two-loop recursion: direction = -H grad, H from the kept pairs
            np.negative(grad, out=direction)
            kept = [(pairs - 1 - j) % _MEMORY for j in range(min(pairs, _MEMORY))]
            shares = []
            for i in kept:
                share = rho[i] * (S[i] @ direction)
                direction -= share * G[i]
                shares.append(share)
            if kept:
                newest = G[kept[0]]
                direction *= 1.0 / (rho[kept[0]] * (newest @ newest))
            else:
                direction *= rate
            for i, share in zip(reversed(kept), reversed(shares)):
                direction += (share - rho[i] * (G[i] @ direction)) * S[i]
            slope = float(grad @ direction)
            np.copyto(start, theta)
            np.copyto(grad_start, grad)
            step = 1.0
            for _ in range(_BACKTRACKS):
                np.multiply(direction, step, out=theta)
                theta += start
                trial = self._checked_loss(X, Y, work)
                if trial <= loss + _ARMIJO * step * slope:
                    break
                step *= 0.5
            else:
                np.copyto(theta, start)
                if not kept:
                    raise DivergenceError(
                        "training loss did not fall along the rate-scaled step; "
                        "use a smaller rate"
                    )
                break  # the kept pairs' step fell short: the loss is at its floor
            loss = trial
            step_taken = np.subtract(theta, start, out=start)
            grad_change = np.subtract(grad, grad_start, out=grad_start)
            curvature = float(step_taken @ grad_change)
            if curvature > 0.0:  # a pair that keeps H positive definite
                i = pairs % _MEMORY
                S[i], G[i], rho[i] = step_taken, grad_change, 1.0 / curvature
                pairs += 1
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
