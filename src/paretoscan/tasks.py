"""Built-in discrete multi-objective tasks.

Three task families exercise the relax-descend-discretize loop:

* ``SyntheticTask`` -- two Gaussian-well losses over the grid of step 0.01
  in the box [-2, 2]^n, with a closed-form Pareto front (the segment
  between the two well centers) for ground-truth comparisons.
* ``NGramTask`` -- fixed-length strings over the alphabet {C, V, A}, scored
  by symbol counts (unigram mode, conflicting: the counts compete for the
  same positions) or by adjacent-pair counts of CV, VA, AC (bigram mode,
  correlated: a cyclic string feeds all three).  The relaxation is a
  row-stochastic position-wise distribution matrix; bigram counts factorize
  across adjacent positions.
* ``SurrogateTask`` -- bit vectors scored by hidden monotone-sigmoid
  properties.  Discrete evaluation always queries the ground-truth oracle,
  while gradients come from a small net pretrained on oracle-labeled
  samples, so descent consumes no oracle budget.  The oracle and the
  training rows are fixed by seeds 7 and 101.

Every task parameter is an integer with a floor, which the task's own
constructor checks; the grid, the start box and the seeds are constants.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .net import DualPathNet
from .relax import Box, SimplexRows, TaskContract, InvalidRelaxationError

__all__ = [
    "SyntheticTask",
    "NGramTask",
    "SurrogateTask",
    "SigmoidOracle",
    "synthetic_losses",
    "synthetic_losses_and_gradients",
    "synthetic_true_front",
    "ngram_losses",
    "make_task",
    "TASK_NAMES",
]

#: Half-width of the synthetic task's box [-2, 2]^n.
_SYNTHETIC_BOUND = 2.0

#: The synthetic lattice: coordinates are integer multiples of 0.01, and
#: start draws take indices in [-50, 50], the sub-box [-0.5, 0.5]^n.
_GRID_STEP = 0.01
_MAX_INDEX = round(_SYNTHETIC_BOUND / _GRID_STEP)
_INIT_INDEX = 50

#: Seeds of the surrogate's hidden oracle and of its net's training rows.
_ORACLE_SEED = 7
_TRAIN_SEED = 101

#: Parameters each task accepts through :func:`make_task`, all integers,
#: with the smallest value each may take.
_TASK_PARAMS = {
    "synthetic": {"n": 1},
    "ngram-uni": {"l_max": 2},
    "ngram-bi": {"l_max": 2},
    "surrogate": {"n_b": 2, "m": 1, "epochs": 0},
}

TASK_NAMES = tuple(_TASK_PARAMS)


def _check_params(task: str, **params) -> None:
    """Raise ValueError, naming the parameter, unless each is an integer at
    or above its floor in ``_TASK_PARAMS[task]``."""
    floors = _TASK_PARAMS[task]
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{key} must be int, got {value!r}")
        if value < floors[key]:
            raise ValueError(f"{key} must be >= {floors[key]}, got {value!r}")


# ---------------------------------------------------------------------------
# Synthetic Gaussian-well task
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _centre(n: int) -> np.ndarray:
    """The read-only well centre ones(n) / sqrt(n), built once per n."""
    c = np.full(n, 1.0 / math.sqrt(n))
    c.flags.writeable = False
    return c


def _wells(x) -> tuple[np.ndarray, tuple[np.ndarray, ...], tuple[float, ...]]:
    """Losses of the two wells, with the offsets x -+ c and their exponentials."""
    x = np.asarray(x, dtype=np.float64).ravel()
    c = _centre(x.size)
    offsets = (x - c, x + c)
    factors = tuple(math.exp(-float(d @ d)) for d in offsets)
    return np.array([1.0 - e for e in factors]), offsets, factors


def synthetic_losses(x) -> np.ndarray:
    """Two-objective losses 1 - exp(-||x -+ c||^2) with c = ones/sqrt(n)."""
    return _wells(x)[0]


def synthetic_losses_and_gradients(x) -> tuple[np.ndarray, np.ndarray]:
    """:func:`synthetic_losses` and their (n, 2) gradient matrix."""
    losses, offsets, factors = _wells(x)
    grads = np.empty((offsets[0].size, 2))
    for j, (d, e) in enumerate(zip(offsets, factors)):
        grads[:, j] = 2.0 * d * e
    return losses, grads


def synthetic_true_front(samples: int = 200) -> np.ndarray:
    """Loss images of the optimal segment x = t * c, t in [-1, 1].

    Along the segment the squared distances to the two centers are (t - 1)^2
    and (t + 1)^2 regardless of dimension, so the front is dimension-free.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    t = np.linspace(-1.0, 1.0, samples)
    return np.stack(
        [1.0 - np.exp(-((t - 1.0) ** 2)), 1.0 - np.exp(-((t + 1.0) ** 2))], axis=1
    )


class SyntheticTask(TaskContract):
    """Gaussian-well losses on the grid (step 0.01) inside [-2, 2]^n.

    Candidates are integer index vectors k with coordinates k * 0.01.
    Initial draws come from the sub-box [-0.5, 0.5]^n: far from the
    centers both exponentials vanish and gradients carry no signal, so
    starting in the dead zone would stall the descent immediately.
    """

    m = 2
    region = Box(-_SYNTHETIC_BOUND, _SYNTHETIC_BOUND)
    default_eta = 0.05

    def __init__(self, n: int = 20) -> None:
        super().__init__()
        _check_params("synthetic", n=n)
        self.n = n

    def _coords(self, candidate: np.ndarray) -> np.ndarray:
        return np.asarray(candidate, dtype=np.float64) * _GRID_STEP

    def _discrete_losses(self, candidate) -> np.ndarray:
        return synthetic_losses(self._coords(candidate))

    def relax(self, candidate) -> np.ndarray:
        return self._coords(candidate)

    def losses_and_gradients(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return synthetic_losses_and_gradients(x)

    def _snap(self, params: np.ndarray) -> np.ndarray:
        idx = np.rint(params / _GRID_STEP).astype(np.int64)
        return np.minimum(np.maximum(idx, -_MAX_INDEX), _MAX_INDEX)

    def neighborhood_discretize(self, x: np.ndarray, count: int, rng) -> list:
        if count < 1:
            raise ValueError("count must be positive")
        out = [self._snap(x)]
        for _ in range(count - 1):
            noise = rng.uniform(-_GRID_STEP, _GRID_STEP, self.n)
            out.append(self._snap(x + noise))
        return out

    def candidate_id(self, candidate) -> str:
        return "x:" + ",".join(str(int(k)) for k in candidate)

    def random_candidate(self, rng) -> np.ndarray:
        return rng.integers(-_INIT_INDEX, _INIT_INDEX + 1, self.n).astype(np.int64)

    def true_front(self, samples: int = 200) -> np.ndarray:
        return synthetic_true_front(samples)


# ---------------------------------------------------------------------------
# N-gram string task
# ---------------------------------------------------------------------------

ALPHABET = "CVA"
_UNIGRAM_TARGETS = ("C", "V", "A")
_BIGRAM_TARGETS = ("CV", "VA", "AC")
_CHAR_INDEX = {ch: i for i, ch in enumerate(ALPHABET)}


def _validate_rows(P: np.ndarray) -> None:
    if (P < -1e-9).any() or (np.abs(P.sum(axis=1) - 1.0) > 1e-9).any():
        raise InvalidRelaxationError("rows must lie on the probability simplex")


def _as_matrix(sequence_or_matrix, l_max: int) -> np.ndarray:
    if isinstance(sequence_or_matrix, str):
        seq = sequence_or_matrix
        if len(seq) != l_max or any(ch not in _CHAR_INDEX for ch in seq):
            raise ValueError(f"sequence must have length {l_max} over {ALPHABET!r}")
        P = np.zeros((l_max, 3))
        for t, ch in enumerate(seq):
            P[t, _CHAR_INDEX[ch]] = 1.0
        return P
    P = np.asarray(sequence_or_matrix, dtype=np.float64)
    if P.shape != (l_max, 3):
        raise ValueError(f"matrix must have shape ({l_max}, 3), got {P.shape}")
    _validate_rows(P)
    return P


def ngram_losses(sequence_or_matrix, mode: str = "unigram", l_max: int = 8) -> np.ndarray:
    """Losses 1 - normalized target counts for a sequence or relaxed matrix.

    Unigram mode counts each alphabet symbol (normalized by the length);
    bigram mode counts CV, VA, AC over adjacent pairs (normalized by the
    pair count).  For a relaxed matrix the counts are expectations, with
    bigram expectations factorized across adjacent rows.
    """
    return _ngram_losses(_as_matrix(sequence_or_matrix, l_max), mode, l_max)


def _ngram_losses(P: np.ndarray, mode: str, l_max: int) -> np.ndarray:
    """:func:`ngram_losses` of a matrix already known to be valid."""
    if mode == "unigram":
        counts = P.sum(axis=0)
        return 1.0 - counts / l_max
    if mode == "bigram":
        first = P[:-1]
        second = P[1:]
        counts = np.array(
            [
                float(np.sum(first[:, _CHAR_INDEX[a]] * second[:, _CHAR_INDEX[b]]))
                for a, b in _BIGRAM_TARGETS
            ]
        )
        return 1.0 - counts / (l_max - 1)
    raise ValueError(f"unknown n-gram mode {mode!r}")


def _unigram_gradients(l_max: int) -> np.ndarray:
    """The unigram gradient matrix, which does not depend on P."""
    grads = np.zeros((l_max, 3, 3))  # position, symbol, objective
    for a, sym in enumerate(_UNIGRAM_TARGETS):
        grads[:, _CHAR_INDEX[sym], a] = -1.0 / l_max
    return grads.reshape(3 * l_max, 3)


def _bigram_gradients(P: np.ndarray, l_max: int) -> np.ndarray:
    """The bigram gradient matrix at a matrix already known to be valid."""
    grads = np.zeros((l_max, 3, 3))  # position, symbol, objective
    for k, (a, b) in enumerate(_BIGRAM_TARGETS):
        ia, ib = _CHAR_INDEX[a], _CHAR_INDEX[b]
        grads[:-1, ia, k] -= P[1:, ib] / (l_max - 1)
        grads[1:, ib, k] -= P[:-1, ia] / (l_max - 1)
    return grads.reshape(3 * l_max, 3)


class NGramTask(TaskContract):
    """Fixed-length strings over {C, V, A} scored by n-gram counts."""

    m = 3
    default_eta = 0.2

    def __init__(self, mode: str = "unigram", l_max: int = 8) -> None:
        super().__init__()
        if mode not in ("unigram", "bigram"):
            raise ValueError(f"unknown n-gram mode {mode!r}")
        _check_params("ngram-uni", l_max=l_max)
        self.mode = mode
        self.l_max = l_max
        self.region = SimplexRows(l_max, 3)
        # the unigram gradient is the same at every point: build it once
        self._unigram_grads = _unigram_gradients(l_max) if mode == "unigram" else None
        if self._unigram_grads is not None:
            self._unigram_grads.flags.writeable = False

    def _discrete_losses(self, candidate) -> np.ndarray:
        return ngram_losses(candidate, self.mode, self.l_max)

    def relax(self, candidate) -> np.ndarray:
        return _as_matrix(candidate, self.l_max).ravel()

    def losses_and_gradients(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        P = x.reshape(self.l_max, 3)
        losses = _ngram_losses(P, self.mode, self.l_max)
        if self._unigram_grads is not None:
            return losses, self._unigram_grads
        return losses, _bigram_gradients(P, self.l_max)

    def neighborhood_discretize(self, x: np.ndarray, count: int, rng) -> list:
        if count < 1:
            raise ValueError("count must be positive")
        P = x.reshape(self.l_max, 3)
        _validate_rows(P)
        rows = np.clip(P, 0.0, None)
        rows = rows / rows.sum(axis=1, keepdims=True)
        out = ["".join(ALPHABET[int(i)] for i in np.argmax(rows, axis=1))]
        # rng.choice(3, p=row) draws one rng.random() and returns the count of
        # the row's normalised cumulative sums at or below it; drawing all the
        # uniforms at once gives the same letters and leaves rng in the same state.
        cdf = np.cumsum(rows, axis=1)
        cdf /= cdf[:, -1:]
        u = rng.random((count - 1, self.l_max))
        draws = (cdf[None] <= u[..., None]).sum(axis=-1)
        out += ["".join(ALPHABET[i] for i in row) for row in draws.tolist()]
        return out

    def candidate_id(self, candidate) -> str:
        return str(candidate)

    def random_candidate(self, rng) -> str:
        return "".join(ALPHABET[int(i)] for i in rng.integers(0, 3, self.l_max))


# ---------------------------------------------------------------------------
# Surrogate bit-vector task
# ---------------------------------------------------------------------------

class SigmoidOracle:
    """Hidden ground-truth properties O_i(x) = sigmoid(w_i . x + b_i).

    Property directions of norm 4 live in a fixed plane, spread evenly over
    120 degrees (so two heads conflict), and each bias centers the property
    at the half-on bit vector, so scores spread over a useful sigmoid range
    on {0, 1}^n.
    """

    def __init__(self, n_b: int = 16, m: int = 2) -> None:
        rng = np.random.default_rng(_ORACLE_SEED)
        u = rng.standard_normal(n_b)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(n_b)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        angles = np.linspace(0.0, math.radians(120.0), m)
        self.w = 4.0 * np.stack(
            [math.cos(t) * u + math.sin(t) * v for t in angles]
        )
        self.b = -0.5 * self.w.sum(axis=1)

    @property
    def m(self) -> int:
        return self.w.shape[0]

    def scores(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).ravel()
        z = self.w @ x + self.b
        return 1.0 / (1.0 + np.exp(-z))

    def losses(self, x) -> np.ndarray:
        return 1.0 - self.scores(x)


#: The surrogate net: hidden units, oracle-labeled training rows, step size.
_NET_HIDDEN = 32
_TRAIN_SIZE = 1024
_TRAIN_RATE = 5e-2

@functools.lru_cache(maxsize=None)
def _trained_net(n_b: int, m: int, epochs: int) -> tuple[SigmoidOracle, DualPathNet]:
    """The oracle and the net trained on rows it labelled, built once per setting."""
    oracle = SigmoidOracle(n_b=n_b, m=m)
    rng = np.random.default_rng(_TRAIN_SEED)
    X = rng.integers(0, 2, size=(_TRAIN_SIZE, n_b)).astype(np.float64)
    Y = np.stack([oracle.scores(x) for x in X])
    net = DualPathNet(n_b, _NET_HIDDEN, m, seed=_TRAIN_SEED)
    net.train(X, Y, epochs=epochs, rate=_TRAIN_RATE)
    return oracle, net


class SurrogateTask(TaskContract):
    """Bit vectors scored by hidden sigmoid properties via a trained net.

    Discrete evaluations query the ground-truth oracle and count against the
    oracle budget.  The relaxation is the unit cube; its losses and
    gradients are the per-head cross-entropies (target 1) of the pretrained
    net, so the descent path never touches the oracle.  The net's 1024
    oracle-labeled training rows are not counted as oracle calls.
    """

    region = Box(0.0, 1.0)
    default_eta = 0.1

    def __init__(self, n_b: int = 16, m: int = 2, epochs: int = 5000) -> None:
        super().__init__()
        _check_params("surrogate", n_b=n_b, m=m, epochs=epochs)
        self.m = m
        self.n_b = n_b
        self.oracle, self.net = _trained_net(n_b, m, epochs)

    def _discrete_losses(self, candidate) -> np.ndarray:
        return self.oracle.losses(np.asarray(candidate, dtype=np.float64))

    def relax(self, candidate) -> np.ndarray:
        return np.asarray(candidate, dtype=np.float64)

    def losses_and_gradients(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.net.losses_and_gradients(x)

    def neighborhood_discretize(self, x: np.ndarray, count: int, rng) -> list:
        if count < 1:
            raise ValueError("count must be positive")
        p = np.clip(x, 0.0, 1.0)
        out = [(p >= 0.5).astype(np.int64)]
        for _ in range(count - 1):
            out.append((rng.random(self.n_b) < p).astype(np.int64))
        return out

    def candidate_id(self, candidate) -> str:
        return "b:" + "".join(str(int(b)) for b in candidate)

    def random_candidate(self, rng) -> np.ndarray:
        return rng.integers(0, 2, self.n_b).astype(np.int64)


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def make_task(name: str, **params) -> TaskContract:
    """Build a task by name: synthetic, ngram-uni, ngram-bi, or surrogate.

    Recognized params, all integers: n >= 1 (synthetic); l_max >= 2
    (n-gram); n_b >= 2, m >= 1, epochs >= 0 (surrogate).

    Raises:
        ValueError: For an unknown task name, or a parameter the task does
            not take or that is not an integer or below its floor, naming it.
    """
    if name not in _TASK_PARAMS:
        raise ValueError(f"unknown task {name!r}; expected one of {TASK_NAMES}")
    unknown = sorted(set(params) - set(_TASK_PARAMS[name]))
    if unknown:
        raise ValueError(f"task {name!r} does not take parameter(s): {', '.join(unknown)}")
    if name == "synthetic":
        return SyntheticTask(**params)
    if name == "surrogate":
        return SurrogateTask(**params)
    mode = "unigram" if name == "ngram-uni" else "bigram"
    return NGramTask(mode=mode, **params)
