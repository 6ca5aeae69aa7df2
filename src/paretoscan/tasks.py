"""Built-in discrete multi-objective tasks.

Three task families exercise the relax-descend-discretize loop:

* ``SyntheticTask`` -- two Gaussian-well losses over a fine grid in a box,
  with a closed-form Pareto front (the segment between the two well centers)
  for ground-truth comparisons.
* ``NGramTask`` -- fixed-length strings over the alphabet {C, V, A}, scored
  by symbol counts (unigram mode, conflicting: the counts compete for the
  same positions) or by adjacent-pair counts of CV, VA, AC (bigram mode,
  correlated: a cyclic string feeds all three).  The relaxation is a
  row-stochastic position-wise distribution matrix; bigram counts factorize
  across adjacent positions.
* ``SurrogateTask`` -- bit vectors scored by hidden monotone-sigmoid
  properties.  Discrete evaluation always queries the ground-truth oracle,
  while gradients come from a small net pretrained on oracle-labeled
  samples, so descent consumes no oracle budget.
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
    "ngram_gradients",
    "make_task",
    "TASK_NAMES",
]

_POSITIVE = (int, lambda v: v >= 1, ">= 1")
_NON_NEGATIVE = (int, lambda v: v >= 0, ">= 0")
_L_MAX = (int, lambda v: v >= 2, ">= 2")

#: Half-width of the synthetic task's box [-2, 2]^n.
_SYNTHETIC_BOUND = 2.0

#: Parameters each task accepts through :func:`make_task`: type, range check
#: and the range in words.  The synthetic grid spans [-2, 2], so 2 / grid_step
#: must fit an int64 grid index.
_TASK_PARAMS = {
    "synthetic": {
        "n": _POSITIVE,
        "grid_step": (
            float,
            lambda v: 2.0**-62 < v < math.inf,  # 2 / v < 2**63
            "finite and > 0 with 2 / grid_step within int64",
        ),
        "init_bound": (float, lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    },
    "ngram-uni": {"l_max": _L_MAX},
    "ngram-bi": {"l_max": _L_MAX},
    "surrogate": {
        "n_b": _POSITIVE,
        "m": _POSITIVE,
        "oracle_seed": _NON_NEGATIVE,
        "train_seed": _NON_NEGATIVE,
        "epochs": _NON_NEGATIVE,
    },
}

TASK_NAMES = tuple(_TASK_PARAMS)


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

    Candidates are integer index vectors k with coordinates k * grid_step.
    Initial draws come from a sub-box around the origin: far from the
    centers both exponentials vanish and gradients carry no signal, so
    starting in the dead zone would stall the descent immediately.
    """

    m = 2
    region = Box(-_SYNTHETIC_BOUND, _SYNTHETIC_BOUND)
    default_eta = 0.05

    def __init__(self, n: int = 20, grid_step: float = 0.01, init_bound: float = 0.5) -> None:
        super().__init__()
        if n < 1:
            raise ValueError("n must be positive")
        if grid_step <= 0:
            raise ValueError("grid_step must be positive")
        self.n = n
        self.grid_step = float(grid_step)
        self.init_bound = float(min(init_bound, _SYNTHETIC_BOUND))
        self._max_index = int(round(_SYNTHETIC_BOUND / self.grid_step))

    def _coords(self, candidate: np.ndarray) -> np.ndarray:
        return np.asarray(candidate, dtype=np.float64) * self.grid_step

    def _discrete_losses(self, candidate) -> np.ndarray:
        return synthetic_losses(self._coords(candidate))

    def relax(self, candidate) -> np.ndarray:
        return self._coords(candidate)

    def losses_and_gradients(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return synthetic_losses_and_gradients(x)

    def _snap(self, params: np.ndarray) -> np.ndarray:
        idx = np.rint(params / self.grid_step).astype(np.int64)
        return np.minimum(np.maximum(idx, -self._max_index), self._max_index)

    def neighborhood_discretize(self, x: np.ndarray, count: int, rng) -> list:
        if count < 1:
            raise ValueError("count must be positive")
        out = [self._snap(x)]
        for _ in range(count - 1):
            noise = rng.uniform(-self.grid_step, self.grid_step, self.n)
            out.append(self._snap(x + noise))
        return out

    def candidate_id(self, candidate) -> str:
        return "x:" + ",".join(str(int(k)) for k in candidate)

    def random_candidate(self, rng) -> np.ndarray:
        lim = int(round(self.init_bound / self.grid_step))
        return rng.integers(-lim, lim + 1, self.n).astype(np.int64)

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


def ngram_gradients(P, mode: str = "unigram", l_max: int = 8) -> np.ndarray:
    """(3 * l_max, 3) gradient matrix of :func:`ngram_losses` w.r.t. flat P."""
    P = _as_matrix(P, l_max)
    if mode == "unigram":
        return _unigram_gradients(l_max)
    if mode == "bigram":
        return _bigram_gradients(P, l_max)
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
        if l_max < 2:
            raise ValueError("l_max must be at least 2")
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

#: Published seed for the default ground-truth oracle family.
DEFAULT_ORACLE_SEED = 7


class SigmoidOracle:
    """Hidden ground-truth properties O_i(x) = sigmoid(w_i . x + b_i).

    Property directions of norm 4 live in a fixed plane, spread evenly over
    120 degrees (so two heads conflict), and each bias centers the property
    at the half-on bit vector, so scores spread over a useful sigmoid range
    on {0, 1}^n.
    """

    def __init__(self, n_b: int = 16, m: int = 2, seed: int = DEFAULT_ORACLE_SEED) -> None:
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(n_b)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(n_b)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        if m == 1:
            angles = np.array([0.0])
        else:
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
def _trained_net(n_b: int, m: int, oracle_seed: int, train_seed: int, epochs: int) -> DualPathNet:
    """The net trained on oracle-labelled rows, built once per setting."""
    oracle = SigmoidOracle(n_b=n_b, m=m, seed=oracle_seed)
    rng = np.random.default_rng(train_seed)
    X = rng.integers(0, 2, size=(_TRAIN_SIZE, n_b)).astype(np.float64)
    Y = np.stack([oracle.scores(x) for x in X])
    net = DualPathNet(n_b, _NET_HIDDEN, m, seed=train_seed)
    net.train(X, Y, epochs=epochs, rate=_TRAIN_RATE)
    return net


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

    def __init__(
        self,
        n_b: int = 16,
        m: int = 2,
        oracle_seed: int = DEFAULT_ORACLE_SEED,
        train_seed: int = 101,
        epochs: int = 5000,
    ) -> None:
        super().__init__()
        self.m = m
        self.n_b = n_b
        self.oracle = SigmoidOracle(n_b=n_b, m=m, seed=oracle_seed)
        self.net = _trained_net(n_b, m, oracle_seed, train_seed, epochs)

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

    Recognized params: n, grid_step, init_bound (synthetic); l_max (n-gram);
    n_b, m, oracle_seed, train_seed, epochs (surrogate).

    Raises:
        ValueError: For an unknown task name, or a parameter the task does
            not take or whose value has the wrong type or is out of range,
            naming it.
    """
    if name not in _TASK_PARAMS:
        raise ValueError(f"unknown task {name!r}; expected one of {TASK_NAMES}")
    allowed = _TASK_PARAMS[name]
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(f"task {name!r} does not take parameter(s): {', '.join(unknown)}")
    for key, value in params.items():
        kind, in_range, rule = allowed[key]
        number = numbers.Real if kind is float else numbers.Integral
        if isinstance(value, bool) or not isinstance(value, number):
            raise ValueError(f"{key} must be {kind.__name__}, got {value!r}")
        if not in_range(value):
            raise ValueError(f"{key} must be {rule}, got {value!r}")
    if name == "synthetic":
        return SyntheticTask(**params)
    if name == "surrogate":
        return SurrogateTask(**params)
    mode = "unigram" if name == "ngram-uni" else "bigram"
    return NGramTask(mode=mode, **params)
