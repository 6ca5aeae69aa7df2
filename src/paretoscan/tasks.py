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

Each task computes its losses only through its own methods: the oracle
losses of a candidate through ``eval_discrete``, the relaxed losses and
gradients through ``losses_and_gradients`` at an (r, n) stack of vectors
``clamp`` made, each row's numbers independent of the rest of its stack.
A task's ``stack_key`` says which tasks of its class may share one call.

Every task parameter is an integer with a floor, which the task's own
constructor checks; the grid, the start box and the seeds are constants.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .net import DualPathNet
from .relax import Box, SimplexRows, TaskContract

__all__ = [
    "SyntheticTask",
    "NGramTask",
    "SurrogateTask",
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
def _centres(n: int) -> np.ndarray:
    """The read-only (2, n) rows -c and c of the well centre c = ones(n) / sqrt(n),
    built once per n."""
    c = np.full(n, 1.0 / math.sqrt(n))
    centres = np.stack((-c, c))
    centres.flags.writeable = False
    return centres


def _wells(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Losses 1 - exp(-||x -+ c||^2) of a point x, as (2,), or of each row
    of an (r, n) stack, as (r, 2), with the offsets x -+ c, as (2, n) or
    (r, 2, n), and the exponentials.

    One batched matmul gives every squared norm, equal to each offset's
    ``d @ d`` bit for bit; ``math.exp`` gives each exponential, because
    ``np.exp`` does not always round as it does.
    """
    D = X[..., None, :] + _centres(X.shape[-1])
    sq = np.matmul(D[..., None, :], D[..., None])
    E = np.array([math.exp(-s) for s in sq.ravel().tolist()])
    E.shape = D.shape[:-1]
    return 1.0 - E, D, E


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
        # _wells(x)[0], bit for bit, with no offsets or exponentials kept
        x = self._coords(candidate)
        D = x[..., None, :] + _centres(x.shape[-1])
        sq = np.matmul(D[..., None, :], D[..., None]).ravel().tolist()
        return np.array([1.0 - math.exp(-s) for s in sq]).reshape(D.shape[:-1])

    def relax(self, candidate) -> np.ndarray:
        return self._coords(candidate)

    def losses_and_gradients(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the gradients 2 (x -+ c) exp(-||x -+ c||^2), C-ordered (r, n, 2)
        losses, D, E = _wells(X)
        return losses, np.ascontiguousarray(np.swapaxes(2.0 * D * E[..., None], -1, -2))

    def _snap(self, params: np.ndarray) -> np.ndarray:
        idx = np.rint(params / _GRID_STEP).astype(np.int64)
        return np.minimum(np.maximum(idx, -_MAX_INDEX), _MAX_INDEX)

    def neighborhood_discretize(self, x: np.ndarray, count: int, rng) -> list:
        # one (count - 1, n) draw fills its rows in the order that count - 1
        # draws of n would, and leaves rng in the same state
        noise = rng.uniform(-_GRID_STEP, _GRID_STEP, (count - 1, self.n))
        return [self._snap(x), *self._snap(x + noise)]

    def candidate_id(self, candidate) -> str:
        return "x:" + ",".join(str(int(k)) for k in candidate)

    def random_candidate(self, rng) -> np.ndarray:
        return rng.integers(-_INIT_INDEX, _INIT_INDEX + 1, self.n).astype(np.int64)

    def true_front(self, samples: int) -> np.ndarray:
        """Loss images of the optimal segment x = t * c, t in [-1, 1].

        Along the segment the squared distances to the two centers are
        (t - 1)^2 and (t + 1)^2 regardless of dimension, so the front is
        dimension-free.
        """
        if samples < 1:
            raise ValueError("samples must be positive")
        t = np.linspace(-1.0, 1.0, samples)
        return np.stack(
            [1.0 - np.exp(-((t - 1.0) ** 2)), 1.0 - np.exp(-((t + 1.0) ** 2))], axis=1
        )


# ---------------------------------------------------------------------------
# N-gram string task
# ---------------------------------------------------------------------------

ALPHABET = "CVA"
_UNIGRAM_TARGETS = ("C", "V", "A")
_BIGRAM_TARGETS = ("CV", "VA", "AC")
_CHAR_INDEX = {ch: i for i, ch in enumerate(ALPHABET)}
#: The letter indices of each bigram target's first and second letter.
_BIGRAM_FIRST = [_CHAR_INDEX[a] for a, _ in _BIGRAM_TARGETS]
_BIGRAM_SECOND = [_CHAR_INDEX[b] for _, b in _BIGRAM_TARGETS]
#: The one-hot row of each byte (zero for a non-letter), and the letter of
#: each letter index as a byte translation.
_ONE_HOT = np.zeros((256, 3))
_ONE_HOT[np.frombuffer(ALPHABET.encode("ascii"), np.uint8), np.arange(3)] = 1.0
_LETTER_OF_INDEX = bytes.maketrans(bytes(range(3)), ALPHABET.encode("ascii"))


def _letters(sequence, l_max: int) -> str:
    """A length-l_max string or letter sequence as a string over the alphabet.

    Raises:
        ValueError: If it has another length or holds a non-letter.
    """
    if len(sequence) == l_max and not isinstance(sequence, str):
        sequence = "".join(ch if ch in _CHAR_INDEX else "?" for ch in sequence)
    # a string strips to nothing only when every character is a letter
    if not isinstance(sequence, str) or len(sequence) != l_max or sequence.strip(ALPHABET):
        raise ValueError(f"sequence must have length {l_max} over {ALPHABET!r}")
    return sequence


def _one_hot(sequence, l_max: int) -> np.ndarray:
    """The (l_max, 3) one-hot matrix of a length-l_max string or letter sequence."""
    codes = _letters(sequence, l_max).encode("ascii")
    return _ONE_HOT[np.frombuffer(codes, np.uint8)]


def _ngram_losses(P: np.ndarray, mode: str, l_max: int) -> np.ndarray:
    """Losses 1 - normalized target counts of a row-stochastic (l_max, 3)
    matrix, as (3,), or of each matrix of an (r, l_max, 3) stack, as (r, 3).

    Unigram mode counts each alphabet symbol (normalized by the length);
    bigram mode counts CV, VA, AC over adjacent pairs (normalized by the
    pair count).  The counts are expectations, exact for a one-hot string,
    with bigram expectations factorized across adjacent rows.  Each bigram
    count sums a contiguous run of l_max - 1 products, so a matrix's counts
    do not depend on the rest of its stack.
    """
    if mode == "unigram":
        return 1.0 - P.sum(axis=-2) / l_max
    Q = np.swapaxes(P, -1, -2)  # symbol, position
    products = Q[..., _BIGRAM_FIRST, :-1] * Q[..., _BIGRAM_SECOND, 1:]
    return 1.0 - products.sum(axis=-1) / (l_max - 1)


def _unigram_gradients(l_max: int) -> np.ndarray:
    """The unigram gradient matrix, which does not depend on P."""
    grads = np.zeros((l_max, 3, 3))  # position, symbol, objective
    for a, sym in enumerate(_UNIGRAM_TARGETS):
        grads[:, _CHAR_INDEX[sym], a] = -1.0 / l_max
    return grads.reshape(3 * l_max, 3)


def _bigram_gradients(P: np.ndarray, l_max: int) -> np.ndarray:
    """The (r, 3 l_max, 3) bigram gradient matrices at an (r, l_max, 3)
    stack of matrices already known to be valid."""
    grads = np.zeros((len(P), l_max, 3, 3))  # position, symbol, objective
    for k, (ia, ib) in enumerate(zip(_BIGRAM_FIRST, _BIGRAM_SECOND)):
        grads[:, :-1, ia, k] -= P[:, 1:, ib] / (l_max - 1)
        grads[:, 1:, ib, k] -= P[:, :-1, ia] / (l_max - 1)
    return grads.reshape(len(P), 3 * l_max, 3)


class NGramTask(TaskContract):
    """Fixed-length strings over {C, V, A} scored by n-gram counts.

    Its relaxed losses read the mode, which is its ``stack_key``, and the
    length, which the point size fixes.
    """

    m = 3
    default_eta = 0.2

    def __init__(self, mode: str = "unigram", l_max: int = 8) -> None:
        super().__init__()
        if mode not in ("unigram", "bigram"):
            raise ValueError(f"unknown n-gram mode {mode!r}")
        _check_params("ngram-uni", l_max=l_max)
        self.mode = mode
        self.l_max = l_max
        self.stack_key = mode
        # the oracle's targets and the number of slots that hold one
        if mode == "unigram":
            self._targets, self._slots = _UNIGRAM_TARGETS, l_max
        else:
            self._targets, self._slots = _BIGRAM_TARGETS, l_max - 1
        self.region = SimplexRows(l_max, 3)
        # the unigram gradient is the same at every point: build it once
        self._unigram_grads = _unigram_gradients(l_max) if mode == "unigram" else None
        if self._unigram_grads is not None:
            self._unigram_grads.flags.writeable = False

    def _discrete_losses(self, candidate) -> np.ndarray:
        # str.count gives the one-hot matrix's exact counts, since no target
        # overlaps itself, so these equal _ngram_losses' bit for bit
        text = _letters(candidate, self.l_max)
        return np.array([1.0 - text.count(t) / self._slots for t in self._targets])

    def relax(self, candidate) -> np.ndarray:
        return _one_hot(candidate, self.l_max).ravel()

    def losses_and_gradients(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        P = X.reshape(len(X), self.l_max, 3)
        losses = _ngram_losses(P, self.mode, self.l_max)
        if self._unigram_grads is not None:  # a writeable copy per row
            return losses, np.repeat(self._unigram_grads[None], len(X), axis=0)
        return losses, _bigram_gradients(P, self.l_max)

    def neighborhood_discretize(self, x: np.ndarray, count: int, rng) -> list:
        # the projected rows are non-negative; renormalise away their rounding
        rows = x.reshape(self.l_max, 3)
        rows = rows / rows.sum(axis=1, keepdims=True)
        # rng.choice(3, p=row) draws one rng.random() and returns the count of
        # the row's normalised cumulative sums at or below it; drawing all the
        # uniforms at once gives the same letters and leaves rng in the same
        # state.  The last sum normalises to 1 (or NaN), never at or below a draw.
        cdf = rows.cumsum(axis=1)
        cdf = cdf[:, :2] / cdf[:, 2:]
        u = rng.random((count - 1, self.l_max))
        index = np.empty((count, self.l_max), np.uint8)
        index[0] = rows.argmax(axis=1)
        np.add(cdf[:, 0] <= u, cdf[:, 1] <= u, out=index[1:], dtype=np.uint8)
        text = index.tobytes().translate(_LETTER_OF_INDEX).decode()
        return [text[i : i + self.l_max] for i in range(0, len(text), self.l_max)]

    def candidate_id(self, candidate) -> str:
        return str(candidate)

    def random_candidate(self, rng) -> str:
        return "".join(ALPHABET[int(i)] for i in rng.integers(0, 3, self.l_max))


# ---------------------------------------------------------------------------
# Surrogate bit-vector task
# ---------------------------------------------------------------------------

class _SigmoidOracle:
    """Hidden ground-truth properties O_i(x) = sigmoid(w_i . x + b_i).

    Property directions of norm 4 live in a fixed plane, spread evenly over
    120 degrees (so two heads conflict), and each bias centers the property
    at the half-on bit vector, so scores spread over a useful sigmoid range
    on {0, 1}^n.  Only ``_trained_net`` builds one, with the n_b >= 2 and
    m >= 1 that ``SurrogateTask`` checked.
    """

    def __init__(self, n_b: int, m: int) -> None:
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

    def scores(self, x) -> np.ndarray:
        """The m scores of a bit vector, or the (B, m) scores of a (B, n_b)
        stack of them from one product."""
        z = np.asarray(x, dtype=np.float64) @ self.w.T + self.b
        return 1.0 / (1.0 + np.exp(-z))

    def losses(self, x) -> np.ndarray:
        return 1.0 - self.scores(x)


#: The surrogate net: hidden units, oracle-labeled training rows, the gradient
#: scale of its first training step.
_NET_HIDDEN = 32
_TRAIN_SIZE = 1024
_TRAIN_RATE = 5e-2

@functools.lru_cache(maxsize=None)
def _trained_net(n_b: int, m: int, epochs: int) -> tuple[_SigmoidOracle, DualPathNet]:
    """The oracle and the net trained on rows it labels in one call, built
    once per setting."""
    oracle = _SigmoidOracle(n_b=n_b, m=m)
    rng = np.random.default_rng(_TRAIN_SEED)
    X = rng.integers(0, 2, size=(_TRAIN_SIZE, n_b)).astype(np.float64)
    Y = oracle.scores(X)
    net = DualPathNet(n_b, _NET_HIDDEN, m, seed=_TRAIN_SEED)
    net.train(X, Y, epochs=epochs, rate=_TRAIN_RATE)
    return oracle, net


class SurrogateTask(TaskContract):
    """Bit vectors scored by hidden sigmoid properties via a trained net.

    Discrete evaluations query the ground-truth oracle and count against the
    oracle budget.  The relaxation is the unit cube; its losses and
    gradients are the per-head cross-entropies (target 1) of the pretrained
    net, so the descent path never touches the oracle.  They read only the
    net, which is its ``stack_key`` and which tasks of equal settings
    share.  The net's 1024 oracle-labeled training rows are not
    counted as oracle calls.
    ``epochs`` caps the net's L-BFGS iterations: training stops earlier
    once the loss fell by at most 1e-5 of its value over 10 iterations (at
    n_b = 16, the m = 2 net after 133 iterations and the m = 4 net after
    150).
    """

    region = Box(0.0, 1.0)
    default_eta = 0.1

    def __init__(self, n_b: int = 16, m: int = 2, epochs: int = 5000) -> None:
        super().__init__()
        _check_params("surrogate", n_b=n_b, m=m, epochs=epochs)
        self.m = m
        self.n_b = n_b
        self.oracle, self.net = _trained_net(n_b, m, epochs)
        self.stack_key = self.net

    def _discrete_losses(self, candidate) -> np.ndarray:
        return self.oracle.losses(np.asarray(candidate, dtype=np.float64))

    def relax(self, candidate) -> np.ndarray:
        return np.asarray(candidate, dtype=np.float64)

    def losses_and_gradients(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.net.losses_and_gradients(X)

    def neighborhood_discretize(self, x: np.ndarray, count: int, rng) -> list:
        # one (count - 1, n_b) draw fills its rows in the order that count - 1
        # draws of n_b would, and leaves rng in the same state
        draws = (rng.random((count - 1, self.n_b)) < x).astype(np.int64)
        return [(x >= 0.5).astype(np.int64), *draws]

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
    (n-gram); n_b >= 2, m >= 1, epochs >= 0 (surrogate).  The surrogate's
    ``epochs`` is a cap on L-BFGS iterations: its net stops training
    earlier at a loss plateau (see ``DualPathNet.train``), at n_b = 16
    after 133 iterations for m = 2 and 150 for m = 4.

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
