"""Built-in task families: frozen values, lattice exactness, gradients."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretoscan import tasks
from paretoscan.net import _sigmoid
from paretoscan.relax import Box, InvalidRelaxationError, SimplexRows
from paretoscan.tasks import (
    ALPHABET,
    NGramTask,
    SigmoidOracle,
    SurrogateTask,
    SyntheticTask,
    make_task,
    ngram_losses,
    synthetic_losses,
    synthetic_losses_and_gradients,
    synthetic_true_front,
)


def _fd_columns(f, x, m, eps=1e-6):
    """Central-difference gradient columns of a vector function."""
    out = np.zeros((x.size, m))
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += eps
        dn[i] -= eps
        out[i] = (f(up) - f(dn)) / (2.0 * eps)
    return out


# ---------------------------------------------------------------------------
# synthetic
# ---------------------------------------------------------------------------


def test_synthetic_losses_at_origin():
    # ||0 -+ c||^2 = 1 exactly, so both losses are 1 - 1/e
    l = synthetic_losses(np.zeros(20))
    assert l == pytest.approx([1.0 - math.exp(-1.0)] * 2, abs=1e-12)
    assert l[0] == l[1]


def test_synthetic_losses_at_centers():
    n = 10
    c = np.full(n, 1.0 / math.sqrt(n))
    at_plus = synthetic_losses(c)
    assert at_plus[0] == pytest.approx(0.0, abs=1e-15)
    assert at_plus[1] == pytest.approx(1.0 - math.exp(-4.0), abs=1e-12)
    at_minus = synthetic_losses(-c)
    assert at_minus[0] == pytest.approx(1.0 - math.exp(-4.0), abs=1e-12)
    assert at_minus[1] == pytest.approx(0.0, abs=1e-15)


def test_synthetic_gradients_closed_form_at_origin():
    n = 5
    c = np.full(n, 1.0 / math.sqrt(n))
    G = synthetic_losses_and_gradients(np.zeros(n))[1]
    assert G.shape == (n, 2)
    assert G[:, 0] == pytest.approx(-2.0 * c * math.exp(-1.0))
    assert G[:, 1] == pytest.approx(2.0 * c * math.exp(-1.0))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**9))
def test_synthetic_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.4, 0.4, size=8)
    G = synthetic_losses_and_gradients(x)[1]
    fd = _fd_columns(synthetic_losses, x, 2)
    assert np.max(np.abs(G - fd)) < 1e-8


@pytest.mark.parametrize("n", [1, 5, 20])
def test_synthetic_gradients_equal_the_stacked_form_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for x in (rng.uniform(-2.0, 2.0, size=n), np.zeros(n)):
        c = np.full(n, 1.0 / math.sqrt(n))
        offsets = (x - c, x + c)
        factors = [math.exp(-float(d @ d)) for d in offsets]
        stacked = np.stack([2.0 * d * e for d, e in zip(offsets, factors)], axis=1)
        losses, G = synthetic_losses_and_gradients(x)
        assert G.flags.c_contiguous and G.tobytes() == stacked.tobytes()
        assert losses.tobytes() == np.array([1.0 - e for e in factors]).tobytes()
    # the well centre is built once per n and shared, so nothing may write it
    assert not tasks._centre(n).flags.writeable


def test_synthetic_true_front_endpoints():
    front = synthetic_true_front(201)
    edge = 1.0 - math.exp(-4.0)
    assert front[0] == pytest.approx([edge, 0.0], abs=1e-12)
    assert front[-1] == pytest.approx([0.0, edge], abs=1e-12)
    mid = front[100]
    assert mid[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert mid[0] == mid[1]
    with pytest.raises(ValueError):
        synthetic_true_front(0)


def test_synthetic_task_snap_and_bounds():
    task = SyntheticTask(n=3)
    x = task.relax(np.array([1, -2, 0], dtype=np.int64))
    assert task.region == Box(-2.0, 2.0)
    assert x.shape == (3,) and x.dtype == np.float64
    assert x == pytest.approx([0.01, -0.02, 0.0])
    snapped = task._snap(np.array([0.014, -5.0, 1.996]))
    assert snapped.tolist() == [1, -200, 200]
    assert snapped.dtype == np.int64


@pytest.mark.parametrize("grid_step", [0.01])
def test_synthetic_snap_equals_the_clip_form(grid_step):
    task = SyntheticTask(n=3)
    assert task.relax(np.ones(3, dtype=np.int64)).tolist() == [grid_step] * 3
    top = round(2.0 / grid_step)
    ks = np.array([0, 1, top - 1, top, top + 1, 1.5 * top, 2.0**40], dtype=np.float64)
    params = np.concatenate([ks, -ks]) * grid_step
    idx = np.rint(params / grid_step).astype(np.int64)
    snapped = task._snap(params)
    assert snapped.dtype == np.int64
    assert np.array_equal(snapped, np.clip(idx, -top, top))


def test_synthetic_task_neighborhood_first_is_deterministic():
    task = SyntheticTask(n=4)
    point = task.relax(np.array([3, 3, 3, 3], dtype=np.int64))
    batch = task.neighborhood_discretize(point, 6, np.random.default_rng(0))
    assert len(batch) == 6
    assert batch[0].tolist() == [3, 3, 3, 3]
    again = task.neighborhood_discretize(point, 6, np.random.default_rng(0))
    assert all(a.tolist() == b.tolist() for a, b in zip(batch, again))
    with pytest.raises(ValueError):
        task.neighborhood_discretize(point, 0, np.random.default_rng(0))


def test_synthetic_task_initial_draw_stays_in_sub_box():
    task = SyntheticTask(n=12)
    for seed in range(5):
        k = task.random_candidate(np.random.default_rng(seed))
        assert np.max(np.abs(k)) <= 50
        losses = task.eval_discrete(k)
        assert np.all(losses < 1.0)  # inside the informative region


def test_synthetic_task_oracle_accounting_and_ids():
    task = SyntheticTask(n=3)
    task.eval_discrete(np.array([1, 2, 3], dtype=np.int64))
    assert task.oracle_calls == 2
    assert task.candidate_id(np.array([1, -2, 0])) == "x:1,-2,0"


def test_synthetic_task_validation():
    with pytest.raises(ValueError):
        SyntheticTask(n=0)


# ---------------------------------------------------------------------------
# n-gram
# ---------------------------------------------------------------------------


def test_ngram_unigram_counts():
    assert ngram_losses("CVCVCVCV", "unigram") == pytest.approx([0.5, 0.5, 1.0])
    assert ngram_losses("AAAAAAAA", "unigram") == pytest.approx([1.0, 1.0, 0.0])


def test_ngram_bigram_counts():
    # pairs of CVACVACV: CV VA AC CV VA AC CV -> counts (3, 2, 2) over 7
    assert ngram_losses("CVACVACV", "bigram") == pytest.approx(
        [1 - 3 / 7, 1 - 2 / 7, 1 - 2 / 7]
    )
    assert ngram_losses("AAAAAAAA", "bigram") == pytest.approx([1.0, 1.0, 1.0])


@settings(deadline=None, max_examples=100)
@given(st.text(alphabet=ALPHABET, min_size=8, max_size=8))
def test_ngram_unigram_losses_sum_is_conserved(s):
    # the three symbol counts always total l_max: sum of losses == 2 exactly
    assert float(ngram_losses(s, "unigram").sum()) == pytest.approx(2.0, abs=1e-12)


@settings(deadline=None, max_examples=100)
@given(st.text(alphabet=ALPHABET, min_size=6, max_size=6), st.sampled_from(["unigram", "bigram"]))
def test_ngram_relaxation_is_lattice_exact(s, mode):
    # one-hot relaxation of a string reproduces the discrete losses exactly
    task = NGramTask(mode=mode, l_max=6)
    x = task.relax(s)
    assert task.region == SimplexRows(6, 3)
    assert x.shape == (18,) and x.dtype == np.float64
    assert task.losses_and_gradients(x)[0] == pytest.approx(
        ngram_losses(s, mode, 6), abs=1e-15
    )


def test_ngram_input_validation():
    with pytest.raises(ValueError):
        ngram_losses("CVX", "unigram", l_max=3)
    with pytest.raises(ValueError):
        ngram_losses("CV", "unigram", l_max=3)
    with pytest.raises(InvalidRelaxationError):
        ngram_losses(np.full((3, 3), 0.5), "unigram", l_max=3)
    with pytest.raises(ValueError):
        ngram_losses("CVA", "trigram", l_max=3)
    with pytest.raises(ValueError):
        NGramTask(mode="trigram")
    with pytest.raises(ValueError):
        NGramTask(l_max=1)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**9), st.sampled_from(["unigram", "bigram"]))
def test_ngram_gradients_match_finite_differences(seed, mode):
    rng = np.random.default_rng(seed)
    l_max = 5
    P = rng.dirichlet(np.ones(3), size=l_max)

    def raw_losses(flat):
        # recompute the expectations directly, without simplex validation,
        # so off-simplex finite-difference probes stay well-defined
        Q = flat.reshape(l_max, 3)
        if mode == "unigram":
            return 1.0 - Q.sum(axis=0) / l_max
        pairs = [(0, 1), (1, 2), (2, 0)]
        counts = np.array(
            [float(np.sum(Q[:-1, a] * Q[1:, b])) for a, b in pairs]
        )
        return 1.0 - counts / (l_max - 1)

    G = NGramTask(mode, l_max).losses_and_gradients(P.ravel())[1]
    assert G.shape == (3 * l_max, 3)
    fd = _fd_columns(raw_losses, P.ravel(), 3)
    assert np.max(np.abs(G - fd)) < 1e-9


def test_ngram_bigram_relaxed_losses_are_sampling_expectations():
    # independent oracle for the factorized expectation: sample strings
    # position-wise from the relaxed rows and average their discrete losses
    rng = np.random.default_rng(5)
    P = rng.dirichlet(np.ones(3), size=5)
    rel = ngram_losses(P, "bigram", l_max=5)
    draws = 20000
    acc = np.zeros(3)
    for _ in range(draws):
        s = "".join(ALPHABET[rng.choice(3, p=P[t])] for t in range(5))
        acc += ngram_losses(s, "bigram", l_max=5)
    assert np.max(np.abs(rel - acc / draws)) < 0.005


def test_ngram_task_neighborhood_argmax_first():
    task = NGramTask(mode="unigram", l_max=4)
    P = np.array(
        [
            [0.6, 0.3, 0.1],
            [0.1, 0.8, 0.1],
            [0.2, 0.2, 0.6],
            [0.9, 0.05, 0.05],
        ]
    )
    batch = task.neighborhood_discretize(P.ravel(), 5, np.random.default_rng(0))
    assert batch[0] == "CVAC"
    assert all(len(s) == 4 and set(s) <= set(ALPHABET) for s in batch)


def _choice_per_position(rows, count, rng):
    """The neighbourhood draw as one ``rng.choice`` per position."""
    rows = np.clip(rows, 0.0, None)
    rows = rows / rows.sum(axis=1, keepdims=True)
    out = ["".join(ALPHABET[int(i)] for i in np.argmax(rows, axis=1))]
    for _ in range(count - 1):
        out.append("".join(ALPHABET[int(rng.choice(3, p=row))] for row in rows))
    return out


def test_ngram_neighborhood_draws_equal_per_position_choice():
    # one vectorised uniform draw must give rng.choice's letters and leave the
    # generator where the per-position loop leaves it; a numpy change that
    # breaks this would otherwise move the n-gram goldens silently
    gen = np.random.default_rng(2024)
    for case in range(2000):
        l_max = int(gen.integers(2, 10))
        rows = gen.random((l_max, 3)) ** gen.uniform(0.2, 6.0)
        kind = gen.random(l_max)
        rows[kind < 0.2] = np.eye(3)[gen.integers(0, 3, int(np.sum(kind < 0.2)))]
        rows[(kind >= 0.2) & (kind < 0.3), gen.integers(0, 3)] = 0.0
        if case % 3 == 0:  # rows as the descent leaves them: projected, with zeros
            rows = SimplexRows(l_max, 3).project(gen.normal(size=3 * l_max)).reshape(l_max, 3)
        else:
            rows /= rows.sum(axis=1, keepdims=True)
        count = int(gen.integers(1, 12))
        vectorised, looped = np.random.default_rng(case), np.random.default_rng(case)
        task = NGramTask(l_max=l_max)
        got = task.neighborhood_discretize(rows.ravel(), count, vectorised)
        assert got == _choice_per_position(rows, count, looped), case
        assert vectorised.bit_generator.state == looped.bit_generator.state, case


def test_ngram_task_ids_and_random_candidates():
    task = NGramTask(mode="bigram", l_max=8)
    s = task.random_candidate(np.random.default_rng(11))
    assert len(s) == 8 and set(s) <= set(ALPHABET)
    assert task.candidate_id(s) == s
    assert task.random_candidate(np.random.default_rng(11)) == s


# ---------------------------------------------------------------------------
# surrogate
# ---------------------------------------------------------------------------


def test_sigmoid_oracle_geometry():
    oracle = SigmoidOracle(n_b=8, m=2)
    w0, w1 = oracle.w
    assert np.linalg.norm(w0) == pytest.approx(4.0)
    assert np.linalg.norm(w1) == pytest.approx(4.0)
    cos = (w0 @ w1) / (np.linalg.norm(w0) * np.linalg.norm(w1))
    assert cos == pytest.approx(-0.5, abs=1e-12)  # 120 degrees apart
    # bias centers every head at the half-on vector
    assert oracle.scores(np.full(8, 0.5)) == pytest.approx([0.5, 0.5], abs=1e-12)


@pytest.fixture(scope="module")
def small_surrogate():
    return SurrogateTask(n_b=8, m=2, epochs=400)


def test_surrogate_discrete_eval_is_the_oracle(small_surrogate):
    task = small_surrogate
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0])
    before = task.oracle_calls
    losses = task.eval_discrete(bits)
    assert task.oracle_calls == before + 2
    assert losses == pytest.approx(task.oracle.losses(bits))


def test_surrogate_relaxed_losses_are_head_cross_entropies(small_surrogate):
    task = small_surrogate
    x = task.relax(np.array([1, 0, 1, 0, 1, 0, 1, 0]))
    assert task.region == Box(0.0, 1.0)
    assert x.shape == (8,) and x.dtype == np.float64
    rel = task.losses_and_gradients(x)[0]
    net = task.net
    z = net.w2 @ np.tanh(net.w1 @ x + net.b1) + net.b2
    assert rel == pytest.approx(-np.log(_sigmoid(z)), abs=1e-9)
    assert np.all(rel >= 0.0)


def test_surrogate_gradients_match_finite_differences(small_surrogate):
    task = small_surrogate
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(0.2, 0.8, size=8)
        G = task.losses_and_gradients(x)[1]
        fd = _fd_columns(lambda v: task.net.losses_and_gradients(v)[0], x, 2)
        assert np.max(np.abs(G - fd)) < 1e-7


def test_surrogate_descent_consumes_no_oracle_budget(small_surrogate):
    task = small_surrogate
    before = task.oracle_calls
    task.losses_and_gradients(task.relax(np.array([1, 1, 0, 0, 1, 1, 0, 0])))
    assert task.oracle_calls == before


def test_surrogate_neighborhood_threshold_first(small_surrogate):
    task = small_surrogate
    x = np.array([0.9, 0.2, 0.51, 0.49, 0.5, 0.1, 0.8, 0.3])
    batch = task.neighborhood_discretize(x, 4, np.random.default_rng(0))
    assert batch[0].tolist() == [1, 0, 1, 0, 1, 0, 1, 0]
    assert all(set(b.tolist()) <= {0, 1} for b in batch)
    assert task.candidate_id(batch[0]) == "b:10101010"


def test_surrogate_net_cache_reuses_training():
    a = SurrogateTask(n_b=8, m=2, epochs=400)
    b = SurrogateTask(n_b=8, m=2, epochs=400)
    assert a.net is b.net and a.oracle is b.oracle
    c = SurrogateTask(n_b=8, m=2, epochs=401)
    assert c.net is not a.net


# ---------------------------------------------------------------------------
# one task call per round: the numbers of the public functions, bit for bit
# ---------------------------------------------------------------------------


def _clamped_points(task, rng, count=25):
    """Seeded points as the inner loop meets them: a relaxed draw, moved, clamped."""
    start = task.relax(task.random_candidate(rng))
    return [task.clamp(start + rng.normal(0.0, 0.5, start.size)) for _ in range(count)]


@pytest.mark.parametrize("name", ["synthetic", "ngram-uni", "ngram-bi"])
def test_closed_form_losses_and_gradients_equal_the_public_functions(name):
    task = make_task(name)
    for x in _clamped_points(task, np.random.default_rng(31)):
        losses, grads = task.losses_and_gradients(x)
        if name == "synthetic":
            assert np.array_equal(losses, synthetic_losses(x))
            want = synthetic_losses_and_gradients(x)
            assert np.array_equal(losses, want[0])
            assert np.array_equal(grads, want[1])
        else:
            P = x.reshape(task.l_max, 3)
            assert np.array_equal(losses, ngram_losses(P, task.mode, task.l_max))
        if name == "ngram-uni":  # the constant unigram gradient is shared
            assert not grads.flags.writeable


def _two_forward_passes(net, x):
    """Head losses from a batched forward pass and input gradients from a
    matrix-vector one, the way the net computed them in two separate calls."""
    H = np.tanh(x[None, :] @ net.w1.T + net.b1)
    z = (H @ net.w2.T + net.b2)[0]
    h = np.tanh(net.w1 @ x + net.b1)
    yhat = _sigmoid(net.w2 @ h + net.b2)
    back = (net.w2 * (1.0 - h * h)) @ net.w1
    return np.logaddexp(0.0, -z), ((yhat - 1.0)[:, None] * back).T


@pytest.mark.parametrize("m", [2, 4])
def test_surrogate_losses_and_gradients_equal_two_forward_passes(m):
    task = make_task("surrogate", m=m)
    for x in _clamped_points(task, np.random.default_rng(32)):
        losses, grads = task.losses_and_gradients(x)
        want = _two_forward_passes(task.net, x)
        assert np.array_equal(losses, want[0])
        assert np.array_equal(grads, want[1])


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------


def test_make_task_dispatch():
    assert isinstance(make_task("synthetic", n=5), SyntheticTask)
    uni = make_task("ngram-uni")
    bi = make_task("ngram-bi", l_max=6)
    assert isinstance(uni, NGramTask) and uni.mode == "unigram"
    assert bi.mode == "bigram" and bi.l_max == 6
    sur = make_task("surrogate", n_b=8, m=2, epochs=100)
    assert isinstance(sur, SurrogateTask)
    with pytest.raises(ValueError):
        make_task("quantum")
    with pytest.raises(ValueError, match="does not take parameter.*bogus"):
        make_task("synthetic", n=5, bogus=1)


@pytest.mark.parametrize(
    "name, param, value",
    [
        ("synthetic", "grid_step", 0.01),
        ("synthetic", "init_bound", 0.5),
        ("surrogate", "oracle_seed", 7),
        ("surrogate", "train_seed", 101),
    ],
)
def test_make_task_rejects_the_fixed_constants(name, param, value):
    # the grid, the start box and the seeds are constants, even at their values
    with pytest.raises(ValueError, match=f"does not take parameter\\(s\\): {param}$"):
        make_task(name, **{param: value})


@pytest.mark.parametrize(
    "cls, params, message",
    [
        (SyntheticTask, {"n": 0}, "n must be >= 1, got 0"),
        (SyntheticTask, {"n": 2.0}, "n must be int, got 2.0"),
        (NGramTask, {"l_max": 1}, "l_max must be >= 2, got 1"),
        # one bit leaves the oracle no second direction to span its plane
        (SurrogateTask, {"n_b": 1, "m": 2, "epochs": 0}, "n_b must be >= 2, got 1"),
        (SurrogateTask, {"m": 0}, "m must be >= 1, got 0"),
        (SurrogateTask, {"epochs": -1}, "epochs must be >= 0, got -1"),
    ],
    ids=["n=0", "n=2.0", "l_max=1", "n_b=1", "m=0", "epochs=-1"],
)
def test_task_constructors_check_their_parameters(cls, params, message):
    # the same text the CLI reports after "config error: task: "
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**params)


def test_default_eta_table():
    assert make_task("synthetic").default_eta == 0.05
    assert make_task("ngram-uni").default_eta == 0.2
    assert make_task("ngram-bi").default_eta == 0.2
    assert make_task("surrogate", n_b=8, m=2, epochs=100).default_eta == 0.1
