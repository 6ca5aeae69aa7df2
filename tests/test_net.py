"""Two-layer surrogate net: head losses, gradients, training, checkpoints."""

import hashlib
import math

import numpy as np
import pytest

from paretoscan.net import DivergenceError, DualPathNet, FrozenNetError, _sigmoid, _Workspace
from paretoscan.tasks import make_task


def _loss(net, X, Y):
    """Training loss of ``net`` on (X, Y) from the trainer's own kernel."""
    return net._loss_and_grads(X, Y, _Workspace(net, X.shape[0]))


def _zeroed(n, h, m):
    net = DualPathNet(n, h, m, seed=0)
    net.w1[:] = 0.0
    net.w2[:] = 0.0
    return net


def _toy_data():
    rng = np.random.default_rng(12)
    X = rng.integers(0, 2, size=(32, 4)).astype(float)
    return X, np.stack([X[:, 0], 1.0 - X[:, 1]], axis=1)


def _toy_net(epochs, rate):
    net = DualPathNet(4, 8, 2, seed=5)
    net.train(*_toy_data(), epochs=epochs, rate=rate)
    return net


def test_zero_parameters_give_indifferent_heads():
    net = _zeroed(4, 3, 2)
    X = np.array([[1.0, -1.0, 0.5, 0.0], [0.0, 0.2, 1.0, 3.0]])
    losses, grads = net.losses_and_gradients(X)
    assert losses.ravel() == pytest.approx([math.log(2.0)] * 4)  # zero logits
    assert grads.shape == (2, 4, 2)
    assert np.all(grads == 0.0)


def test_single_unit_hand_computation():
    net = DualPathNet(1, 1, 1, seed=0)
    net.w1 = np.array([[2.0]])
    net.b1 = np.array([0.5])
    net.w2 = np.array([[1.5]])
    net.b2 = np.array([-0.3])
    h = math.tanh(2.0 * 0.4 + 0.5)
    z = 1.5 * h - 0.3
    losses, grads = net.losses_and_gradients(np.array([[0.4]]))
    # default target 1: -log sigmoid(z(x)) and its derivative in x
    assert losses[0, 0] == pytest.approx(math.log1p(math.exp(-z)), abs=1e-15)
    want = (1.0 / (1.0 + math.exp(-z)) - 1.0) * 1.5 * (1.0 - h * h) * 2.0
    assert grads[0, 0, 0] == pytest.approx(want, abs=1e-14)


def test_loss_kernel_matches_manual_cross_entropy():
    net = DualPathNet(2, 3, 2, seed=1)
    X = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    Y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    total = 0.0
    for x, y in zip(X, Y):
        z = net.w2 @ np.tanh(net.w1 @ x + net.b1) + net.b2
        p = 1.0 / (1.0 + np.exp(-z))
        total += float(np.sum(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
    assert _loss(net, X, Y) == pytest.approx(total / 3, abs=1e-10)


def test_loss_kernel_gradients_match_finite_differences():
    net = DualPathNet(3, 4, 2, seed=7)
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(6, 3))
    Y = rng.uniform(0, 1, size=(6, 2))
    work = _Workspace(net, X.shape[0])
    net._loss_and_grads(X, Y, work)
    grads = work.grads
    eps = 1e-6
    for param, grad in zip((net.w1, net.b1, net.w2, net.b2), grads):
        assert grad.shape == param.shape
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = param[idx]
            param[idx] = keep + eps
            up = _loss(net, X, Y)
            param[idx] = keep - eps
            dn = _loss(net, X, Y)
            param[idx] = keep
            assert grad[idx] == pytest.approx((up - dn) / (2 * eps), abs=1e-7)


def test_input_gradients_match_finite_differences():
    net = DualPathNet(5, 6, 3, seed=3)
    X = np.random.default_rng(4).uniform(0, 1, size=(4, 5))
    grads = net.losses_and_gradients(X)[1]  # every head targets 1: bce = softplus(-z)
    eps = 1e-6
    for i in range(5):
        up, dn = X.copy(), X.copy()
        up[:, i] += eps
        dn[:, i] -= eps
        fd = (net.losses_and_gradients(up)[0] - net.losses_and_gradients(dn)[0]) / (2 * eps)
        assert grads[:, i] == pytest.approx(fd, abs=1e-8)


def test_train_reduces_loss_and_freezes():
    X, Y = _toy_data()
    net = DualPathNet(4, 8, 2, seed=5)
    before = _loss(net, X, Y)
    assert net.train(X, Y, epochs=200, rate=0.5) is None
    assert _loss(net, X, Y) < before
    assert net.frozen
    with pytest.raises(FrozenNetError):
        net.train(X, Y, epochs=1)


def _parameter_digest(net):
    h = hashlib.sha256()
    for param in (net.w1, net.b1, net.w2, net.b2):
        h.update(param.tobytes())
    return h.hexdigest()


def test_trained_parameters_are_pinned():
    # sha256 of the bytes of (w1, b1, w2, b2) on OpenBLAS 0.3.31 (Haswell
    # kernels), one or two BLAS threads.  Both moved when training became
    # L-BFGS (heavy-ball before: m = 4 367933d2..., toy 6faca0c8...) and
    # its labels came from one oracle call: the m = 4 digest is that of the
    # net's first 150 iterations, the toy's of its first 108.
    surrogate = make_task("surrogate", m=4).net
    assert _parameter_digest(surrogate) == (
        "38f04829da5a998f4f9b4abd6189a01028c0ff5925b701568e7457e31e6f48c0"
    )
    assert _parameter_digest(_toy_net(200, 0.5)) == (
        "d7450587f1bb0c6436c8f2c7dde6735d968a19636c48ee46cee0f37ad35443d2"
    )


def test_a_net_that_stops_holds_the_parameters_of_its_capped_run():
    # stopping only truncates.  The m = 4 net stops at its loss plateau
    # before iteration 150; the toy's binary targets drive its loss to
    # about 3e-34 at rate 0.5, where no step of iteration 108 is accepted
    stopped = _parameter_digest(make_task("surrogate", m=4).net)
    assert stopped == _parameter_digest(make_task("surrogate", m=4, epochs=150).net)
    assert stopped != _parameter_digest(make_task("surrogate", m=4, epochs=149).net)
    stopped = _parameter_digest(_toy_net(1000, 0.5))
    assert stopped == _parameter_digest(_toy_net(108, 0.5))
    assert stopped != _parameter_digest(_toy_net(107, 0.5))


@pytest.mark.parametrize("rate", [0.5, 20.0])
def test_the_loss_never_rises_between_iterates(rate):
    # the net capped at k iterations holds iterate k; at rate 20 the first
    # step's tries halve until one lowers the loss enough
    X, Y = _toy_data()
    losses = [_loss(_toy_net(cap, rate), X, Y) for cap in range(0, 80)]
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-12 * losses[0]


def test_default_surrogate_net_scores_every_candidate_closely():
    # mean absolute score error of the m = 4 net over all 2**16 bit vectors:
    # 0.0121 with plain gradient steps, 0.0101 with heavy-ball momentum and
    # 0.00329 with L-BFGS; a faster trainer must not buy its speed with a
    # worse net
    task = make_task("surrogate", m=4)
    net = task.net
    bits = ((np.arange(2**16)[:, None] >> np.arange(16)) & 1).astype(np.float64)
    predicted = _sigmoid(np.tanh(bits @ net.w1.T + net.b1) @ net.w2.T + net.b2)
    losses = net.losses_and_gradients(bits[::4099])[0]  # the batch agrees with the net
    assert -np.log(predicted[::4099]) == pytest.approx(losses, rel=1e-12)
    assert np.abs(predicted - task.oracle.scores(bits)).mean() <= 0.0033


def _masked_sigmoid(z):
    # The boolean-mask formula the net used before `_sigmoid` shared exp(-|z|).
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bit_identical_to_the_masked_formula():
    edges = [0.0, 1e-300, 20.0, 709.0, 745.0, 1e308, np.inf]
    z = np.concatenate(
        [
            edges,
            np.negative(edges),
            [np.nan],
            30.0 * np.random.default_rng(0).standard_normal(100_000),
        ]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        old, new = _masked_sigmoid(z), _sigmoid(z)
    nan = np.isnan(old)
    assert nan.sum() == 1
    assert np.array_equal(np.isnan(new), nan)
    assert np.array_equal(old[~nan].view(np.uint64), new[~nan].view(np.uint64))


@pytest.mark.parametrize(
    "X, Y, name",
    [
        (np.ones((5, 3)), np.ones((5, 1)), "Y"),
        (np.ones((2, 3)), np.ones(2), "Y"),
        (np.ones((5, 3)), np.ones((4, 2)), "Y"),
        (np.ones((5, 2)), np.ones((5, 2)), "X"),
        (np.ones(3), np.ones((1, 2)), "X"),
        (np.ones((0, 3)), np.ones((0, 2)), "X"),
    ],
)
def test_batch_shapes_are_checked(X, Y, name):
    net = DualPathNet(3, 4, 2)
    with pytest.raises(ValueError, match=f"^{name} must"):
        net.train(X, Y, epochs=1)
    assert not net.frozen


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"epochs": -4}, "epochs"),
        ({"epochs": True}, "epochs"),
        ({"epochs": 2.0}, "epochs"),
        ({"epochs": 1, "rate": 0.0}, "rate"),
        ({"epochs": 1, "rate": -0.1}, "rate"),
        ({"epochs": 1, "rate": float("nan")}, "rate"),
        ({"epochs": 1, "rate": float("inf")}, "rate"),
        ({"epochs": 1, "rate": "0.1"}, "rate"),
    ],
)
def test_train_checks_epochs_and_rate(kwargs, name):
    net = DualPathNet(3, 4, 2)
    w1_before = net.w1.copy()
    with pytest.raises(ValueError, match=f"^{name} must"):
        net.train(np.ones((5, 3)), np.ones((5, 2)), **kwargs)
    assert not net.frozen
    assert np.array_equal(net.w1, w1_before)


def test_train_zero_epochs_freezes_without_stepping():
    net = DualPathNet(3, 3, 1, seed=2)
    w1_before = net.w1.copy()
    X = np.ones((4, 3))
    Y = np.ones((4, 1))
    net.train(X, Y, epochs=0)
    assert np.array_equal(net.w1, w1_before)
    assert net.frozen


def test_train_raises_on_non_finite_loss():
    # finite data, but a first step so large that none of its halvings
    # lowers the loss
    net = DualPathNet(2, 2, 1, seed=0)
    X = np.eye(2)
    Y = np.array([[0.0], [1.0]])
    with pytest.raises(DivergenceError, match="loss"), np.errstate(all="ignore"):
        net.train(X, Y, epochs=3, rate=1e308)
    assert not net.frozen


def test_train_raises_on_a_loss_that_overflows_at_finite_parameters():
    # each of the four rows' losses is about 1e308, so their sum is not finite
    net = DualPathNet(2, 2, 1, seed=0)
    net.b2[:] = 1e308
    with pytest.raises(DivergenceError, match="loss is non-finite"), np.errstate(all="ignore"):
        net.train(np.ones((4, 2)), np.zeros((4, 1)), epochs=1)
    assert not net.frozen


def test_train_raises_on_non_finite_parameters_after_the_last_step():
    # the loss before the only step is finite; the step overflows w1
    net = DualPathNet(2, 2, 1, seed=0)
    net.w1[:] = 0.0
    with pytest.raises(DivergenceError, match="parameter"), np.errstate(all="ignore"):
        net.train(np.full((1, 2), 1e3), np.zeros((1, 1)), epochs=1, rate=1e308)
    assert not net.frozen


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["X", "Y"])
def test_train_rejects_non_finite_data_even_without_epochs(name, bad):
    net = DualPathNet(2, 2, 1, seed=0)
    data = {"X": np.ones((2, 2)), "Y": np.ones((2, 1))}
    data[name][1, 0] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        net.train(data["X"], data["Y"], epochs=0)
    assert not net.frozen


def test_checkpoint_of_untrained_net_stays_mutable():
    net = DualPathNet(2, 2, 2, seed=1)
    assert not net.frozen
    net.train(np.ones((2, 2)), np.ones((2, 2)), epochs=1)  # does not raise


def test_layer_size_validation():
    with pytest.raises(ValueError):
        DualPathNet(0, 3, 2)
    with pytest.raises(ValueError):
        DualPathNet(3, 0, 2)
    with pytest.raises(ValueError):
        DualPathNet(3, 3, 0)
