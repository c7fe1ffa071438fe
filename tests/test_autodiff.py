"""Tape correctness: forward values, finite-difference agreement, broadcasting,
graph traversal, and the Adam update."""
import math

import numpy as np
import pytest

import wsganlab.autodiff as ad
from wsganlab.autodiff import (
    Adam,
    AutodiffError,
    NonFiniteGraphError,
    Tensor,
    backward,
    check_gradients_params,
)

RNG = np.random.default_rng(42)


def rand(*shape):
    return RNG.standard_normal(shape)


def test_forward_values_elementwise():
    a = Tensor(np.array([1.0, -2.0, 3.0]))
    b = Tensor(np.array([0.5, 0.5, -1.0]))
    assert np.allclose(ad.add(a, b).data, [1.5, -1.5, 2.0])
    assert np.allclose(ad.sub(a, b).data, [0.5, -2.5, 4.0])
    assert np.allclose(ad.mul(a, b).data, [0.5, -1.0, -3.0])
    assert np.allclose(ad.scale(a, -2.0).data, [-2.0, 4.0, -6.0])
    assert np.allclose(ad.relu(a).data, [1.0, 0.0, 3.0])
    assert np.allclose(ad.tanh(a).data, np.tanh(a.data))
    assert np.allclose(ad.sigmoid(a).data, 1.0 / (1.0 + np.exp(-a.data)))


def test_softmax_rows_sum_to_one_and_shift_invariance():
    x = rand(5, 4)
    p = ad.softmax(Tensor(x)).data
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.allclose(p, ad.softmax(Tensor(x + 1000.0)).data)
    assert np.allclose(np.exp(ad.log_softmax(Tensor(x)).data), p)


@pytest.mark.parametrize(
    "fn",
    [
        lambda t: ad.mean(ad.sigmoid(t)),
        lambda t: ad.mean(ad.tanh(t)),
        lambda t: ad.total(ad.exp(ad.scale(t, 0.3))),
        lambda t: ad.mean(ad.log(ad.add(ad.mul(t, t), 1.5))),
        lambda t: ad.total(ad.mul(ad.softmax(t), np.arange(12.0).reshape(4, 3))),
        lambda t: ad.mean(ad.log_softmax(t)),
        lambda t: ad.mean(ad.mul(t, ad.sigmoid(t))),
    ],
)
def test_elementwise_gradients_match_finite_differences(fn):
    t = Tensor(rand(4, 3), requires_grad=True)
    report = check_gradients_params(lambda: fn(t), [t])
    assert report.ok(1e-6), report.max_rel_error


def test_relu_gradient_away_from_kink():
    point = rand(4, 3)
    point[np.abs(point) < 0.05] = 0.5  # keep clear of the nondifferentiable point
    t = Tensor(point, requires_grad=True)
    report = check_gradients_params(lambda: ad.mean(ad.relu(t)), [t])
    assert report.ok(1e-6)


def test_matmul_and_affine_gradients():
    x = rand(4, 3)
    w = Tensor(rand(3, 5), requires_grad=True)
    b = Tensor(rand(5), requires_grad=True)
    t = Tensor(x, requires_grad=True)
    report = check_gradients_params(lambda: ad.total(ad.matmul(t, w)), [t])
    assert report.ok(1e-6)
    report = check_gradients_params(lambda: ad.mean(ad.affine(Tensor(x), w, b)), [w, b])
    assert report.ok(1e-6)


def test_affine_bias_gradient_sums_over_rows():
    x = Tensor(rand(6, 2))
    w = Tensor(rand(2, 3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    gw, gb = backward(ad.total(ad.affine(x, w, b)), [w, b])
    assert np.allclose(gb, np.full(3, 6.0))
    assert np.allclose(gw, x.data.T @ np.ones((6, 3)))


def test_broadcast_unbroadcast_roundtrip():
    # (n, m) * (m,) must reduce the (m,) gradient by summing over rows
    a = Tensor(rand(5, 3), requires_grad=True)
    v = Tensor(rand(3), requires_grad=True)
    ga, gv = backward(ad.total(ad.mul(a, v)), [a, v])
    assert gv.shape == (3,)
    assert np.allclose(gv, a.data.sum(axis=0))
    assert np.allclose(ga, np.broadcast_to(v.data, (5, 3)))


def test_scalar_minus_tensor_broadcast():
    a = Tensor(rand(4, 2), requires_grad=True)
    (ga,) = backward(ad.total(ad.sub(1.0, a)), [a])
    assert np.allclose(ga, -np.ones((4, 2)))


def test_clip_gradient_is_indicator_with_inclusive_bounds():
    x = Tensor(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), requires_grad=True)
    (gx,) = backward(ad.total(ad.clip(x, -1.0, 1.0)), [x])
    # values exactly at a bound still pass gradient through
    assert np.allclose(gx, [0.0, 1.0, 1.0, 1.0, 0.0])


def test_concat_splits_gradient():
    a = Tensor(rand(3, 2), requires_grad=True)
    b = Tensor(rand(3, 4), requires_grad=True)
    out = ad.concat([a, b], axis=1)
    ga, gb = backward(ad.total(ad.mul(out, out)), [a, b])
    assert ga.shape == (3, 2) and gb.shape == (3, 4)
    assert np.allclose(ga, 2 * a.data)
    assert np.allclose(gb, 2 * b.data)


@pytest.mark.parametrize("axis", [0, -1])
def test_concat_mixed_constant_gets_no_edge(axis):
    a = Tensor(rand(3, 2), requires_grad=True)
    c = rand(3, 2)  # a plain array among tracked inputs
    b = Tensor(rand(3, 2), requires_grad=True)
    out = ad.concat([a, c, b], axis=axis)
    assert [t for t, _vjp in out._edges] == [a, b]
    weights = rand(*out.shape)
    ga, gb = backward(ad.total(ad.mul(out, weights)), [a, b])
    parts = np.split(weights, 3, axis=axis)
    assert np.array_equal(ga, parts[0])
    assert np.array_equal(gb, parts[2])


def test_linear_map_broadcast_forward_gradient():
    # shared (m,) weights broadcast against an (n, m) mask: the adjoint returns
    # (n, m), which the engine must sum back to (m,)
    mask = RNG.random((5, 3)) < 0.6
    targets = rand(5, 3)

    def fn(w):
        y = ad.linear_map(w, lambda wd: wd * mask, lambda g: g * mask)
        return ad.total(ad.mul(ad.tanh(y), targets))

    w = Tensor(rand(3), requires_grad=True)
    report = check_gradients_params(lambda: fn(w), [w])
    assert report.analytic.shape == (3,)
    assert report.ok(1e-6), report.max_rel_error


def test_softmax_cross_entropy_composite_gradient():
    targets = np.eye(4)[[0, 2, 1, 3, 0]]

    def loss(t):
        p = ad.clip(ad.softmax(t), 1e-7, 1 - 1e-7)
        return ad.scale(ad.total(ad.mul(ad.log(p), targets)), -1.0 / 5)

    t = Tensor(rand(5, 4), requires_grad=True)
    report = check_gradients_params(lambda: loss(t), [t])
    assert report.ok(1e-6)


def test_reused_node_accumulates_gradient_once_per_path():
    # diamond: y = x*x + x  ->  dy/dx = 2x + 1
    x = Tensor(np.array([3.0]), requires_grad=True)
    (gx,) = backward(ad.total(ad.add(ad.mul(x, x), x)), [x])
    assert np.allclose(gx, [7.0])


def test_deep_chain_no_recursion_limit():
    x = Tensor(np.array([0.5]), requires_grad=True)
    out = x
    for _ in range(3000):
        out = ad.scale(out, 1.0001)
    (gx,) = backward(ad.total(out), [x])
    assert math.isfinite(float(gx[0]))
    assert np.isclose(gx[0], 1.0001**3000)


def test_detach_blocks_gradient():
    x = Tensor(rand(3, 2), requires_grad=True)
    y = ad.total(ad.mul(ad.detach(ad.mul(x, x)), x))
    (gx,) = backward(y, [x])
    assert np.allclose(gx, x.data * x.data)  # only the undetached factor


def test_no_grad_builds_no_graph():
    x = Tensor(rand(2, 2), requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert y._edges == ()
    (gx,) = backward(ad.total(y), [x])  # nothing reaches x through the severed graph
    assert np.array_equal(gx, np.zeros((2, 2)))


def test_backward_rejects_nonscalar():
    x = Tensor(rand(3), requires_grad=True)
    with pytest.raises(AutodiffError):
        backward(ad.mul(x, x), [x])


def test_backward_detects_nonfinite_values():
    x = Tensor(np.array([0.0]), requires_grad=True)
    with np.errstate(divide="ignore"):
        loss = ad.total(ad.log(x))  # -inf in the graph
    with pytest.raises(NonFiniteGraphError):
        backward(loss, [x])


@pytest.mark.parametrize(
    "build, op",
    [
        # exp overflows to inf; clip's output is finite, its input is not
        (lambda x: ad.total(ad.clip(ad.exp(ad.scale(x, 1000.0)), -1.0, 1.0)), "exp"),
        # a NaN constant makes the intermediate mul node NaN
        (lambda x: ad.total(ad.tanh(ad.mul(x, Tensor(np.array([1.0, np.nan]))))), "mul"),
    ],
    ids=["inf-behind-clip", "nan-in-mul"],
)
def test_backward_names_first_nonfinite_node(build, op):
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with np.errstate(over="ignore", invalid="ignore"):
        loss = build(x)
    with pytest.raises(NonFiniteGraphError, match=f"^non-finite values in node op='{op}'$"):
        backward(loss, [x])


def test_backward_returns_gradients_in_params_order():
    a = Tensor(rand(2, 3), requires_grad=True)
    b = Tensor(rand(3), requires_grad=True)
    unreached = Tensor(rand(4), requires_grad=True)
    loss = ad.total(ad.mul(ad.tanh(a), b))
    grads = backward(loss, [b, unreached, a])
    assert [g.shape for g in grads] == [(3,), (4,), (2, 3)]
    assert np.allclose(grads[0], np.tanh(a.data).sum(axis=0))
    assert np.array_equal(grads[1], np.zeros(4))
    assert np.allclose(grads[2], (1.0 - np.tanh(a.data) ** 2) * b.data)
    # no gradient is stored between calls, so nothing accumulates
    for g, again in zip(grads, backward(loss, [b, unreached, a])):
        assert np.array_equal(g, again)


def test_gradcheck_report_threshold():
    t = Tensor(rand(2, 2), requires_grad=True)
    rep = check_gradients_params(lambda: ad.mean(ad.tanh(t)), [t])
    assert rep.ok(1e-4) and not rep.ok(0.0)
    assert rep.analytic.shape == rep.numeric.shape


# ---------------------------------------------------------------------------
# Adam


def linear_loss(params, grads):
    """The sum of <p, g>: its gradient with respect to each p is exactly g.

    A None in `grads` leaves that parameter out of the loss.
    """
    terms = [ad.total(ad.mul(p, g)) for p, g in zip(params, grads) if g is not None]
    loss = terms[0]
    for t in terms[1:]:
        loss = ad.add(loss, t)
    return loss


def misshapen_bias_loss(b):
    """A loss whose gradient for the (1, k) bias `b` comes back with shape (k,)."""
    x = Tensor(np.ones((1, 1)))
    return ad.total(ad.affine(x, Tensor(np.ones((1, b.shape[1]))), b))


def overflowing_loss(p):
    """A finite loss whose gradient for `p` is inf: d log(1e-320 p) / dp overflows."""
    return ad.total(ad.log(ad.mul(p, 1e-320)))


def cancelling_loss(p):
    """A finite loss (0) whose gradient for `p` is inf - inf = nan."""
    return ad.sub(overflowing_loss(p), overflowing_loss(p))


def test_adam_single_step_matches_hand_update():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    g = np.array([0.1, -0.3])
    opt = Adam([p], lr=0.01)
    opt.step(linear_loss([p], [g]))
    # bias-corrected first step: m_hat = g, v_hat = g^2  ->  update = lr * g/(|g|+eps)
    expected = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.data, expected, atol=1e-12)
    assert opt.steps == 1


def test_adam_two_steps_tracked_moments():
    p = Tensor(np.array([0.5]), requires_grad=True)
    opt = Adam([p], lr=0.05)
    vals = []
    for g in ([0.2], [-0.1]):
        opt.step(linear_loss([p], [np.array(g)]))
        vals.append(float(p.data[0]))
    # manual replication
    m = v = 0.0
    x = 0.5
    for t, g in enumerate([0.2, -0.1], start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9**t)
        vh = v / (1 - 0.999**t)
        x -= 0.05 * mh / (math.sqrt(vh) + 1e-8)
    assert np.isclose(vals[-1], x, atol=1e-14)


def test_adam_none_gradient_means_zero_update():
    # a loss that does not reach p gives p a zero gradient
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    q = Tensor(np.array([3.0]), requires_grad=True)
    before = p.data.copy()
    opt = Adam([p], lr=0.1)
    opt.step(ad.total(ad.mul(q, q)))
    assert (p.data == before).all()
    assert opt.steps == 1 and not opt.m.any()


def test_adam_rejects_bad_gradient():
    b = Tensor(np.array([[1.0]]), requires_grad=True)
    opt = Adam([b], lr=0.1)
    with pytest.raises(AutodiffError, match="gradient shape"):
        opt.step(misshapen_bias_loss(b))
    for loss in (overflowing_loss(b), cancelling_loss(b)):
        assert np.isfinite(loss.data).all()
        with pytest.raises(NonFiniteGraphError, match="^Adam: non-finite gradient$"), np.errstate(
            over="ignore", invalid="ignore"
        ):
            opt.step(loss)


def test_adam_wrapper_roundtrip():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    opt.step(ad.total(ad.mul(p, p)))
    assert p.data[0] != 1.0


class _LoopAdam:
    """Reference: Adam as one update per parameter, with a moment array each."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr = list(params), float(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.steps = 0

    def step(self, grads):
        """One update; a None gradient counts as zero."""
        self.steps += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.steps
        c2 = 1.0 - b2**self.steps
        for p, m, v, g in zip(self.params, self.m, self.v, grads):
            g = np.zeros_like(p.data) if g is None else g
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


@pytest.mark.parametrize("lr", [0.05, 2e-4])
def test_adam_flat_moments_match_per_parameter_loop(lr):
    rng = np.random.default_rng(7)
    init = [rng.standard_normal((3, 4)), rng.standard_normal(5), np.array(0.3)]
    flat = [Tensor(a.copy(), requires_grad=True) for a in init]
    loop = [Tensor(a.copy(), requires_grad=True) for a in init]
    opt, ref = Adam(flat, lr=lr), _LoopAdam(loop, lr=lr)
    for step in range(5):
        grads = [rng.standard_normal(a.shape) * 10.0**step for a in init]
        if step in (1, 3):
            grads[1] = None  # the vector sits out these steps
        opt.step(linear_loss(flat, grads))
        ref.step(grads)
        for p, q in zip(flat, loop):
            assert np.array_equal(p.data, q.data)
        assert np.array_equal(opt.m, np.concatenate([m.ravel() for m in ref.m]))
        assert np.array_equal(opt.v, np.concatenate([v.ravel() for v in ref.v]))
    assert flat[2].data.shape == ()


@pytest.mark.parametrize(
    "bad",
    [cancelling_loss, overflowing_loss, misshapen_bias_loss, lambda b: linear_loss([b], [np.array([[np.nan]])])],
    ids=["nan", "inf", "shape", "nan-node"],
)
def test_adam_rejected_step_changes_nothing(bad):
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([[2.0]]), requires_grad=True)
    opt = Adam([a, b], lr=0.1)
    loss = ad.add(linear_loss([a], [np.array([0.5])]), bad(b))
    with pytest.raises(AutodiffError), np.errstate(over="ignore", invalid="ignore"):
        opt.step(loss)
    assert a.data[0] == 1.0 and b.data[0, 0] == 2.0
    assert opt.steps == 0 and not opt.m.any() and not opt.v.any()
    # the next good step is a fresh optimizer's first step, bit for bit
    grads = [np.array([0.5]), np.array([[-0.25]])]
    opt.step(linear_loss([a, b], grads))
    fa = Tensor(np.array([1.0]), requires_grad=True)
    fb = Tensor(np.array([[2.0]]), requires_grad=True)
    fresh = Adam([fa, fb], lr=0.1)
    fresh.step(linear_loss([fa, fb], grads))
    assert np.array_equal(a.data, fa.data) and np.array_equal(b.data, fb.data)
    assert np.array_equal(opt.m, fresh.m) and np.array_equal(opt.v, fresh.v)
    assert opt.steps == fresh.steps == 1
