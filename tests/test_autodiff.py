"""Unit tests for the tensor/tape engine: forward values, analytic vs numeric
gradients for every primitive, and the tape lifecycle rules."""

import gc
import math
import weakref

import numpy as np
import pytest

from mscontrast import autodiff as ad


def test_relu_forward():
    out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_cross_entropy_uniform_two_class():
    # logits [0, 0], true class 0: -log(1/2) = ln 2
    logits = ad.Tensor(np.zeros((1, 2, 1, 1)))
    target = np.zeros((1, 1, 1), dtype=np.int64)
    loss = ad.softmax_cross_entropy(logits, target)
    assert abs(float(loss.data) - math.log(2.0)) < 1e-9


def test_sum_of_squares_gradient():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    loss = ad.tsum(ad.mul(x, x))
    ad.backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0], atol=1e-12)


def test_constant_loss_backward_is_noop():
    c = ad.Tensor(5.0)
    loss = ad.scale(c, 2.0)
    ad.backward(loss)  # nothing tracked, nothing to do
    assert c.grad is None


def test_backward_rejects_non_scalar():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.relu(x))


def test_tape_consumed_once():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    loss = ad.tsum(ad.mul(x, x))
    ad.backward(loss)
    with pytest.raises(RuntimeError, match="consumed"):
        ad.backward(loss)


def test_backward_frees_the_graph_without_the_cycle_collector():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    gc.disable()
    try:
        loss = ad.tsum(ad.mul(ad.relu(x), x))
        tape = weakref.ref(loss.tape)
        ad.backward(loss)
        del loss
        assert tape() is None
    finally:
        gc.enable()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_shared_leaf_two_branches():
    # both branches of y = relu(x) + 2x must land on one tape
    x = ad.Tensor([1.0, -2.0, 3.0], requires_grad=True)
    y = ad.add(ad.relu(x), ad.scale(x, 2.0))
    loss = ad.tsum(ad.mul(y, y))
    ad.backward(loss)
    assert np.allclose(x.grad, [18.0, -16.0, 54.0])


def test_grad_accumulates_across_steps():
    x = ad.Tensor([3.0], requires_grad=True)
    ad.backward(ad.tsum(ad.mul(x, x)))
    ad.backward(ad.tsum(ad.mul(x, x)))
    assert np.allclose(x.grad, [12.0])
    x.zero_grad()
    assert x.grad is None


def test_shape_mismatch_names_shapes():
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        ad.add(ad.Tensor([1.0, 2.0]), ad.Tensor([1.0, 2.0, 3.0]))


def test_no_grad_suppresses_recording():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        y = ad.tsum(ad.mul(x, x))
    assert not y.requires_grad and y.tape is None
    ad.backward(y)  # constant: no-op
    assert x.grad is None


def test_nonfinite_gradient_detected():
    x = ad.Tensor([np.inf], requires_grad=True)
    loss = ad.tsum(ad.mul(x, x))
    with pytest.raises(FloatingPointError, match="mul"):
        ad.backward(loss)


# --- gradient checks per primitive ---------------------------------------


def test_conv1x1_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = ad.Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(5, 3, 1, 1)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(5,)), requires_grad=True)

    def f():
        y = ad.conv1x1(x, w, b)
        return ad.tsum(ad.mul(y, y))

    worst = ad.check_gradients(f, [x, w, b], eps=1e-5)
    assert worst < 1e-6


def test_conv2d_strided_padded():
    rng = np.random.default_rng(11)
    x = ad.Tensor(rng.normal(size=(2, 3, 7, 7)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.4, requires_grad=True)
    b = ad.Tensor(rng.normal(size=(4,)), requires_grad=True)
    with ad.no_grad():
        assert ad.conv2d(x, w, b, stride=2, padding=1).shape == (2, 4, 4, 4)  # ceil(7/2)

    def f():
        y = ad.conv2d(x, w, b, stride=2, padding=1)
        return ad.tsum(ad.mul(y, y))

    ad.check_gradients(f, [x, w, b])


def _conv2d_by_definition(x, w, b, g, stride, padding):
    """Forward value and the x, w, b vector-Jacobian products of g, summed term by term."""
    B, C, H, W = x.shape
    O, _, kh, kw = w.shape
    Ho = (H + 2 * padding - kh) // stride + 1
    Wo = (W + 2 * padding - kw) // stride + 1
    out = np.zeros((B, O, Ho, Wo))
    dx, dw, db = np.zeros_like(x), np.zeros_like(w), np.zeros_like(b)
    for n in range(B):
        for o in range(O):
            for yo in range(Ho):
                for xo in range(Wo):
                    out[n, o, yo, xo] += b[o]
                    db[o] += g[n, o, yo, xo]
                    for c in range(C):
                        for i in range(kh):
                            for j in range(kw):
                                r, q = yo * stride + i - padding, xo * stride + j - padding
                                if 0 <= r < H and 0 <= q < W:
                                    out[n, o, yo, xo] += x[n, c, r, q] * w[o, c, i, j]
                                    dx[n, c, r, q] += g[n, o, yo, xo] * w[o, c, i, j]
                                    dw[o, c, i, j] += g[n, o, yo, xo] * x[n, c, r, q]
    return out, dx, dw, db


@pytest.mark.parametrize("B, C, H, W, O, k, stride, padding", [
    (1, 3, 4, 6, 2, 1, 1, 0),   # pointwise: the input is its own columns
    (3, 2, 5, 3, 4, 1, 1, 0),
    (2, 3, 4, 5, 2, 1, 1, 1),   # 1x1 with padding
    (1, 2, 7, 6, 3, 1, 2, 0),   # 1x1 with stride
    (3, 2, 5, 7, 3, 3, 1, 1),
    (1, 3, 6, 5, 2, 3, 2, 1),
    (3, 2, 7, 4, 2, 3, 2, 2),
    (1, 2, 4, 6, 3, 3, 1, 0),
])
def test_conv2d_matches_its_definition(B, C, H, W, O, k, stride, padding):
    rng = np.random.default_rng(B * 1000 + H * 100 + k * 10 + stride + padding)
    x, w, b = rng.normal(size=(B, C, H, W)), rng.normal(size=(O, C, k, k)), rng.normal(size=O)
    xt, wt, bt = (ad.Tensor(v, requires_grad=True) for v in (x, w, b))
    y = ad.conv2d(xt, wt, bt, stride=stride, padding=padding)
    g = rng.normal(size=y.shape)
    ad.backward(ad.tsum(ad.mul(y, ad.Tensor(g))))
    for got, want in zip((y.data, xt.grad, wt.grad, bt.grad),
                         _conv2d_by_definition(x, w, b, g, stride, padding)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_conv2d_channel_mismatch():
    x = ad.Tensor(np.zeros((1, 3, 4, 4)))
    w = ad.Tensor(np.zeros((2, 4, 1, 1)))
    with pytest.raises(ValueError, match="3 channels.*expects 4"):
        ad.conv2d(x, w)


def test_relu_gradcheck_away_from_kink():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=12)
    vals[np.abs(vals) < 1e-2] = 0.5  # keep FD probes off the kink
    x = ad.Tensor(vals, requires_grad=True)
    ad.check_gradients(lambda: ad.tsum(ad.mul(ad.relu(x), ad.relu(x))), [x])


def test_batchnorm_training_normalizes():
    # input variance must be >> eps=1e-5 for the output variance to land
    # within 1e-6 of 1 (output var is v/(v+eps))
    rng = np.random.default_rng(13)
    x = ad.Tensor(rng.normal(loc=3.0, scale=6.0, size=(4, 3, 5, 5)), requires_grad=True)
    gamma = ad.Tensor(np.ones(3), requires_grad=True)
    beta = ad.Tensor(np.zeros(3), requires_grad=True)
    rm, rv = np.zeros(3), np.ones(3)
    out = ad.batchnorm2d(x, gamma, beta, rm, rv, training=True)
    mu = out.data.mean(axis=(0, 2, 3))
    var = out.data.var(axis=(0, 2, 3))
    assert np.all(np.abs(mu) < 1e-10)
    assert np.all(np.abs(var - 1.0) < 1e-6)
    # running stats moved toward batch stats
    assert not np.allclose(rm, 0.0) and not np.allclose(rv, 1.0)


def test_batchnorm_gradcheck_training_mode():
    rng = np.random.default_rng(17)
    x = ad.Tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True)
    gamma = ad.Tensor(rng.normal(size=2) + 1.5, requires_grad=True)
    beta = ad.Tensor(rng.normal(size=2), requires_grad=True)

    def f():
        out = ad.batchnorm2d(x, gamma, beta, np.zeros(2), np.ones(2), training=True)
        return ad.tsum(ad.mul(out, out))

    ad.check_gradients(f, [x, gamma, beta])


def test_batchnorm_eval_uses_running_stats():
    x = ad.Tensor(np.full((1, 2, 2, 2), 10.0))
    rm = np.array([10.0, 0.0])
    rv = np.array([4.0, 1.0])
    out = ad.batchnorm2d(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)), rm, rv, training=False)
    assert np.allclose(out.data[:, 0], 0.0)
    assert np.allclose(out.data[:, 1], 10.0 / np.sqrt(1.0 + 1e-5), atol=1e-9)
    # eval mode must not touch the buffers
    assert rm[0] == 10.0 and rv[0] == 4.0


def test_batchnorm_training_needs_batch():
    x = ad.Tensor(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ValueError, match="batch size"):
        ad.batchnorm2d(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)), np.zeros(2), np.ones(2), training=True)


def test_l2_normalize_rows_unit_norm_and_guard():
    rng = np.random.default_rng(19)
    data = rng.normal(size=(5, 8))
    data[2] = 0.0  # degenerate row
    out = ad.l2_normalize_rows(ad.Tensor(data))
    norms = np.linalg.norm(out.data, axis=1)
    assert np.all(np.abs(norms[[0, 1, 3, 4]] - 1.0) < 1e-12)
    assert norms[2] == 0.0

    x = ad.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    ad.check_gradients(lambda: ad.tsum(ad.mul(ad.l2_normalize_rows(x), ad.l2_normalize_rows(x))), [x])


def test_bilinear_upsample_hand_values():
    # 2x upsample of [0, 1] with half-pixel centers: [0, 0.25, 0.75, 1]
    x = ad.Tensor(np.array([0.0, 1.0]).reshape(1, 1, 1, 2))
    out = ad.bilinear_upsample(x, (1, 4))
    assert np.allclose(out.data.ravel(), [0.0, 0.25, 0.75, 1.0], atol=1e-12)


def test_bilinear_upsample_gradcheck():
    rng = np.random.default_rng(23)
    x = ad.Tensor(rng.normal(size=(2, 3, 3, 5)), requires_grad=True)
    ad.check_gradients(lambda: ad.tsum(ad.mul(ad.bilinear_upsample(x, (7, 9)), ad.bilinear_upsample(x, (7, 9)))), [x])


def _bilinear_by_definition(x, H, W):
    """Each output pixel from its four source neighbours at half-pixel-center coordinates."""
    h, w = x.shape[2:]

    def source(o, n_in, n_out):
        c = min(max((o + 0.5) * n_in / n_out - 0.5, 0.0), n_in - 1.0)
        i0 = math.floor(c)
        return i0, min(i0 + 1, n_in - 1), c - i0

    out = np.zeros(x.shape[:2] + (H, W))
    for yo in range(H):
        y0, y1, fy = source(yo, h, H)
        for xo in range(W):
            x0, x1, fx = source(xo, w, W)
            out[:, :, yo, xo] = ((1 - fy) * (1 - fx) * x[:, :, y0, x0] + (1 - fy) * fx * x[:, :, y0, x1]
                                 + fy * (1 - fx) * x[:, :, y1, x0] + fy * fx * x[:, :, y1, x1])
    return out


@pytest.mark.parametrize("shape, size", [
    ((2, 3, 5, 7), (13, 29)),   # non-integer ratios
    ((1, 2, 4, 6), (4, 6)),     # same size
    ((2, 1, 1, 1), (3, 5)),     # one input pixel
])
def test_bilinear_upsample_matches_per_pixel_definition(shape, size):
    rng = np.random.default_rng(sum(shape) + sum(size))
    x = rng.normal(size=shape)
    xt = ad.Tensor(x, requires_grad=True)
    y = ad.bilinear_upsample(xt, size)
    want = _bilinear_by_definition(x, *size)
    assert np.abs(y.data - want).max() <= 1e-12 * np.abs(want).max()
    if shape[2:] == size:
        assert np.array_equal(y.data, x)
    # adjoint: <up(x), g> = <x, up^T(g)>, with up^T(g) the backward pass
    g = rng.normal(size=y.shape)
    ad.backward(ad.tsum(ad.mul(y, ad.Tensor(g))))
    lhs, rhs = float((y.data * g).sum()), float((x * xt.grad).sum())
    assert abs(lhs - rhs) <= 1e-12 * np.abs(y.data * g).sum()


def test_cross_entropy_ignore_index_and_grad():
    rng = np.random.default_rng(41)
    logits = ad.Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    target = rng.integers(0, 3, size=(2, 4, 4))
    target[0, 0, :] = 255
    ad.check_gradients(lambda: ad.softmax_cross_entropy(logits, target), [logits])

    all_ignored = np.full((2, 4, 4), 255)
    with pytest.raises(ValueError, match="all pixels ignored"):
        ad.softmax_cross_entropy(logits, all_ignored)


def test_gather_positions_values_and_grad():
    rng = np.random.default_rng(43)
    x = ad.Tensor(rng.normal(size=(2, 5, 3, 4)), requires_grad=True)
    b = np.array([0, 0, 1, 1, 1])
    r = np.array([0, 2, 1, 1, 2])
    c = np.array([0, 3, 2, 2, 0])  # repeated position: grads must sum
    out = ad.gather_positions(x, b, r, c)
    assert out.shape == (5, 5)
    assert np.array_equal(out.data[1], x.data[0, :, 2, 3])
    ad.check_gradients(lambda: ad.tsum(ad.mul(ad.gather_positions(x, b, r, c), ad.gather_positions(x, b, r, c))), [x])

    with pytest.raises(ValueError, match="out of bounds"):
        ad.gather_positions(x, np.array([2]), np.array([0]), np.array([0]))


def test_contrastive_pair_loss_gradcheck():
    rng = np.random.default_rng(47)
    raw = ad.Tensor(rng.normal(size=(8, 6)), requires_grad=True)
    labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])

    def f():
        z = ad.l2_normalize_rows(raw)
        return ad.contrastive_pair_loss(z, z, labels, labels, tau=0.1)

    ad.check_gradients(f, [raw])


def test_contrastive_pair_loss_two_sets_gradcheck():
    rng = np.random.default_rng(53)
    a = ad.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    la = np.array([0, 1, 2, 0, 1])
    lb = np.array([0, 0, 1, 2, 2, 1, 0])

    def f():
        return ad.contrastive_pair_loss(ad.l2_normalize_rows(a), ad.l2_normalize_rows(b), la, lb, tau=0.2)

    ad.check_gradients(f, [a, b])


def test_contrastive_pair_loss_edge_cases():
    z = ad.Tensor(np.eye(3))
    singletons = np.arange(3)  # with the diagonal excluded, no positives
    with pytest.raises(ad.NoPositivePairs, match="no positive pairs"):
        ad.contrastive_pair_loss(z, z, singletons, singletons, tau=0.1)

    with pytest.raises(ValueError, match="temperature"):
        ad.contrastive_pair_loss(z, z, np.zeros(3, dtype=np.int64), singletons, tau=0.0)

    with pytest.raises(ValueError, match="class ids"):
        ad.contrastive_pair_loss(z, z, singletons[:2], singletons, tau=0.1)


def test_contrastive_row_without_negatives_contributes_zero():
    # one label only: every off-diagonal pair is positive, no negatives exist,
    # so each term is softplus(-inf - s) = 0 and the loss is exactly 0
    rng = np.random.default_rng(59)
    z = ad.l2_normalize_rows(ad.Tensor(rng.normal(size=(4, 3))))
    labels = np.zeros(4, dtype=np.int64)
    loss = ad.contrastive_pair_loss(z, z, labels, labels, tau=0.1)
    assert float(loss.data) == 0.0


def test_contrastive_blocking_invariant(monkeypatch):
    # the block size must not change the value or the gradients, for one set
    # contrasted with itself and for two distinct sets
    rng = np.random.default_rng(61)
    raw = rng.normal(size=(10, 4))
    labels = rng.integers(0, 3, size=10)
    raw_b = rng.normal(size=(7, 4))
    labels_b = rng.integers(0, 3, size=7)

    def one_set():
        t = ad.Tensor(raw, requires_grad=True)
        z = ad.l2_normalize_rows(t)
        return ad.contrastive_pair_loss(z, z, labels, labels, tau=0.1), [t]

    def two_sets():
        ta, tb = ad.Tensor(raw, requires_grad=True), ad.Tensor(raw_b, requires_grad=True)
        za, zb = ad.l2_normalize_rows(ta), ad.l2_normalize_rows(tb)
        return ad.contrastive_pair_loss(za, zb, labels, labels_b, tau=0.1), [ta, tb]

    def run(case):
        vals, grads = [], []
        for block in (3, ad.CONTRASTIVE_BLOCK):
            monkeypatch.setattr(ad, "CONTRASTIVE_BLOCK", block)
            loss, leaves = case()
            ad.backward(loss)
            vals.append(float(loss.data))
            grads.append([t.grad.copy() for t in leaves])
        for g3, g_default in zip(*grads):
            assert np.allclose(g3, g_default, atol=1e-14)
        return vals

    vals = run(one_set)
    assert vals[0] == vals[1]
    # blocks sum their row means separately, so the order of that sum (and
    # with it the last bit of the value) can depend on the block size
    vals = run(two_sets)
    assert math.isclose(vals[0], vals[1], rel_tol=1e-15)


def test_contrastive_no_grad_value_matches_taped_value():
    # the kernel computes its gradient in the forward pass only when taped;
    # under no_grad it records nothing and gives the same value bit for bit
    rng = np.random.default_rng(71)
    a = ad.l2_normalize_rows(ad.Tensor(rng.normal(size=(9, 5)), requires_grad=True))
    b = ad.l2_normalize_rows(ad.Tensor(rng.normal(size=(6, 5)), requires_grad=True))
    la = rng.integers(0, 3, size=9)
    lb = rng.integers(0, 3, size=6)
    n_nodes = len(a.tape.nodes)
    taped = ad.contrastive_pair_loss(a, b, la, lb, tau=0.1)
    assert taped.requires_grad and len(a.tape.nodes) == n_nodes + 1
    with ad.no_grad():
        plain = ad.contrastive_pair_loss(a, b, la, lb, tau=0.1)
    assert not plain.requires_grad and plain.tape is None
    assert len(a.tape.nodes) == n_nodes + 1
    assert plain.data.tobytes() == taped.data.tobytes()


def _loop_info_nce(a, a_classes, b, b_classes, tau, one_set):
    """Supervised InfoNCE by explicit loops over anchors and pairs.

    Row i of a pairs with every row j of b; j == i is no pair when a and b
    are one set.  Per positive j the term is -log(e^s_ij / (e^s_ij + sum over
    negatives n of e^s_in)); terms average per anchor, then over anchors.
    """
    row_means = []
    for i in range(len(a)):
        sims = [float(a[i] @ b[j]) / tau for j in range(len(b))]
        pos = [j for j in range(len(b)) if b_classes[j] == a_classes[i] and not (one_set and j == i)]
        neg = sum(math.exp(sims[j]) for j in range(len(b)) if b_classes[j] != a_classes[i])
        if pos:
            terms = [math.log(math.exp(sims[j]) + neg) - sims[j] for j in pos]
            row_means.append(sum(terms) / len(terms))
    return sum(row_means) / len(row_means)


def test_contrastive_self_pairs_by_identity():
    # one tensor passed twice is one set, so the diagonal is no pair; an
    # equal copy is a second set, whose diagonal is a positive like any other
    rng = np.random.default_rng(73)
    z = ad.l2_normalize_rows(ad.Tensor(rng.normal(size=(7, 4))))
    labels = np.array([0, 0, 1, 1, 2, 2, 0])
    twin = ad.Tensor(z.data.copy())
    itself = float(ad.contrastive_pair_loss(z, z, labels, labels, tau=0.5).data)
    copy = float(ad.contrastive_pair_loss(z, twin, labels, labels.copy(), tau=0.5).data)
    assert math.isclose(itself, _loop_info_nce(z.data, labels, z.data, labels, 0.5, one_set=True), rel_tol=1e-12)
    assert math.isclose(copy, _loop_info_nce(z.data, labels, z.data, labels, 0.5, one_set=False), rel_tol=1e-12)
    assert not math.isclose(itself, copy, rel_tol=1e-6)
    # labels equal in value but held in another array still label one set
    assert float(ad.contrastive_pair_loss(z, z, labels, labels.copy(), tau=0.5).data) == itself
    with pytest.raises(ValueError, match="two different labelings"):
        ad.contrastive_pair_loss(z, z, labels, labels[::-1], tau=0.5)


def test_forward_determinism():
    rng = np.random.default_rng(67)
    x = rng.normal(size=(2, 3, 8, 8))
    w = rng.normal(size=(4, 3, 3, 3))
    a = ad.conv2d(ad.Tensor(x), ad.Tensor(w), stride=2, padding=1)
    b = ad.conv2d(ad.Tensor(x), ad.Tensor(w), stride=2, padding=1)
    assert np.array_equal(a.data, b.data)
