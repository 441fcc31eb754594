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


def test_conv2d_channel_mismatch():
    x = ad.Tensor(np.zeros((1, 3, 4, 4)))
    w = ad.Tensor(np.zeros((2, 4, 1, 1)))
    with pytest.raises(ValueError, match="3 channels.*expects 4"):
        ad.conv2d(x, w)


def test_matmul_gradcheck():
    rng = np.random.default_rng(3)
    a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    ad.check_gradients(lambda: ad.tsum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))), [a, b])


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


def test_softmax_rows_sum_to_one_and_grad():
    rng = np.random.default_rng(37)
    x = ad.Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
    out = ad.softmax(x, axis=1)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
    w = rng.normal(size=(2, 4, 3, 3))
    ad.check_gradients(lambda: ad.tsum(ad.mul(ad.softmax(x, axis=1), ad.Tensor(w))), [x])


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
        return ad.contrastive_pair_loss(z, z, labels, labels, tau=0.1, same_rows=True)

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
    with pytest.raises(ValueError, match="no positive pairs"):
        ad.contrastive_pair_loss(z, z, singletons, singletons, tau=0.1, same_rows=True)

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
    loss = ad.contrastive_pair_loss(z, z, labels, labels, tau=0.1, same_rows=True)
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
        return ad.contrastive_pair_loss(z, z, labels, labels, tau=0.1, same_rows=True), [t]

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


def test_forward_determinism():
    rng = np.random.default_rng(67)
    x = rng.normal(size=(2, 3, 8, 8))
    w = rng.normal(size=(4, 3, 3, 3))
    a = ad.conv2d(ad.Tensor(x), ad.Tensor(w), stride=2, padding=1)
    b = ad.conv2d(ad.Tensor(x), ad.Tensor(w), stride=2, padding=1)
    assert np.array_equal(a.data, b.data)
