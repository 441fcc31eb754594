"""Loss-family tests: frozen scalar values, recomposition, invariances, and
gradient flow.  Closed-form instances are built from Gram matrices via
Cholesky so pairwise similarities are exact by construction."""

import math

import numpy as np
import pytest

from mscontrast import autodiff as ad
from mscontrast import losses as ls
from mscontrast.losses import LossConfig, cross_scale_loss, info_nce, info_nce_cross, multi_scale_loss, total_loss
from mscontrast.sampling import AnchorSet, build_pool, dense_anchor_set, sample_anchor_set, substream


def set_from_gram(gram, class_ids, scale=4, offset=0, dim=None):
    """Anchor set whose pairwise dot products equal the given Gram matrix."""
    chol = np.linalg.cholesky(np.asarray(gram, dtype=np.float64))
    n = len(class_ids)
    if dim is not None:  # zero columns keep the dot products
        chol = np.pad(chol, ((0, 0), (0, dim - n)))
    prov = np.stack([np.zeros(n, dtype=np.int64), np.arange(offset, offset + n), np.zeros(n, dtype=np.int64)], axis=1)
    return AnchorSet(
        embeddings=ad.Tensor(chol),
        class_ids=np.asarray(class_ids, dtype=np.int64),
        scale=scale,
        provenance=prov,
    )


def random_set(rng, n, n_classes, d=6, scale=4, requires_grad=False):
    raw = ad.Tensor(rng.normal(size=(n, d)), requires_grad=requires_grad)
    prov = np.stack([np.zeros(n, dtype=np.int64), np.arange(n), np.full(n, scale, dtype=np.int64)], axis=1)
    cls = rng.integers(0, n_classes, size=n)
    return raw, AnchorSet(ad.l2_normalize_rows(raw), cls, scale, prov)


# --- frozen scalar instances ----------------------------------------------


def test_no_negatives_gives_zero():
    anchors = set_from_gram(np.eye(2), [0, 0])
    assert float(info_nce(anchors, tau=0.1).data) == 0.0


def test_symmetric_positive_negative_gives_ln2():
    # every contributing anchor: one positive and one negative at equal
    # similarity, so each term is -log(1/2)
    anchors = set_from_gram(np.eye(3), [0, 0, 1])
    assert abs(float(info_nce(anchors, tau=0.1).data) - math.log(2.0)) < 1e-9


def test_half_vs_point3_similarity_at_tau_point1():
    # per-term: -log(e^5 / (e^5 + e^3)) = log(1 + e^-2)
    gram = [[1.0, 0.5, 0.3], [0.5, 1.0, 0.3], [0.3, 0.3, 1.0]]
    anchors = set_from_gram(gram, [0, 0, 1])
    expected = math.log1p(math.exp(-2.0))
    assert abs(float(info_nce(anchors, tau=0.1).data) - expected) < 1e-9


def test_cross_orthogonal_two_class_tau1():
    # positive similarity 1, negative 0, tau=1: every directed term is
    # log(1 + e^-1) and the symmetric mean keeps that value
    a = set_from_gram(np.eye(2), [0, 1], scale=4)
    b = set_from_gram(np.eye(2), [0, 1], scale=32)
    assert abs(float(info_nce_cross(a, b, tau=1.0).data) - math.log1p(math.exp(-1.0))) < 1e-9


# --- structural properties -------------------------------------------------


def test_min_anchor_count():
    anchors = set_from_gram([[1.0]], [0])
    with pytest.raises(ValueError, match="at least 2"):
        info_nce(anchors)


def test_all_singleton_classes_error():
    anchors = set_from_gram(np.eye(3), [0, 1, 2])
    with pytest.raises(ValueError, match="no positive pairs"):
        info_nce(anchors)


def test_nonnegative_and_bounded():
    rng = np.random.default_rng(201)
    for trial in range(5):
        _, anchors = random_set(rng, 20, 3)
        val = float(info_nce(anchors, tau=0.1).data)
        n_max = max(np.sum(anchors.class_ids != c) for c in anchors.class_ids)
        assert 0.0 <= val <= math.log(1.0 + n_max * math.exp(2.0 / 0.1))


def test_temperature_monotonicity_on_hard_instance():
    gram = [[1.0, 0.2, 0.6], [0.2, 1.0, 0.6], [0.6, 0.6, 1.0]]
    vals = []
    for tau in (0.05, 0.1, 0.5, 1.0):
        anchors = set_from_gram(gram, [0, 0, 1])
        vals.append(float(info_nce(anchors, tau).data))
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_permutation_invariance():
    rng = np.random.default_rng(203)
    raw, anchors = random_set(rng, 15, 3)
    base = float(info_nce(anchors, 0.1).data)
    perm = rng.permutation(15)
    shuffled = AnchorSet(
        ad.l2_normalize_rows(ad.Tensor(raw.data[perm])),
        anchors.class_ids[perm], anchors.scale, anchors.provenance[perm])
    assert abs(float(info_nce(shuffled, 0.1).data) - base) < 1e-12


def test_sampled_equals_dense_on_exhausted_pool():
    rng = np.random.default_rng(205)
    labels = np.repeat(np.arange(3), 8).reshape(1, 4, 6)
    rng.shuffle(labels.ravel())
    proj = ad.Tensor(rng.normal(size=(1, 8, 4, 6)))
    pool = build_pool(labels, 4)
    sampled = sample_anchor_set(pool, proj, 1024, substream(0, 1))
    dense = dense_anchor_set(pool, proj)
    assert abs(float(info_nce(sampled, 0.1).data) - float(info_nce(dense, 0.1).data)) < 1e-10


def test_cross_identical_sets_match_within_scale():
    rng = np.random.default_rng(207)
    raw, anchors = random_set(rng, 10, 3)
    twin = AnchorSet(ad.l2_normalize_rows(ad.Tensor(raw.data.copy())),
                     anchors.class_ids.copy(), anchors.scale, anchors.provenance.copy())
    within = float(info_nce(anchors, 0.1).data)
    cross = float(info_nce_cross(anchors, twin, 0.1).data)
    assert abs(within - cross) < 1e-12


def test_cross_single_class_is_zero():
    a = set_from_gram(np.eye(2), [0, 0], scale=4, dim=3)
    b = set_from_gram(np.eye(3), [0, 0, 0], scale=16)
    assert float(info_nce_cross(a, b, 0.1).data) == 0.0


def test_cross_requires_shared_class():
    a = set_from_gram(np.eye(2), [0, 0], scale=4)
    b = set_from_gram(np.eye(2), [1, 1], scale=16)
    with pytest.raises(ValueError, match="no cross-scale positives"):
        info_nce_cross(a, b, 0.1)


def test_cross_same_stride_needs_one_set():
    a = set_from_gram(np.eye(2), [0, 0], scale=4)
    b = set_from_gram(np.eye(2), [0, 0], scale=4, offset=2)
    with pytest.raises(ValueError, match="stride 4 hold different positions"):
        info_nce_cross(a, b, 0.1)


def test_cross_gradients_reach_both_sets():
    rng = np.random.default_rng(209)
    raw_a, set_a = random_set(rng, 8, 2, scale=4, requires_grad=True)
    raw_b, set_b = random_set(rng, 6, 2, scale=16, requires_grad=True)
    loss = info_nce_cross(set_a, set_b, 0.1)
    assert float(loss.data) > 0
    ad.backward(loss)
    assert raw_a.grad is not None and np.any(raw_a.grad != 0)
    assert raw_b.grad is not None and np.any(raw_b.grad != 0)


# --- multi-scale -----------------------------------------------------------


def test_multi_scale_weighted_sum(monkeypatch):
    fixed = {4: 1.0, 8: 2.0, 16: 3.0, 32: 4.0}
    monkeypatch.setattr(ls, "info_nce", lambda anchors, tau: ad.Tensor(fixed[anchors.scale]))
    sets = {s: set_from_gram(np.eye(2), [0, 0], scale=s) for s in fixed}
    cfg = LossConfig()
    out = multi_scale_loss(sets, cfg)
    assert abs(float(out.data) - 4.0) < 1e-12  # 1 + 1.4 + 1.2 + 0.4


def test_multi_scale_single_scale_equals_info_nce():
    rng = np.random.default_rng(211)
    _, anchors = random_set(rng, 12, 3, scale=4)
    cfg = LossConfig(scale_weights={4: 1.0}, cross_pairs=())
    assert float(multi_scale_loss({4: anchors}, cfg).data) == float(info_nce(anchors, cfg.tau).data)


def test_multi_scale_recomposition():
    rng = np.random.default_rng(213)
    _, a4 = random_set(rng, 12, 3, scale=4)
    _, a8 = random_set(rng, 9, 3, scale=8)
    cfg = LossConfig(scale_weights={4: 1.0, 8: 0.7}, cross_pairs=())
    combined = float(multi_scale_loss({4: a4, 8: a8}, cfg).data)
    manual = 1.0 * float(info_nce(a4, cfg.tau).data) + 0.7 * float(info_nce(a8, cfg.tau).data)
    assert abs(combined - manual) < 1e-12


def test_multi_scale_skips_degenerate_scale(caplog):
    rng = np.random.default_rng(215)
    _, good = random_set(rng, 10, 3, scale=4)
    bad = set_from_gram(np.eye(2), [0, 1], scale=8)  # two singleton classes
    cfg = LossConfig(scale_weights={4: 1.0, 8: 0.7}, cross_pairs=())
    with caplog.at_level("WARNING", logger="mscontrast.losses"):
        out = multi_scale_loss({4: good, 8: bad}, cfg)
    assert "stride 8" in caplog.text
    assert abs(float(out.data) - float(info_nce(good, cfg.tau).data)) < 1e-12


def test_multi_scale_all_degenerate_errors():
    bad4 = set_from_gram(np.eye(2), [0, 1], scale=4)
    bad8 = set_from_gram(np.eye(2), [0, 1], scale=8)
    cfg = LossConfig(scale_weights={4: 1.0, 8: 0.7}, cross_pairs=())
    with pytest.raises(ValueError, match="every scale"):
        multi_scale_loss({4: bad4, 8: bad8}, cfg)


def test_multi_scale_missing_set_errors():
    cfg = LossConfig(scale_weights={4: 1.0, 8: 0.7}, cross_pairs=())
    rng = np.random.default_rng(217)
    _, a4 = random_set(rng, 8, 2, scale=4)
    with pytest.raises(ValueError, match="stride 8"):
        multi_scale_loss({4: a4}, cfg)


# --- cross-scale -----------------------------------------------------------


def test_cross_scale_no_pairs_is_zero():
    cfg = LossConfig(cross_pairs=())
    assert float(cross_scale_loss({}, cfg).data) == 0.0


def test_cross_scale_single_pair_matches_direct():
    rng = np.random.default_rng(219)
    _, a4 = random_set(rng, 10, 3, scale=4)
    _, a32 = random_set(rng, 8, 3, scale=32)
    cfg = LossConfig(cross_pairs=((4, 32, 1.0),))
    combined = float(cross_scale_loss({4: a4, 32: a32}, cfg).data)
    assert abs(combined - float(info_nce_cross(a4, a32, cfg.tau).data)) < 1e-12


def test_cross_scale_two_equal_pairs_double():
    rng = np.random.default_rng(221)
    _, a4 = random_set(rng, 10, 3, scale=4)
    _, other = random_set(rng, 8, 3, scale=16)
    twin = AnchorSet(other.embeddings, other.class_ids, 32, other.provenance)
    cfg = LossConfig(cross_pairs=((4, 16, 1.0), (4, 32, 1.0)))
    combined = float(cross_scale_loss({4: a4, 16: other, 32: twin}, cfg).data)
    single = float(info_nce_cross(a4, other, cfg.tau).data)
    assert abs(combined - 2.0 * single) < 1e-12


def test_cross_scale_missing_set_errors():
    rng = np.random.default_rng(223)
    _, a4 = random_set(rng, 6, 2, scale=4)
    cfg = LossConfig(cross_pairs=((4, 32, 1.0),))
    with pytest.raises(ValueError, match="no anchor set for stride 32"):
        cross_scale_loss({4: a4}, cfg)


def test_cross_scale_skips_pair_without_shared_class(caplog):
    a = set_from_gram(np.eye(2), [0, 0], scale=4)
    b = set_from_gram(np.eye(2), [1, 1], scale=32)
    cfg = LossConfig(cross_pairs=((4, 32, 1.0),))
    with caplog.at_level("WARNING", logger="mscontrast.losses"):
        out = cross_scale_loss({4: a, 32: b}, cfg)
    assert "pair skipped" in caplog.text
    assert float(out.data) == 0.0


def test_cross_scale_skips_same_stride_pair_of_singletons(caplog):
    # a class drawn once has no positive once the anchor itself is excluded
    anchors = set_from_gram(np.eye(3), [0, 1, 2], scale=4)
    cfg = LossConfig(scale_weights={4: 1.0}, cross_pairs=((4, 4),))
    with caplog.at_level("WARNING", logger="mscontrast.losses"):
        out = cross_scale_loss({4: anchors}, cfg)
    assert "pair skipped" in caplog.text
    assert float(out.data) == 0.0


# --- total objective -------------------------------------------------------


def test_total_reduces_to_ce_when_weights_zero():
    ce = ad.Tensor(1.25)
    cfg = LossConfig(lambda_cms=0.0, lambda_ccs=0.0)
    out = total_loss(ce, {}, cfg)
    assert float(out.data) == 1.25


def test_total_arithmetic(monkeypatch):
    monkeypatch.setattr(ls, "multi_scale_loss", lambda sets, cfg: ad.Tensor(2.0))
    monkeypatch.setattr(ls, "cross_scale_loss", lambda sets, cfg: ad.Tensor(3.0))
    parts = {}
    out = total_loss(ad.Tensor(1.0), {}, LossConfig(), parts=parts)
    assert abs(float(out.data) - 1.5) < 1e-12
    assert parts == {"ce": 1.0, "cms": 2.0, "ccs": 3.0}


def test_total_rejects_nonfinite_ce():
    with pytest.raises(ValueError, match="not finite"):
        total_loss(ad.Tensor(np.nan), {}, LossConfig())


def test_config_validation():
    with pytest.raises(ValueError, match="tau"):
        LossConfig(tau=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        LossConfig(scale_weights={4: -1.0})
    with pytest.raises(ValueError, match="unknown stride"):
        LossConfig(scale_weights={4: 1.0}, cross_pairs=((4, 32),))
    with pytest.raises(ValueError, match="loss_position"):
        LossConfig(loss_position="head")
    cfg = LossConfig(scale_weights={4: 1.0, 16: 0.4}, cross_pairs=((4, 16),))
    assert cfg.cross_pairs == ((4, 16, 1.0),)


def test_combined_losses_match_finite_differences():
    rng = np.random.default_rng(225)
    raw_a = ad.Tensor(rng.normal(size=(8, 5)), requires_grad=True)
    raw_b = ad.Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    cls_a = np.array([0, 0, 1, 1, 2, 2, 0, 1])
    cls_b = np.array([0, 1, 2, 0, 1, 2])
    prov_a = np.stack([np.zeros(8, np.int64), np.arange(8), np.zeros(8, np.int64)], 1)
    prov_b = np.stack([np.zeros(6, np.int64), np.arange(6), np.zeros(6, np.int64)], 1)
    cfg = LossConfig(scale_weights={4: 1.0, 32: 0.1}, cross_pairs=((4, 32, 1.0),))

    def f():
        sets = {
            4: AnchorSet(ad.l2_normalize_rows(raw_a), cls_a, 4, prov_a),
            32: AnchorSet(ad.l2_normalize_rows(raw_b), cls_b, 32, prov_b),
        }
        cms = multi_scale_loss(sets, cfg)
        ccs = cross_scale_loss(sets, cfg)
        return ad.add(ad.scale(cms, cfg.lambda_cms), ad.scale(ccs, cfg.lambda_ccs))

    worst = ad.check_gradients(f, [raw_a, raw_b])
    assert worst < 1e-4
