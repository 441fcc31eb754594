import numpy as np
import pytest

from mscontrast import autodiff as ad
from mscontrast.projector import MultiScaleProjector, Projector
from mscontrast.sampling import substream


def test_identity_blocks_keep_constant_input():
    # identity convs, unit BN scale, zero shift, frozen running stats (0, 1):
    # eval-mode output equals the (positive) constant input
    c = 3
    proj = Projector(c, d=c, rng=np.random.default_rng(0))
    eye = np.eye(c).reshape(c, c, 1, 1)
    for name in ("b1", "b2", "out"):
        proj.params[f"{name}.w"].data[:] = eye
        proj.params[f"{name}.b"].data[:] = 0.0
    x = ad.Tensor(np.full((2, c, 4, 4), 0.7))
    out = proj(x, training=False)
    assert np.allclose(out.data, 0.7 / np.sqrt(1.0 + 1e-5) / np.sqrt(1.0 + 1e-5), atol=1e-12)
    assert np.ptp(out.data) == 0.0  # spatially constant


def test_spatial_shape_preserved_across_strides():
    rng = np.random.default_rng(1)
    for h, w in ((16, 16), (8, 9), (4, 4), (2, 3)):
        proj = Projector(6, d=8, rng=substream(1, h, w))
        out = proj(ad.Tensor(rng.normal(size=(2, 6, h, w))), training=True)
        assert out.shape == (2, 8, h, w)


def test_channel_mismatch():
    proj = Projector(4, d=8)
    with pytest.raises(ValueError, match="expects"):
        proj(ad.Tensor(np.zeros((1, 5, 4, 4))), training=False)


def test_gradcheck_through_projector():
    rng = np.random.default_rng(2)
    proj = Projector(8, d=6, rng=substream(2, 0))
    x = ad.Tensor(rng.normal(size=(2, 8, 4, 4)), requires_grad=True)
    tensors = [x] + list(proj.params.values())
    target = rng.normal(size=(2, 6, 4, 4))

    def f():
        # freeze buffer side effects out of the finite-difference loop
        saved = {k: v.copy() for k, v in proj.buffers.items()}
        out = proj(x, training=True)
        for k, v in saved.items():
            proj.buffers[k][:] = v
        return ad.tsum(ad.mul(out, ad.Tensor(target)))

    worst = ad.check_gradients(f, tensors)
    assert worst < 1e-4


def test_eval_mode_deterministic_and_stateless():
    rng = np.random.default_rng(3)
    proj = Projector(5, d=4, rng=substream(3, 0))
    x = ad.Tensor(rng.normal(size=(2, 5, 6, 6)))
    saved = {k: v.copy() for k, v in proj.buffers.items()}
    with ad.no_grad():
        a = proj(x, training=False)
        b = proj(x, training=False)
    assert np.array_equal(a.data, b.data)
    for k, v in saved.items():
        assert np.array_equal(proj.buffers[k], v)


def test_training_mode_updates_running_stats():
    rng = np.random.default_rng(4)
    proj = Projector(5, d=4, rng=substream(4, 0))
    before = proj.buffers["b1.running_mean"].copy()
    with ad.no_grad():
        proj(ad.Tensor(rng.normal(size=(4, 5, 6, 6))), training=True)
    assert not np.array_equal(proj.buffers["b1.running_mean"], before)


def test_scales_have_independent_parameters():
    ms = MultiScaleProjector({4: 6, 8: 6, 16: 12, 32: 12}, d=16, seed=5)
    assert ms.heads[4] is not ms.heads[8]
    assert not np.array_equal(ms.heads[4].params["b1.w"].data, ms.heads[8].params["b1.w"].data)
    names = [n for n, _ in ms.named_parameters()]
    assert len(names) == len(set(names)) == 4 * 10


def test_project_all_maps_every_scale():
    rng = np.random.default_rng(6)
    ms = MultiScaleProjector({4: 3, 8: 5}, d=7, seed=6)
    feats = {
        4: ad.Tensor(rng.normal(size=(2, 3, 8, 8))),
        8: ad.Tensor(rng.normal(size=(2, 5, 4, 4))),
    }
    out = ms.project_all(feats, training=True)
    assert out[4].shape == (2, 7, 8, 8)
    assert out[8].shape == (2, 7, 4, 4)
