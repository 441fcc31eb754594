"""Encoder/head/projector integration: shapes, probability semantics, and
gradient flow through the full network."""

import numpy as np
import pytest

from mscontrast import autodiff as ad
from mscontrast.labels import build_pyramid
from mscontrast.losses import LossConfig, total_loss
from mscontrast.model import ENCODER_CHANNELS, Encoder, SegHead, ToySegNet
from mscontrast.sampling import SamplerRng, build_pool, sample_anchor_set


def test_feature_shapes_64():
    enc = Encoder(seed=0)
    x = ad.Tensor(np.random.default_rng(0).normal(size=(2, 3, 64, 64)))
    with ad.no_grad():
        feats = enc(x, training=True)
    shapes = {s: f.shape for s, f in feats.items()}
    assert shapes == {
        4: (2, 32, 16, 16), 8: (2, 64, 8, 8), 16: (2, 96, 4, 4), 32: (2, 128, 2, 2)}


def test_zero_weights_zero_input_zero_features():
    enc = Encoder(seed=1)
    for name, p in enc.params.items():
        if name.endswith(".w") or name.endswith(".b") or name.endswith(".beta"):
            p.data[:] = 0.0
    x = ad.Tensor(np.zeros((1, 3, 32, 32)))
    with ad.no_grad():
        feats = enc(x, training=False)
    for f in feats.values():
        assert np.all(f.data == 0.0)


def test_indivisible_input_rejected():
    enc = Encoder(seed=2)
    with pytest.raises(ValueError, match="divisible by 32"):
        enc(ad.Tensor(np.zeros((1, 3, 48, 64))), training=False)
    with pytest.raises(ValueError, match=r"\(B, 3, H, W\)"):
        enc(ad.Tensor(np.zeros((1, 4, 64, 64))), training=False)


def test_uniform_logits_give_uniform_probabilities():
    model = ToySegNet(n_classes=5, d=8, seed=3)
    for name, p in model.head.params.items():
        p.data[:] = 0.0
    x = ad.Tensor(np.random.default_rng(3).normal(size=(2, 3, 32, 32)))
    probs = model.segment(x, training=False)
    assert np.allclose(probs.data, 0.2, atol=1e-12)


def test_probabilities_sum_to_one():
    model = ToySegNet(n_classes=4, d=8, seed=4)
    x = ad.Tensor(np.random.default_rng(4).random(size=(2, 3, 32, 32)))
    probs = model.segment(x, training=False)
    assert probs.shape == (2, 4, 32, 32)
    assert np.all(np.abs(probs.data.sum(axis=1) - 1.0) < 1e-9)


def test_predict_matches_argmax_oracle():
    model = ToySegNet(n_classes=5, d=8, seed=5)
    x = ad.Tensor(np.random.default_rng(5).random(size=(2, 3, 32, 32)))
    pred = model.predict(x)
    with ad.no_grad():
        probs = model.segment(x, training=False).data
    for b in range(2):
        for i in range(32):
            for j in range(32):
                best = max(range(5), key=lambda c: probs[b, c, i, j])
                assert pred[b, i, j] == best


def test_missing_scale_rejected():
    head = SegHead(n_classes=3, seed=6)
    feats = {4: ad.Tensor(np.zeros((1, ENCODER_CHANNELS[4], 8, 8)))}
    with pytest.raises(ValueError, match="stride 8"):
        head.scale_logits(feats)


def test_neck_position_projects_logit_maps():
    model = ToySegNet(n_classes=5, d=8, seed=7, loss_position="neck")
    assert model.projectors.heads[4].in_channels == 5
    x = ad.Tensor(np.random.default_rng(7).random(size=(2, 3, 32, 32)))
    with ad.no_grad():
        _, projected = model.forward(x, training=True)
    assert projected[4].shape == (2, 8, 8, 8)
    assert projected[32].shape == (2, 8, 1, 1)


def test_encode_head_gradcheck():
    # finite differences through all 8 conv layers, the BNs and the fused
    # upsampled head; restricted to bias/gain tensors to keep the probe count
    # tractable, which still crosses every layer's backward
    model = ToySegNet(n_classes=3, d=8, seed=8)
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.random(size=(2, 3, 32, 32)))
    target = rng.integers(0, 3, size=(2, 32, 32))
    checked = [model.encoder.params["c1.b"], model.encoder.params["c4.gamma"],
               model.head.params["h4.b"], model.head.params["h32.b"]]
    saved = {k: v.copy() for k, v in model.encoder.buffers.items()}

    def f():
        for k, v in saved.items():
            model.encoder.buffers[k][:] = v
        feats = model.encoder(x, training=True)
        logits = model.head.logits(feats, (32, 32))
        return ad.softmax_cross_entropy(logits, target)

    worst = ad.check_gradients(f, checked)
    assert worst < 1e-4


def test_total_loss_reaches_every_parameter():
    model = ToySegNet(n_classes=5, d=8, seed=9)
    cfg = LossConfig(a_max=256)
    rng = np.random.default_rng(9)
    image = ad.Tensor(rng.random(size=(2, 3, 32, 32)))
    labels = rng.integers(0, 5, size=(2, 32, 32))

    logits, projected = model.forward(image, training=True)
    ce = ad.softmax_cross_entropy(logits, labels)
    pyramid = build_pyramid(labels, [4, 8, 16, 32])
    srng = SamplerRng(0)
    sets = {
        s: sample_anchor_set(build_pool(pyramid[s], s), projected[s], cfg.a_max,
                             srng.stream(0, s))
        for s in (4, 8, 16, 32)
    }
    loss = total_loss(ce, sets, cfg)
    ad.backward(loss)

    missing = [name for name, p in model.named_parameters()
               if p.grad is None or not np.any(p.grad != 0)]
    assert missing == [], f"parameters without gradient: {missing}"
