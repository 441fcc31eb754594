"""The toy segmentation network: encoder, per-scale heads, projectors.

The encoder is eight plain 3x3 conv-BN-ReLU layers arranged in four stride-2
stages, emitting feature maps at output strides 4, 8, 16 and 32 with channel
widths (32, 64, 96, 128).  The segmentation head maps each scale to class
logits with a 1x1 conv, upsamples bilinearly to input resolution and sums;
the argmax of that sum is the per-pixel prediction.  Contrastive projectors
attach either to the raw encoder features ("backbone") or to the per-scale
class-logit maps ("neck").
"""

import numpy as np

from . import autodiff as ad
from .projector import EMBED_DIM_DEFAULT, MultiScaleProjector, bias_uniform, kaiming_uniform
from .sampling import substream

ENCODER_CHANNELS = {4: 32, 8: 64, 16: 96, 32: 128}
STRIDES = (4, 8, 16, 32)

# (layer name, in channels, out channels, stride, feature-map stride emitted after it)
_ENCODER_PLAN = (
    ("c1", 3, 32, 2, None),
    ("c2", 32, 32, 2, 4),
    ("c3", 32, 64, 2, None),
    ("c4", 64, 64, 1, 8),
    ("c5", 64, 96, 2, None),
    ("c6", 96, 96, 1, 16),
    ("c7", 96, 128, 2, None),
    ("c8", 128, 128, 1, 32),
)


class Encoder:
    def __init__(self, seed: int = 0):
        self.params = {}
        self.buffers = {}
        for name, cin, cout, _, _ in _ENCODER_PLAN:
            rng = substream(seed, 0, int(name[1:]))
            fan_in = cin * 9
            self.params[f"{name}.w"] = ad.Tensor(
                kaiming_uniform(rng, (cout, cin, 3, 3), fan_in), requires_grad=True)
            self.params[f"{name}.b"] = ad.Tensor(bias_uniform(rng, cout, fan_in), requires_grad=True)
            self.params[f"{name}.gamma"] = ad.Tensor(np.ones(cout), requires_grad=True)
            self.params[f"{name}.beta"] = ad.Tensor(np.zeros(cout), requires_grad=True)
            self.buffers[f"{name}.running_mean"] = np.zeros(cout)
            self.buffers[f"{name}.running_var"] = np.ones(cout)

    def __call__(self, x: ad.Tensor, training: bool) -> dict:
        """(B, 3, H, W) image, H and W divisible by 32 -> {stride: features}."""
        if x.data.ndim != 4 or x.data.shape[1] != 3:
            raise ValueError(f"expected (B, 3, H, W) input, got {x.data.shape}")
        H, W = x.data.shape[2:]
        if H % 32 or W % 32:
            raise ValueError(f"input dims must be divisible by 32, got {H}x{W}")
        feats = {}
        h = x
        for name, _, _, stride, emit in _ENCODER_PLAN:
            h = ad.conv2d(h, self.params[f"{name}.w"], self.params[f"{name}.b"],
                          stride=stride, padding=1)
            h = ad.batchnorm2d(
                h, self.params[f"{name}.gamma"], self.params[f"{name}.beta"],
                self.buffers[f"{name}.running_mean"], self.buffers[f"{name}.running_var"],
                training=training)
            h = ad.relu(h)
            if emit is not None:
                feats[emit] = h
        return feats


class SegHead:
    """Per-scale 1x1 class-logit convs fused by upsample-and-sum."""

    def __init__(self, n_classes: int, seed: int = 0):
        self.n_classes = int(n_classes)
        self.params = {}
        for s in STRIDES:
            rng = substream(seed, 1, s)
            c = ENCODER_CHANNELS[s]
            self.params[f"h{s}.w"] = ad.Tensor(
                kaiming_uniform(rng, (self.n_classes, c, 1, 1), c), requires_grad=True)
            self.params[f"h{s}.b"] = ad.Tensor(bias_uniform(rng, self.n_classes, c), requires_grad=True)

    def scale_logits(self, feats: dict) -> dict:
        for s in STRIDES:
            if s not in feats:
                raise ValueError(f"missing feature map for stride {s}")
        return {s: ad.conv1x1(feats[s], self.params[f"h{s}.w"], self.params[f"h{s}.b"])
                for s in STRIDES}

    def fuse(self, scale_logits: dict, size) -> ad.Tensor:
        total = None
        for s in STRIDES:
            up = ad.bilinear_upsample(scale_logits[s], size)
            total = up if total is None else ad.add(total, up)
        return total

    def logits(self, feats: dict, size) -> ad.Tensor:
        return self.fuse(self.scale_logits(feats), size)


class ToySegNet:
    """Encoder + segmentation head + per-scale contrastive projectors."""

    def __init__(self, n_classes: int = 5, d: int = EMBED_DIM_DEFAULT, seed: int = 0,
                 loss_position: str = "backbone"):
        if loss_position not in ("backbone", "neck"):
            raise ValueError(f"loss_position must be 'backbone' or 'neck', got {loss_position!r}")
        self.n_classes = int(n_classes)
        self.loss_position = loss_position
        self.encoder = Encoder(seed)
        self.head = SegHead(n_classes, seed)
        proj_channels = ENCODER_CHANNELS if loss_position == "backbone" \
            else {s: self.n_classes for s in STRIDES}
        self.projectors = MultiScaleProjector(proj_channels, d=d, seed=seed)

    def forward(self, image: ad.Tensor, training: bool):
        """Returns (fused logits B x Nc x H x W, projected maps {stride: B x d x h x w})."""
        feats = self.encoder(image, training)
        scale_logits = self.head.scale_logits(feats)
        fused = self.head.fuse(scale_logits, image.data.shape[2:])
        source = feats if self.loss_position == "backbone" else scale_logits
        projected = self.projectors.project_all(source, training)
        return fused, projected

    def predict(self, image: ad.Tensor) -> np.ndarray:
        """Per-pixel class ids: the argmax of the fused logits."""
        with ad.no_grad():
            logits = self.head.logits(self.encoder(image, training=False), image.data.shape[2:])
        return np.argmax(logits.data, axis=1)

    def named_parameters(self):
        for name, p in self.encoder.params.items():
            yield f"enc.{name}", p
        for name, p in self.head.params.items():
            yield f"head.{name}", p
        yield from self.projectors.named_parameters()

    def named_buffers(self):
        for name, b in self.encoder.buffers.items():
            yield f"enc.{name}", b
        yield from self.projectors.named_buffers()
