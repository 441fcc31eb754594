"""Per-scale projection heads mapping encoder features to the shared embedding space.

Each scale owns an independent projector: two Conv1x1-ReLU-BN blocks at the
input width followed by a linear Conv1x1 down (or up) to the embedding width
d.  1x1 kernels preserve the spatial dimensions, so projected maps stay
aligned with the label pyramid.
"""

import numpy as np

from . import autodiff as ad

EMBED_DIM_DEFAULT = 256


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def bias_uniform(rng: np.random.Generator, n: int, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=n)


class Projector:
    """Conv1x1-ReLU-BN, Conv1x1-ReLU-BN, then a linear Conv1x1 to d channels."""

    def __init__(self, in_channels: int, d: int = EMBED_DIM_DEFAULT, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        c = int(in_channels)
        self.in_channels = c
        self.d = int(d)
        self.params = {}
        self.buffers = {}
        for name in ("b1", "b2"):
            self.params[f"{name}.w"] = ad.Tensor(kaiming_uniform(rng, (c, c, 1, 1), c), requires_grad=True)
            self.params[f"{name}.b"] = ad.Tensor(bias_uniform(rng, c, c), requires_grad=True)
            self.params[f"{name}.gamma"] = ad.Tensor(np.ones(c), requires_grad=True)
            self.params[f"{name}.beta"] = ad.Tensor(np.zeros(c), requires_grad=True)
            self.buffers[f"{name}.running_mean"] = np.zeros(c)
            self.buffers[f"{name}.running_var"] = np.ones(c)
        self.params["out.w"] = ad.Tensor(kaiming_uniform(rng, (self.d, c, 1, 1), c), requires_grad=True)
        self.params["out.b"] = ad.Tensor(bias_uniform(rng, self.d, c), requires_grad=True)

    def __call__(self, x: ad.Tensor, training: bool) -> ad.Tensor:
        if x.data.ndim != 4 or x.data.shape[1] != self.in_channels:
            raise ValueError(
                f"projector expects (B, {self.in_channels}, h, w), got {x.data.shape}")
        h = x
        for name in ("b1", "b2"):
            h = ad.conv1x1(h, self.params[f"{name}.w"], self.params[f"{name}.b"])
            h = ad.relu(h)
            h = ad.batchnorm2d(
                h, self.params[f"{name}.gamma"], self.params[f"{name}.beta"],
                self.buffers[f"{name}.running_mean"], self.buffers[f"{name}.running_var"],
                training=training)
        return ad.conv1x1(h, self.params["out.w"], self.params["out.b"])


class MultiScaleProjector:
    """One independent projector per stride, all sharing the embedding width."""

    def __init__(self, channels_by_stride: dict, d: int = EMBED_DIM_DEFAULT, seed: int = 0):
        from .sampling import substream

        self.d = int(d)
        self.heads = {
            int(s): Projector(c, d, substream(seed, 4, s))
            for s, c in sorted(channels_by_stride.items())
        }

    def project_all(self, features: dict, training: bool) -> dict:
        return {s: self.heads[s](f, training) for s, f in features.items()}

    def named_parameters(self):
        for s, head in sorted(self.heads.items()):
            for name, p in head.params.items():
                yield f"proj{s}.{name}", p

    def named_buffers(self):
        for s, head in sorted(self.heads.items()):
            for name, b in head.buffers.items():
                yield f"proj{s}.{name}", b
