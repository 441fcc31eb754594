"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is define-by-run: the first operation touching a tensor that
requires gradients opens a fresh :class:`Tape`, later operations append to it
in execution order, and :func:`backward` replays the tape once in reverse.
The primitive set is exactly what the encoder, the projection heads and the
contrastive/cross-entropy losses need; there is no broadcasting beyond what
each primitive defines, no GPU path and no higher-order derivatives.

All kernels run on contiguous float64 numpy arrays so that central finite
differences with eps=1e-5 resolve analytic gradients to ~1e-4 relative error.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "no_grad",
    "backward",
    "add",
    "mul",
    "scale",
    "tsum",
    "matmul",
    "relu",
    "conv2d",
    "conv1x1",
    "batchnorm2d",
    "bilinear_upsample",
    "nearest_downsample",
    "l2_normalize_rows",
    "logsumexp",
    "softmax",
    "softmax_cross_entropy",
    "gather_positions",
    "contrastive_pair_loss",
    "finite_difference_grad",
    "check_gradients",
]

NORM_GUARD = 1e-12


class Tensor:
    """A dense n-d float64 array that can participate in a gradient tape.

    ``grad`` is lazily allocated by the backward sweep and always has the
    same shape as ``data``.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        if not self.data.flags.c_contiguous:
            self.data = np.ascontiguousarray(self.data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.tape: Tape | None = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def sum(self):
        return tsum(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of the primitive ops of one forward pass.

    Nodes are appended in execution order, which is a topological order by
    construction (an op's inputs exist before its output).  A tape supports
    exactly one backward sweep.  Ops record onto a module-level current tape
    that is created implicitly by the first gradient-tracking op and retired
    when :func:`backward` consumes it, so each training step rebuilds the
    graph from scratch.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False

    def _append(self, node: "_Node"):
        if self.consumed:
            raise RuntimeError("cannot record onto a consumed tape; rebuild the graph")
        self.nodes.append(node)


_CURRENT_TAPE: Tape | None = None


class _Node:
    __slots__ = ("name", "out", "inputs", "backward_fn")

    def __init__(self, name, out, inputs, backward_fn):
        self.name = name
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


_GRAD_ENABLED = [True]


class no_grad:
    """Context manager that disables tape recording (for eval-mode forwards)."""

    def __enter__(self):
        _GRAD_ENABLED.append(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.pop()
        return False


def _tracked(t) -> bool:
    return isinstance(t, Tensor) and t.requires_grad


def _record(name, inputs, out_data, backward_fn) -> Tensor:
    """Create the output tensor and, if any input is tracked, tape the op."""
    global _CURRENT_TAPE
    out = Tensor(out_data)
    if not _GRAD_ENABLED[-1]:
        return out
    tracked = [t for t in inputs if _tracked(t)]
    if not tracked:
        return out
    if _CURRENT_TAPE is None or _CURRENT_TAPE.consumed:
        _CURRENT_TAPE = Tape()
    out.requires_grad = True
    out.tape = _CURRENT_TAPE
    _CURRENT_TAPE._append(_Node(name, out, tracked, backward_fn))
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not _tracked(t):
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def backward(loss: Tensor):
    """Accumulate gradients of a scalar loss into every tracked ancestor.

    The loss's tape is marked consumed and replayed once in reverse, each
    node popped off it as the sweep passes.  Emptying the tape breaks the
    tensor -> tape -> node -> tensor cycle, so the graph is freed by reference
    counting once the caller drops the loss.  A constant loss (no
    gradient-requiring ancestors) is a no-op.  Non-finite gradients raise,
    naming the primitive that produced them.
    """
    global _CURRENT_TAPE
    if not isinstance(loss, Tensor) or loss.data.ndim != 0:
        shape = getattr(loss, "shape", None)
        raise ValueError(f"backward expects a scalar tensor, got shape {shape}")
    tape = loss.tape
    if tape is None:
        return
    if tape.consumed:
        raise RuntimeError("tape already consumed by a previous backward pass")
    tape.consumed = True
    if _CURRENT_TAPE is tape:
        _CURRENT_TAPE = None
    loss.grad = np.ones((), dtype=np.float64)
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        g = node.out.grad
        if g is None:
            continue
        node.backward_fn(g)
        for t in node.inputs:
            if t.grad is not None and not np.all(np.isfinite(t.grad)):
                raise FloatingPointError(f"non-finite gradient produced by op '{node.name}'")


# ---------------------------------------------------------------------------
# elementwise / reduction primitives
# ---------------------------------------------------------------------------


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _record("add", [a, b], a.data + b.data, bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul: shape mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _record("mul", [a, b], a.data * b.data, bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        _accum(a, g * c)

    return _record("scale", [a], a.data * c, bwd)


def tsum(a: Tensor) -> Tensor:
    """Full reduction to a scalar."""

    def bwd(g):
        _accum(a, np.full_like(a.data, float(g)))

    return _record("sum", [a], a.data.sum(), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}")

    def bwd(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _record("matmul", [a, b], a.data @ b.data, bwd)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0

    def bwd(g):
        _accum(a, g * mask)

    return _record("relu", [a], np.where(mask, a.data, 0.0), bwd)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution, NCHW layout, single integer stride and symmetric zero padding.

    x: (B, C, H, W), w: (O, C, kh, kw), b: (O,) or None.  The kernel loop runs
    over at most kh*kw BLAS calls, which is plenty fast for 1x1 and 3x3 kernels.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError(f"conv2d: expected 4-d operands, got {x.data.shape} and {w.data.shape}")
    B, C, H, W = x.data.shape
    O, Cw, kh, kw = w.data.shape
    if C != Cw:
        raise ValueError(f"conv2d: input has {C} channels but weight expects {Cw} (shapes {x.data.shape}, {w.data.shape})")
    if b is not None and b.data.shape != (O,):
        raise ValueError(f"conv2d: bias shape {b.data.shape} does not match {O} output channels")
    s, p = int(stride), int(padding)
    Ho = (H + 2 * p - kh) // s + 1
    Wo = (W + 2 * p - kw) // s + 1
    if Ho < 1 or Wo < 1:
        raise ValueError(f"conv2d: kernel {kh}x{kw} does not fit input {H}x{W} with stride {s}, padding {p}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    out = np.zeros((B, O, Ho, Wo))
    for i in range(kh):
        for j in range(kw):
            xs = xp[:, :, i : i + s * (Ho - 1) + 1 : s, j : j + s * (Wo - 1) + 1 : s]
            out += np.einsum("bcyx,oc->boyx", xs, w.data[:, :, i, j], optimize=True)
    if b is not None:
        out += b.data[None, :, None, None]

    inputs = [x, w] if b is None else [x, w, b]

    def bwd(g):
        gp = np.zeros_like(xp)
        dw = np.zeros_like(w.data)
        for i in range(kh):
            for j in range(kw):
                xs = xp[:, :, i : i + s * (Ho - 1) + 1 : s, j : j + s * (Wo - 1) + 1 : s]
                dw[:, :, i, j] = np.einsum("boyx,bcyx->oc", g, xs, optimize=True)
                gp[:, :, i : i + s * (Ho - 1) + 1 : s, j : j + s * (Wo - 1) + 1 : s] += np.einsum(
                    "boyx,oc->bcyx", g, w.data[:, :, i, j], optimize=True
                )
        _accum(x, gp[:, :, p : p + H, p : p + W] if p else gp)
        _accum(w, dw)
        if b is not None:
            _accum(b, g.sum(axis=(0, 2, 3)))

    return _record("conv2d", inputs, out, bwd)


def conv1x1(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Pointwise convolution: conv2d with a 1x1 kernel, stride 1, no padding."""
    if w.data.ndim != 4 or w.data.shape[2:] != (1, 1):
        raise ValueError(f"conv1x1: weight must be (O, C, 1, 1), got {w.data.shape}")
    return conv2d(x, w, b, stride=1, padding=0)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                running_var: np.ndarray, training: bool, momentum: float = 0.1,
                eps: float = 1e-5) -> Tensor:
    """Per-channel batch normalization over (B, H, W).

    Training mode uses batch statistics (biased variance) and updates the
    running buffers in place with the given momentum (unbiased variance, as is
    conventional); eval mode uses the running buffers.  ``running_mean`` and
    ``running_var`` are plain arrays, not tensors, and carry no gradient.
    """
    if x.data.ndim != 4:
        raise ValueError(f"batchnorm2d: expected (B, C, H, W), got {x.data.shape}")
    B, C, H, W = x.data.shape
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ValueError(f"batchnorm2d: gamma/beta must have shape ({C},)")
    n = B * H * W
    if training:
        if B < 2:
            raise ValueError("batchnorm2d: training mode requires batch size >= 2")
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var * (n / (n - 1))
    else:
        mean = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[None, :, None, None]) * inv[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def bwd(g):
        _accum(gamma, (g * xhat).sum(axis=(0, 2, 3)))
        _accum(beta, g.sum(axis=(0, 2, 3)))
        gi = gamma.data[None, :, None, None] * inv[None, :, None, None]
        if training:
            gm = g.mean(axis=(0, 2, 3))[None, :, None, None]
            gxm = (g * xhat).mean(axis=(0, 2, 3))[None, :, None, None]
            _accum(x, gi * (g - gm - xhat * gxm))
        else:
            _accum(x, gi * g)

    return _record("batchnorm2d", [x, gamma, beta], out, bwd)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Normalize each row of an (n, d) matrix to unit L2 norm.

    Rows with norm <= 1e-12 are divided by the guard constant instead, which
    avoids NaN without perturbing real embeddings.
    """
    if x.data.ndim != 2:
        raise ValueError(f"l2_normalize_rows: expected (n, d), got {x.data.shape}")
    norms = np.linalg.norm(x.data, axis=1)
    safe = norms > NORM_GUARD
    denom = np.maximum(norms, NORM_GUARD)[:, None]
    y = x.data / denom

    def bwd(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(x, np.where(safe[:, None], (g - y * dot) / denom, g / denom))

    return _record("l2_normalize_rows", [x], y, bwd)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


def _linear_coords(n_in: int, n_out: int):
    src = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    return i0, i1, src - i0


def _scatter_add_axis(dst: np.ndarray, idx: np.ndarray, src: np.ndarray, axis: int):
    np.add.at(np.moveaxis(dst, axis, 0), idx, np.moveaxis(src, axis, 0))


def bilinear_upsample(x: Tensor, size: tuple[int, int]) -> Tensor:
    """Bilinear resize of (B, C, h, w) to (B, C, H, W), half-pixel-center convention."""
    if x.data.ndim != 4:
        raise ValueError(f"bilinear_upsample: expected (B, C, h, w), got {x.data.shape}")
    H, W = int(size[0]), int(size[1])
    h, w = x.data.shape[2:]
    if H < h or W < w:
        raise ValueError(f"bilinear_upsample: target {H}x{W} smaller than input {h}x{w}")
    y0, y1, wy = _linear_coords(h, H)
    x0, x1, wx = _linear_coords(w, W)
    wy = wy[None, None, :, None]
    wx = wx[None, None, None, :]
    rows = x.data[:, :, y0, :] * (1.0 - wy) + x.data[:, :, y1, :] * wy
    out = rows[:, :, :, x0] * (1.0 - wx) + rows[:, :, :, x1] * wx

    def bwd(g):
        drows = np.zeros((x.data.shape[0], x.data.shape[1], H, w))
        _scatter_add_axis(drows, x0, g * (1.0 - wx), axis=3)
        _scatter_add_axis(drows, x1, g * wx, axis=3)
        dx = np.zeros_like(x.data)
        _scatter_add_axis(dx, y0, drows * (1.0 - wy), axis=2)
        _scatter_add_axis(dx, y1, drows * wy, axis=2)
        _accum(x, dx)

    return _record("bilinear_upsample", [x], out, bwd)


def nearest_downsample(x: Tensor, stride: int) -> Tensor:
    """Nearest-neighbor subsampling of (B, C, H, W) at cell centers.

    Output index i reads input index i*stride + stride//2 (clamped), the same
    convention the label pyramid uses, so features and labels stay aligned.
    """
    if stride < 1:
        raise ValueError(f"nearest_downsample: stride must be >= 1, got {stride}")
    if x.data.ndim != 4:
        raise ValueError(f"nearest_downsample: expected (B, C, H, W), got {x.data.shape}")
    H, W = x.data.shape[2:]
    ho = -(-H // stride)
    wo = -(-W // stride)
    rows = np.minimum(np.arange(ho) * stride + stride // 2, H - 1)
    cols = np.minimum(np.arange(wo) * stride + stride // 2, W - 1)
    out = x.data[:, :, rows, :][:, :, :, cols]

    def bwd(g):
        dcols = np.zeros((x.data.shape[0], x.data.shape[1], ho, W))
        _scatter_add_axis(dcols, cols, g, axis=3)
        dx = np.zeros_like(x.data)
        _scatter_add_axis(dx, rows, dcols, axis=2)
        _accum(x, dx)

    return _record("nearest_downsample", [x], out, bwd)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------


def logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    """log(sum(exp(x))) reduced along one axis, max-shifted for stability."""
    m = np.max(x.data, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(x.data - m).sum(axis=axis)) + m.squeeze(axis)

    def bwd(g):
        yb = np.expand_dims(out, axis)
        with np.errstate(invalid="ignore"):
            p = np.where(np.isfinite(yb), np.exp(x.data - yb), 0.0)
        _accum(x, p * np.expand_dims(g, axis))

    return _record("logsumexp", [x], out, bwd)


def softmax(x: Tensor, axis: int = 1) -> Tensor:
    m = np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    p = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        _accum(x, p * (g - (p * g).sum(axis=axis, keepdims=True)))

    return _record("softmax", [x], p, bwd)


def softmax_cross_entropy(pred: Tensor, target: np.ndarray, ignore_index: int = 255) -> Tensor:
    """Mean per-pixel cross entropy of (B, Nc, H, W) logits against integer labels.

    Pixels equal to ``ignore_index`` are excluded from the mean; an entirely
    ignored target is an error.
    """
    if pred.data.ndim != 4:
        raise ValueError(f"softmax_cross_entropy: expected (B, Nc, H, W) logits, got {pred.data.shape}")
    target = np.asarray(target)
    if target.shape != (pred.data.shape[0],) + pred.data.shape[2:]:
        raise ValueError(
            f"softmax_cross_entropy: target shape {target.shape} does not match logits {pred.data.shape}"
        )
    nc = pred.data.shape[1]
    mask = target != ignore_index
    n_valid = int(mask.sum())
    if n_valid == 0:
        raise ValueError("softmax_cross_entropy: all pixels ignored")
    if target[mask].min() < 0 or target[mask].max() >= nc:
        raise ValueError(f"softmax_cross_entropy: label outside [0, {nc}) encountered")

    m = pred.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(pred.data - m).sum(axis=1)) + m[:, 0]
    tgt = np.where(mask, target, 0)
    picked = np.take_along_axis(pred.data, tgt[:, None], axis=1)[:, 0]
    loss = float(((lse - picked) * mask).sum() / n_valid)

    def bwd(g):
        soft = np.exp(pred.data - lse[:, None])
        onehot = np.zeros_like(pred.data)
        np.put_along_axis(onehot, tgt[:, None], 1.0, axis=1)
        _accum(pred, (soft - onehot) * mask[:, None] * (float(g) / n_valid))

    return _record("softmax_cross_entropy", [pred], np.float64(loss), bwd)


# ---------------------------------------------------------------------------
# gather and the contrastive kernel
# ---------------------------------------------------------------------------


def gather_positions(x: Tensor, b_idx: np.ndarray, r_idx: np.ndarray, c_idx: np.ndarray) -> Tensor:
    """Gather feature vectors at (batch, row, col) positions of a (B, C, h, w) map into (N, C)."""
    if x.data.ndim != 4:
        raise ValueError(f"gather_positions: expected (B, C, h, w), got {x.data.shape}")
    B, C, h, w = x.data.shape
    b_idx = np.asarray(b_idx, dtype=np.intp)
    r_idx = np.asarray(r_idx, dtype=np.intp)
    c_idx = np.asarray(c_idx, dtype=np.intp)
    if np.any(b_idx < 0) or np.any(b_idx >= B) or np.any(r_idx < 0) or np.any(r_idx >= h) \
            or np.any(c_idx < 0) or np.any(c_idx >= w):
        raise ValueError("gather_positions: index out of bounds")
    lin = (b_idx * h + r_idx) * w + c_idx
    flat = x.data.transpose(0, 2, 3, 1).reshape(B * h * w, C)
    out = flat[lin].copy()

    def bwd(g):
        acc = np.zeros((B * h * w, C))
        np.add.at(acc, lin, g)
        _accum(x, acc.reshape(B, h, w, C).transpose(0, 3, 1, 2))

    return _record("gather_positions", [x], out, bwd)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def contrastive_pair_loss(a: Tensor, b: Tensor, a_classes: np.ndarray, b_classes: np.ndarray,
                          tau: float, same_rows: bool = False, block: int = 1024) -> Tensor:
    """Supervised InfoNCE of the rows of ``a`` against the rows of ``b``.

    This is the pair rule of every contrastive loss in the package: row j of
    ``b`` is a positive of row i of ``a`` when their class ids are equal and a
    negative when they differ.  ``same_rows`` says that ``a`` and ``b`` hold
    the same anchors in the same order, so that the diagonal pairs an anchor
    with itself; an anchor is never its own positive, and the diagonal is then
    neither positive nor negative.

    For each row i with at least one positive, the per-pair term for a
    positive j is softplus(logsumexp_n(s_in) - s_ij) with s = (a @ b.T)/tau,
    i.e. the -log of the softmax of the positive against that row's negatives.
    Terms are averaged over positives per row, then over contributing rows.
    Rows without negatives contribute 0.  Gradients flow into both ``a`` and
    ``b`` (which may be the same tensor).

    Computed in row blocks so neither the (n, m) similarity matrix nor the
    pair masks are ever materialized whole; the backward pass recomputes each
    block.
    """
    if tau <= 0:
        raise ValueError(f"contrastive_pair_loss: temperature must be positive, got {tau}")
    n, d = a.data.shape
    m, d2 = b.data.shape
    if d != d2:
        raise ValueError(f"contrastive_pair_loss: embedding widths differ ({d} vs {d2})")
    a_classes, b_classes = np.asarray(a_classes), np.asarray(b_classes)
    if a_classes.shape != (n,) or b_classes.shape != (m,) or (same_rows and n != m):
        raise ValueError(f"contrastive_pair_loss: class ids {a_classes.shape}, {b_classes.shape} do not "
                         f"label {n} and {m} rows{' of one set' if same_rows else ''}")

    def masks(lo, hi):
        pos = a_classes[lo:hi, None] == b_classes[None, :]
        neg = ~pos
        if same_rows:
            pos[np.arange(hi - lo), np.arange(lo, hi)] = False
        return pos, neg

    inv_tau = 1.0 / float(tau)
    ld = np.full(n, -np.inf)
    pcount = np.zeros(n, dtype=np.int64)
    total = 0.0
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        pos, neg = masks(lo, hi)
        s = (a.data[lo:hi] @ b.data.T) * inv_tau
        if not np.all(np.isfinite(s)):
            raise FloatingPointError("contrastive_pair_loss: non-finite similarity")
        sn = np.where(neg, s, -np.inf)
        mx = np.max(sn, axis=1)
        fin = np.isfinite(mx)
        with np.errstate(divide="ignore"):
            ld_blk = np.where(
                fin, np.log(np.exp(sn - np.where(fin, mx, 0.0)[:, None]).sum(axis=1)) + np.where(fin, mx, 0.0),
                -np.inf,
            )
        ld[lo:hi] = ld_blk
        pcount[lo:hi] = pos.sum(axis=1)
        terms = np.where(pos, np.logaddexp(0.0, ld_blk[:, None] - s), 0.0)
        rows = pcount[lo:hi] > 0
        total += float((terms.sum(axis=1)[rows] / pcount[lo:hi][rows]).sum())
    contributing = pcount > 0
    n_contrib = int(contributing.sum())
    if n_contrib == 0:
        raise ValueError("no positive pairs")
    value = total / n_contrib

    def bwd(g):
        g = float(g)
        db = np.zeros_like(b.data)
        da = np.zeros_like(a.data)
        coef = np.where(contributing, g / (np.maximum(pcount, 1) * n_contrib), 0.0)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            pos, neg = masks(lo, hi)
            s = (a.data[lo:hi] @ b.data.T) * inv_tau
            sig = _sigmoid(ld[lo:hi][:, None] - s)
            gpos = np.where(pos, sig * coef[lo:hi][:, None], 0.0)
            ci = gpos.sum(axis=1)
            fin = np.isfinite(ld[lo:hi])
            with np.errstate(invalid="ignore"):
                wneg = np.where(
                    neg & fin[:, None],
                    np.exp(s - np.where(fin, ld[lo:hi], 0.0)[:, None]),
                    0.0,
                )
            gs = ci[:, None] * wneg - gpos
            da[lo:hi] = (gs @ b.data) * inv_tau
            db += (gs.T @ a.data[lo:hi]) * inv_tau
        _accum(a, da)
        _accum(b, db)

    return _record("contrastive_pair_loss", [a, b] if a is not b else [a], np.float64(value), bwd)


# ---------------------------------------------------------------------------
# finite-difference checking
# ---------------------------------------------------------------------------


def finite_difference_grad(f, t: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the scalar ``f()`` with respect to ``t.data``."""
    g = np.zeros_like(t.data)
    flat = t.data.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        with no_grad():
            fp = float(f().data)
        flat[i] = orig - eps
        with no_grad():
            fm = float(f().data)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return g


def check_gradients(f, tensors, eps: float = 1e-5, rtol: float = 1e-4, atol: float = 1e-7):
    """Compare analytic gradients of the scalar ``f()`` against central differences.

    Returns the worst relative error over all checked tensors.  Raises
    AssertionError if |analytic - numeric| > max(rtol * max(|analytic|,
    |numeric|), atol) anywhere.
    """
    for t in tensors:
        t.zero_grad()
    loss = f()
    backward(loss)
    worst = 0.0
    for t in tensors:
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        num = finite_difference_grad(f, t, eps=eps)
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), atol / rtol)
        err = np.abs(ana - num) / denom
        worst = max(worst, float(err.max()) if err.size else 0.0)
        if not np.all(np.abs(ana - num) <= np.maximum(rtol * np.maximum(np.abs(ana), np.abs(num)), atol)):
            idx = np.unravel_index(np.argmax(err), err.shape)
            raise AssertionError(
                f"gradient mismatch at index {idx}: analytic {ana[idx]:.10g} vs numeric {num[idx]:.10g} "
                f"(rel err {err[idx]:.3g})"
            )
    return worst
