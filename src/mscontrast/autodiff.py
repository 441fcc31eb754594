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
    "relu",
    "conv2d",
    "conv1x1",
    "batchnorm2d",
    "bilinear_upsample",
    "l2_normalize_rows",
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

    x: (B, C, H, W), w: (O, C, kh, kw), b: (O,) or None.  The input is
    unfolded into columns (B, C*kh*kw, Ho*Wo) by kh*kw strided copies, and the
    convolution is one batched GEMM of the (O, C*kh*kw) weight with them; a
    1x1 kernel with stride 1 and no padding uses the input itself as its
    columns.  The backward pass unfolds the input again rather than holding
    the columns between the passes, and folds the column gradient back with
    the same kh*kw strided adds.
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

    pointwise = kh == kw == s == 1 and p == 0

    def columns():
        """(B, C*kh*kw, Ho*Wo), rows in the (C, kh, kw) order of the weight."""
        if pointwise:
            return x.data.reshape(B, C, H * W)
        xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
        cols = np.empty((B, C, kh, kw, Ho, Wo))
        for i in range(kh):
            for j in range(kw):
                cols[:, :, i, j] = xp[:, :, i : i + s * (Ho - 1) + 1 : s, j : j + s * (Wo - 1) + 1 : s]
        return cols.reshape(B, C * kh * kw, Ho * Wo)

    w2 = w.data.reshape(O, C * kh * kw)
    out = (w2 @ columns()).reshape(B, O, Ho, Wo)
    if b is not None:
        out += b.data[None, :, None, None]

    inputs = [x, w] if b is None else [x, w, b]

    def bwd(g):
        g2 = g.reshape(B, O, Ho * Wo)
        _accum(w, (g2 @ columns().transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape))
        if b is not None:
            _accum(b, g.sum(axis=(0, 2, 3)))
        dcols = w2.T @ g2
        if pointwise:
            _accum(x, dcols.reshape(B, C, H, W))
            return
        dc = dcols.reshape(B, C, kh, kw, Ho, Wo)
        dxp = np.zeros((B, C, H + 2 * p, W + 2 * p))
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i : i + s * (Ho - 1) + 1 : s, j : j + s * (Wo - 1) + 1 : s] += dc[:, :, i, j]
        _accum(x, dxp[:, :, p : p + H, p : p + W] if p else dxp)

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


def _interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) linear interpolation weights at half-pixel-center source coordinates."""
    src = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.intp)
    frac = src - i0
    r = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    r[rows, i0] += 1.0 - frac
    r[rows, np.minimum(i0 + 1, n_in - 1)] += frac
    return r


def bilinear_upsample(x: Tensor, size: tuple[int, int]) -> Tensor:
    """Bilinear resize of (B, C, h, w) to (B, C, H, W), half-pixel-center convention.

    Separable: out = ry @ x @ rx.T with the (H, h) and (W, w) interpolation
    matrices, and the backward pass is ry.T @ g @ rx.
    """
    if x.data.ndim != 4:
        raise ValueError(f"bilinear_upsample: expected (B, C, h, w), got {x.data.shape}")
    H, W = int(size[0]), int(size[1])
    h, w = x.data.shape[2:]
    if H < h or W < w:
        raise ValueError(f"bilinear_upsample: target {H}x{W} smaller than input {h}x{w}")
    ry = _interp_matrix(h, H)
    rx = _interp_matrix(w, W)

    def bwd(g):
        _accum(x, ry.T @ g @ rx)

    return _record("bilinear_upsample", [x], ry @ x.data @ rx.T, bwd)


# ---------------------------------------------------------------------------
# cross-entropy
# ---------------------------------------------------------------------------


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
    B, _, h, w = x.data.shape
    b_idx = np.asarray(b_idx, dtype=np.intp)
    r_idx = np.asarray(r_idx, dtype=np.intp)
    c_idx = np.asarray(c_idx, dtype=np.intp)
    if np.any(b_idx < 0) or np.any(b_idx >= B) or np.any(r_idx < 0) or np.any(r_idx >= h) \
            or np.any(c_idx < 0) or np.any(c_idx >= w):
        raise ValueError("gather_positions: index out of bounds")
    index = (b_idx, slice(None), r_idx, c_idx)

    def bwd(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, index, g)  # repeated positions sum their gradients
        _accum(x, dx)

    return _record("gather_positions", [x], x.data[index], bwd)


CONTRASTIVE_BLOCK = 1024  # rows of the similarity matrix held at once


def contrastive_pair_loss(a: Tensor, b: Tensor, a_classes: np.ndarray, b_classes: np.ndarray,
                          tau: float, same_rows: bool = False) -> Tensor:
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

    Computed in blocks of ``CONTRASTIVE_BLOCK`` rows so neither the (n, m)
    similarity matrix nor the pair masks are ever materialized whole.  When
    the op is taped, the same pass over a block also yields its gradient,
    from the softplus terms and the negatives' exponentials it already holds;
    the backward pass only scales it.
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

    taped = _GRAD_ENABLED[-1] and (_tracked(a) or _tracked(b))
    if taped:
        da, db = np.zeros_like(a.data), np.zeros_like(b.data)
    inv_tau = 1.0 / float(tau)
    n_contrib = 0
    total = 0.0
    for lo in range(0, n, CONTRASTIVE_BLOCK):
        hi = min(lo + CONTRASTIVE_BLOCK, n)
        pos = a_classes[lo:hi, None] == b_classes[None, :]
        neg = ~pos
        if same_rows:
            pos[np.arange(hi - lo), np.arange(lo, hi)] = False
        s = (a.data[lo:hi] @ b.data.T) * inv_tau
        if not np.all(np.isfinite(s)):
            raise FloatingPointError("contrastive_pair_loss: non-finite similarity")
        sn = np.where(neg, s, -np.inf)
        mx = np.max(sn, axis=1)
        fin = np.isfinite(mx)
        shift = np.where(fin, mx, 0.0)
        e = np.exp(sn - shift[:, None])
        esum = e.sum(axis=1)
        with np.errstate(divide="ignore"):
            ld = np.where(fin, np.log(esum) + shift, -np.inf)
        x = ld[:, None] - s
        sp = np.logaddexp(0.0, x)
        pcount = pos.sum(axis=1)
        rows = pcount > 0
        n_contrib += int(rows.sum())
        total += float((np.where(pos, sp, 0.0).sum(axis=1)[rows] / pcount[rows]).sum())
        if taped:
            # d(row mean)/ds: -sigmoid(x) / pcount on positives, and through
            # ld the negatives' softmax weighted by the positives' sum
            gpos = np.where(pos, np.exp(x - sp), 0.0) / np.maximum(pcount, 1)[:, None]
            gs = gpos.sum(axis=1)[:, None] * (e / np.where(fin, esum, 1.0)[:, None]) - gpos
            da[lo:hi] = gs @ b.data
            db += gs.T @ a.data[lo:hi]
    if n_contrib == 0:
        raise ValueError("no positive pairs")

    def bwd(g):
        c = float(g) * inv_tau / n_contrib
        _accum(a, da * c)
        _accum(b, db * c)

    return _record("contrastive_pair_loss", [a, b] if a is not b else [a], np.float64(total / n_contrib), bwd)


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
