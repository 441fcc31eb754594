"""Reference computations the benchmark checks the program's outputs against.

Each function is written from the definitions, not from the package's code:
per-anchor loops, per-class-pair counts and full pairwise matrices where the
package uses blocked or vectorized forms.  The one summed form, R over a
whole split, is checked against all pairs on a subset.  They are slow and run
only in the check phase after the timed part of a run.  Their own tests are
in ``tests/test_reference.py``.
"""

import numpy as np

IGNORE = 255


def center_pick(labels: np.ndarray, stride: int) -> np.ndarray:
    """Label of the pixel at the center of each stride x stride cell.

    Cell (i, j) reads pixel (i*stride + stride//2, j*stride + stride//2),
    clamped to the map, for (B, H, W) label maps.
    """
    _, H, W = labels.shape
    rows = [min(i * stride + stride // 2, H - 1) for i in range(-(-H // stride))]
    cols = [min(j * stride + stride // 2, W - 1) for j in range(-(-W // stride))]
    return labels[:, rows][:, :, cols]


def info_nce(a: np.ndarray, class_a: np.ndarray, b: np.ndarray, class_b: np.ndarray,
             tau: float, same_set: bool) -> float:
    """Supervised InfoNCE of anchors ``a`` against the set ``b``, from the definition.

    For anchor i and each positive j (same class; j != i when ``same_set``)
    the term is -log(e^{s_ij} / (e^{s_ij} + sum_n e^{s_in})), s = a.b / tau,
    n over anchors of ``b`` of another class.  Terms are averaged over the
    positives of an anchor, then over anchors that have a positive.
    """
    sim = (a @ b.T) / tau
    per_anchor = []
    for i in range(a.shape[0]):
        pos = class_b == class_a[i]
        if same_set:
            pos[i] = False
        if not pos.any():
            continue
        neg_sims = sim[i, class_b != class_a[i]]
        if neg_sims.size == 0:
            per_anchor.append(0.0)
            continue
        # -log(e^{s_ij} / (e^{s_ij} + sum_n e^{s_in})) = log(1 + e^{lse_n(s_in) - s_ij})
        m = neg_sims.max()
        lse = m + np.log(np.exp(neg_sims - m).sum())
        per_anchor.append(float(np.mean(np.logaddexp(0.0, lse - sim[i, pos]))))
    if not per_anchor:
        raise ValueError("no anchor has a positive")
    return float(np.mean(per_anchor))


def cross_info_nce(a, class_a, b, class_b, tau: float) -> float:
    """Mean of the two directed cross-set losses."""
    return 0.5 * (info_nce(a, class_a, b, class_b, tau, same_set=False)
                  + info_nce(b, class_b, a, class_a, tau, same_set=False))


def confusion_counts(pred: np.ndarray, gt: np.ndarray, n_classes: int) -> np.ndarray:
    """Confusion matrix counted one class pair at a time; rows ground truth."""
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    valid = gt != IGNORE
    for g in range(n_classes):
        gmask = valid & (gt == g)
        for p in range(n_classes):
            cm[g, p] = int(np.count_nonzero(gmask & (pred == p)))
    return cm


def iou_from_confusion(cm: np.ndarray):
    """Per-class IoU (nan where a class is in neither prediction nor truth) and its mean."""
    n = cm.shape[0]
    per_class = np.full(n, np.nan)
    for c in range(n):
        tp = cm[c, c]
        union = cm[c, :].sum() + cm[:, c].sum() - tp
        if union > 0:
            per_class[c] = tp / union
    present = ~np.isnan(per_class)
    return per_class, float(per_class[present].mean())


def separation_ratio_pairwise(emb: np.ndarray, classes: np.ndarray) -> float:
    """Mean intra-class over mean inter-class cosine distance, over every unordered pair."""
    unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    dist = 1.0 - unit @ unit.T
    iu, ju = np.triu_indices(len(classes), k=1)
    same = classes[iu] == classes[ju]
    d = dist[iu, ju]
    return float(d[same].mean() / d[~same].mean())


def separation_ratio_sums(emb: np.ndarray, classes: np.ndarray) -> float:
    """The same ratio from per-class Gram sums, for sets too large for all pairs.

    The summed cosine similarity over the pairs inside a group of m unit rows
    is the sum of its Gram matrix minus the diagonal, halved:
    (|sum of rows|^2 - m) / 2.
    """
    unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    n = len(classes)
    intra_sim, intra_pairs = 0.0, 0
    for c in np.unique(classes):
        rows = unit[classes == c]
        m = len(rows)
        intra_sim += (float((rows.sum(axis=0) ** 2).sum()) - m) / 2.0
        intra_pairs += m * (m - 1) // 2
    all_sim = (float((unit.sum(axis=0) ** 2).sum()) - n) / 2.0
    inter_pairs = n * (n - 1) // 2 - intra_pairs
    intra = 1.0 - intra_sim / intra_pairs
    inter = 1.0 - (all_sim - intra_sim) / inter_pairs
    return intra / inter


def balanced_quota(labels_s: np.ndarray, a_max: int) -> dict:
    """Anchors per present class a balanced sampler must draw: min(rarest, a_max // present)."""
    classes, counts = np.unique(labels_s[labels_s != IGNORE], return_counts=True)
    k = min(int(counts.min()), a_max // len(classes))
    return {int(c): k for c in classes}


def close(value: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return bool(abs(value - ref) <= max(rtol * abs(ref), atol))
