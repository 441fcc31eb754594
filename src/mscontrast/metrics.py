"""Segmentation and embedding-quality metrics."""

from dataclasses import dataclass

import numpy as np

from .labels import IGNORE_INDEX


@dataclass
class IouResult:
    per_class: np.ndarray  # nan for classes absent from both pred and gt
    mean: float
    subgroup_mean: float | None = None


def confusion_matrix(pred: np.ndarray, gt: np.ndarray, n_classes: int,
                     ignore_index: int = IGNORE_INDEX) -> np.ndarray:
    """n_classes x n_classes counts, rows ground truth, columns prediction."""
    valid = gt != ignore_index
    p = pred[valid].astype(np.int64)
    g = gt[valid].astype(np.int64)
    if p.size and (p.min() < 0 or p.max() >= n_classes or g.min() < 0 or g.max() >= n_classes):
        raise ValueError(f"labels outside [0, {n_classes})")
    return np.bincount(g * n_classes + p, minlength=n_classes * n_classes).reshape(n_classes, n_classes)


def miou(pred: np.ndarray, gt: np.ndarray, n_classes: int,
         ignore_index: int = IGNORE_INDEX, subgroup=None) -> IouResult:
    """Per-class intersection over union and its mean.

    Classes absent from both prediction and ground truth are excluded from
    the mean (their per-class entry is nan).  ``subgroup`` is an optional
    list of class ids to average separately, e.g. the rare classes.
    """
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    cm = confusion_matrix(pred, gt, n_classes, ignore_index)
    tp = np.diag(cm).astype(np.float64)
    denom = cm.sum(axis=0) + cm.sum(axis=1) - np.diag(cm)
    present = denom > 0
    per_class = np.full(n_classes, np.nan)
    per_class[present] = tp[present] / denom[present]
    mean = float(per_class[present].mean()) if present.any() else float("nan")
    sub = None
    if subgroup is not None:
        vals = [per_class[c] for c in subgroup if present[c]]
        sub = float(np.mean(vals)) if vals else float("nan")
    return IouResult(per_class, mean, sub)


def class_sums(embeddings: np.ndarray, class_ids: np.ndarray, n_classes: int):
    """Per-class row sums (n_classes, d) and row counts (n_classes,) for class ids in [0, n_classes)."""
    onehot = np.asarray(class_ids)[None, :] == np.arange(n_classes)[:, None]
    return onehot @ np.asarray(embeddings, dtype=np.float64), onehot.sum(axis=1)


def separation_ratio_from_sums(sums: np.ndarray, counts: np.ndarray) -> float:
    """Mean intra-class over mean inter-class pairwise cosine distance, from :func:`class_sums`.

    The summed rows must be row-normalized.  Smaller is better: tight
    classes, spread apart.  Requires at least 2 classes and one intra-class
    pair.
    """
    n_present = int(np.count_nonzero(counts))
    if n_present < 2:
        raise ValueError(f"need at least 2 classes, got {n_present}")
    # sum over unordered pairs of cosine similarity, per class and globally:
    # sum_{i<j} z_i . z_j = (||sum z||^2 - n) / 2 for unit rows
    intra_sim = float((np.einsum("kd,kd->k", sums, sums) - counts).sum()) / 2.0
    intra_pairs = int((counts * (counts - 1) // 2).sum())
    if intra_pairs == 0:
        raise ValueError("no intra-class pairs: every class is a singleton")
    n = int(counts.sum())
    total = sums.sum(axis=0)
    all_sim = (float(total @ total) - n) / 2.0
    all_pairs = n * (n - 1) // 2
    inter_pairs = all_pairs - intra_pairs
    mean_intra_dist = 1.0 - intra_sim / intra_pairs
    mean_inter_dist = 1.0 - (all_sim - intra_sim) / inter_pairs
    if mean_inter_dist <= 0:
        return float("inf")
    return mean_intra_dist / mean_inter_dist


def class_separation_ratio(embeddings: np.ndarray, class_ids: np.ndarray) -> float:
    """:func:`separation_ratio_from_sums` of row-normalized embeddings labelled by any class ids.

    Never materializes the pairwise matrix.  Requires at least 2 classes and
    one intra-class pair.
    """
    classes, inverse = np.unique(np.asarray(class_ids), return_inverse=True)
    return separation_ratio_from_sums(*class_sums(embeddings, inverse.ravel(), classes.size))
