"""Balanced anchor sampling from projected feature maps.

The candidate pool at a scale is every labeled (non-ignore) position of the
downsampled label map.  Sampling takes K anchors per present class, K being
the smallest per-class pool count in the batch, so no per-class quota has to
be tuned; a global cap A_max bounds the pairwise-similarity work regardless
of batch content.  The dense variant (every position an anchor) is kept as
the exact but quadratic reference.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .labels import IGNORE_INDEX

A_MAX_DEFAULT = 2048


def substream(seed: int, *key) -> np.random.Generator:
    """Independent counter-based generator derived from a seed and an integer key path.

    Same (seed, key) always yields the same stream; distinct keys yield
    statistically independent streams.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


class SamplerRng:
    """Seeded factory of per-(step, scale) random substreams.

    Every (step, scale) pair owns a private stream, so the draw at one scale
    never perturbs another scale's anchors and any step can be replayed in
    isolation.
    """

    _NAMESPACE = 3

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, step: int, scale: int) -> np.random.Generator:
        return substream(self.seed, self._NAMESPACE, step, scale)


@dataclass
class CandidatePool:
    """Labeled positions of one scale, in row-major (b, r, c) order."""

    scale: int
    batch: int
    height: int
    width: int
    b_idx: np.ndarray
    r_idx: np.ndarray
    c_idx: np.ndarray
    class_ids: np.ndarray

    def __len__(self):
        return self.class_ids.size


@dataclass
class AnchorSet:
    """Sampled anchors of one scale.

    ``embeddings`` is an (N, d) tensor of unit-norm rows that stay connected
    to the projected feature map, so the contrastive loss backpropagates into
    the network.  ``provenance`` holds the (batch, row, col) origin of each row.
    """

    embeddings: ad.Tensor
    class_ids: np.ndarray
    scale: int
    provenance: np.ndarray = field(repr=False)

    def __len__(self):
        return self.class_ids.size


def build_pool(labels_s: np.ndarray, scale: int, ignore_index: int = IGNORE_INDEX) -> CandidatePool:
    labels_s = np.asarray(labels_s)
    if labels_s.ndim != 3:
        raise ValueError(f"expected (B, h, w) labels, got shape {labels_s.shape}")
    b, r, c = np.nonzero(labels_s != ignore_index)
    return CandidatePool(
        scale=int(scale),
        batch=labels_s.shape[0],
        height=labels_s.shape[1],
        width=labels_s.shape[2],
        b_idx=b,
        r_idx=r,
        c_idx=c,
        class_ids=labels_s[b, r, c].astype(np.int64),
    )


def count_classes(pool: CandidatePool) -> dict:
    """Exact per-class counts: class -> (total, per-batch-element counts)."""
    if len(pool) == 0:
        raise ValueError("no labeled positions at this scale")
    out = {}
    for cls in np.unique(pool.class_ids):
        mask = pool.class_ids == cls
        per_elem = np.bincount(pool.b_idx[mask], minlength=pool.batch)
        out[int(cls)] = (int(mask.sum()), per_elem)
    return out


def _split_quota(k: int, caps: np.ndarray, batch_ids: np.ndarray) -> np.ndarray:
    """Split a per-class quota of k across batch elements with capacities caps.

    Floor division first; the remainder goes to the elements with the largest
    capacities (ties to the lower batch index); any allocation exceeding an
    element's capacity is clipped and the deficit handed one anchor at a time
    to the element with the most remaining room (same tie rule).  Requires
    sum(caps) >= k.
    """
    e = caps.size
    quotas = np.full(e, k // e, dtype=np.int64)
    rem = k - quotas.sum()
    if rem:
        rank = np.lexsort((batch_ids, -caps))
        quotas[rank[:rem]] += 1
    deficit = int(np.maximum(quotas - caps, 0).sum())
    quotas = np.minimum(quotas, caps)
    while deficit > 0:
        room = caps - quotas
        i = np.lexsort((batch_ids, -room))[0]
        if room[i] <= 0:
            raise RuntimeError("quota exceeds pool capacity")  # unreachable: k <= sum(caps)
        quotas[i] += 1
        deficit -= 1
    return quotas


def gather_anchor_set(projected: ad.Tensor, provenance: np.ndarray, class_ids: np.ndarray,
                      scale: int) -> AnchorSet:
    """The anchors at the (batch, row, col) rows of ``provenance``: unit-norm rows of ``projected``."""
    emb = ad.gather_positions(projected, provenance[:, 0], provenance[:, 1], provenance[:, 2])
    return AnchorSet(ad.l2_normalize_rows(emb), class_ids, scale, provenance)


def _gather(projected: ad.Tensor, pool: CandidatePool, picks: np.ndarray) -> AnchorSet:
    if projected.data.ndim != 4 or projected.data.shape[0] != pool.batch \
            or projected.data.shape[2:] != (pool.height, pool.width):
        raise ValueError(
            f"projected map {projected.data.shape} does not match pool "
            f"({pool.batch}, *, {pool.height}, {pool.width})"
        )
    provenance = np.stack([pool.b_idx[picks], pool.r_idx[picks], pool.c_idx[picks]], axis=1)
    return gather_anchor_set(projected, provenance, pool.class_ids[picks], pool.scale)


def sample_anchor_set(pool: CandidatePool, projected: ad.Tensor, a_max: int,
                      rng: np.random.Generator) -> AnchorSet:
    """Draw a class-balanced anchor set of at most a_max rows.

    K anchors per present class, K = min per-class count, reduced to
    floor(a_max / n_classes) whenever the balanced total would exceed a_max.
    Per class the quota is split across the batch elements containing it (see
    :func:`_split_quota`) and positions are drawn uniformly without
    replacement inside each element.
    """
    counts = count_classes(pool)
    classes = sorted(counts)
    if a_max < len(classes):
        raise ValueError(f"a_max={a_max} is below the number of present classes ({len(classes)})")
    k = min(total for total, _ in counts.values())
    if len(classes) * k > a_max:
        k = a_max // len(classes)
    picks = []
    for cls in classes:
        _, per_elem = counts[cls]
        elems = np.flatnonzero(per_elem)
        quotas = _split_quota(k, per_elem[elems], elems)
        cls_mask = pool.class_ids == cls
        for elem, quota in zip(elems, quotas):
            if quota == 0:
                continue
            cand = np.flatnonzero(cls_mask & (pool.b_idx == elem))
            if quota >= cand.size:
                picks.append(cand)
            else:
                sel = rng.choice(cand.size, size=int(quota), replace=False)
                picks.append(cand[np.sort(sel)])
    return _gather(projected, pool, np.concatenate(picks))


def dense_anchor_set(pool: CandidatePool, projected: ad.Tensor) -> AnchorSet:
    """Every labeled position as an anchor: the exact, uncapped reference."""
    if len(pool) == 0:
        raise ValueError("no labeled positions at this scale")
    return _gather(projected, pool, np.arange(len(pool)))
