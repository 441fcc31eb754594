"""The contrastive loss family over anchor sets.

Every term is :func:`mscontrast.autodiff.contrastive_pair_loss`, whose
docstring states the pair rule and the per-anchor InfoNCE form.  Within a
scale a set is contrasted with itself.  The multi-scale loss is a weighted
sum of per-scale terms; the cross-scale loss contrasts the anchors of one
scale with those of another and is symmetrized as the mean of both
directions.  The total objective adds both terms to the cross-entropy with
scalar weights.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .sampling import A_MAX_DEFAULT, AnchorSet

log = logging.getLogger(__name__)

DEFAULT_SCALE_WEIGHTS = {4: 1.0, 8: 0.7, 16: 0.4, 32: 0.1}
DEFAULT_CROSS_PAIRS = ((4, 32, 1.0), (4, 16, 1.0))


@dataclass
class LossConfig:
    tau: float = 0.1
    scale_weights: dict = field(default_factory=lambda: dict(DEFAULT_SCALE_WEIGHTS))
    cross_pairs: tuple = DEFAULT_CROSS_PAIRS
    lambda_cms: float = 0.1
    lambda_ccs: float = 0.1
    a_max: int = A_MAX_DEFAULT
    normalize_embeddings: bool = True
    loss_position: str = "backbone"

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if any(w < 0 for w in self.scale_weights.values()):
            raise ValueError("scale weights must be non-negative")
        if self.lambda_cms < 0 or self.lambda_ccs < 0:
            raise ValueError("loss weights must be non-negative")
        if self.loss_position not in ("backbone", "neck"):
            raise ValueError(f"loss_position must be 'backbone' or 'neck', got {self.loss_position!r}")
        pairs = []
        for pair in self.cross_pairs:
            if len(pair) == 2:
                s, s2, w = int(pair[0]), int(pair[1]), 1.0
            else:
                s, s2, w = int(pair[0]), int(pair[1]), float(pair[2])
            if w < 0:
                raise ValueError("cross-pair weights must be non-negative")
            for stride in (s, s2):
                if stride not in self.scale_weights:
                    raise ValueError(f"cross pair ({s}, {s2}) references unknown stride {stride}")
            pairs.append((s, s2, w))
        self.cross_pairs = tuple(pairs)


def info_nce(anchors: AnchorSet, tau: float = 0.1) -> ad.Tensor:
    """Supervised InfoNCE over one anchor set; positives by shared class id."""
    if len(anchors) < 2:
        raise ValueError(f"need at least 2 anchors, got {len(anchors)}")
    return ad.contrastive_pair_loss(anchors.embeddings, anchors.embeddings, anchors.class_ids,
                                    anchors.class_ids, tau, same_rows=True)


def info_nce_cross(anchors_a: AnchorSet, anchors_b: AnchorSet, tau: float = 0.1) -> ad.Tensor:
    """Cross-set InfoNCE, symmetrized as the mean of both directed losses.

    Positives and negatives of an anchor in one set are drawn entirely from
    the other set by class equality; gradients reach both sets.
    """
    if len(anchors_a) == 0 or len(anchors_b) == 0:
        raise ValueError("both anchor sets must be nonempty")
    same = anchors_a.scale == anchors_b.scale
    if same and not np.array_equal(anchors_a.provenance, anchors_b.provenance):
        # every same-stride pair is one set compared with itself
        raise ValueError(f"two anchor sets at stride {anchors_a.scale} hold different positions")
    ids_a, ids_b = anchors_a.class_ids, anchors_b.class_ids
    try:
        fwd = ad.contrastive_pair_loss(anchors_a.embeddings, anchors_b.embeddings, ids_a, ids_b, tau, same_rows=same)
    except ValueError as e:
        if "no positive pairs" not in str(e):
            raise
        raise ValueError("no cross-scale positives") from None
    rev = ad.contrastive_pair_loss(anchors_b.embeddings, anchors_a.embeddings, ids_b, ids_a, tau, same_rows=same)
    return ad.scale(ad.add(fwd, rev), 0.5)


def multi_scale_loss(sets: dict, cfg: LossConfig) -> ad.Tensor:
    """Weighted sum of per-scale InfoNCE terms over strides with weight > 0.

    A scale whose anchor set has no positive pair contributes 0 with a logged
    warning; all scales degenerate is an error.
    """
    total = None
    n_degenerate = 0
    active = [s for s in sorted(cfg.scale_weights) if cfg.scale_weights[s] > 0]
    for stride in active:
        if stride not in sets:
            raise ValueError(f"no anchor set for stride {stride} (weight {cfg.scale_weights[stride]})")
        try:
            term = info_nce(sets[stride], cfg.tau)
        except ValueError as e:
            if "no positive pairs" not in str(e):
                raise
            log.warning("stride %d: no positive pairs, scale skipped", stride)
            n_degenerate += 1
            continue
        term = ad.scale(term, cfg.scale_weights[stride])
        total = term if total is None else ad.add(total, term)
    if total is None:
        if n_degenerate:
            raise ValueError("every scale is degenerate: no positive pairs at any stride")
        return ad.Tensor(0.0)
    return total


def cross_scale_loss(sets: dict, cfg: LossConfig) -> ad.Tensor:
    """Weighted sum of symmetrized cross-scale terms over the configured pairs."""
    total = None
    for s, s2, w in cfg.cross_pairs:
        if w == 0:
            continue
        for stride in (s, s2):
            if stride not in sets:
                raise ValueError(f"cross pair ({s}, {s2}): no anchor set for stride {stride}")
        try:
            term = info_nce_cross(sets[s], sets[s2], cfg.tau)
        except ValueError as e:
            if "no cross-scale positives" not in str(e):
                raise
            log.warning("cross pair (%d, %d): no shared classes, pair skipped", s, s2)
            continue
        term = ad.scale(term, w)
        total = term if total is None else ad.add(total, term)
    return ad.Tensor(0.0) if total is None else total


def total_loss(ce: ad.Tensor, sets: dict, cfg: LossConfig, parts: dict | None = None) -> ad.Tensor:
    """ce + lambda_cms * multi-scale + lambda_ccs * cross-scale.

    When ``parts`` is given it is filled with the float values of the
    individual terms (keys "ce", "cms", "ccs") for logging.
    """
    if not np.isfinite(ce.data):
        raise ValueError("cross-entropy term is not finite")
    total = ce
    cms_val = ccs_val = 0.0
    if cfg.lambda_cms > 0:
        cms = multi_scale_loss(sets, cfg)
        cms_val = float(cms.data)
        total = ad.add(total, ad.scale(cms, cfg.lambda_cms))
    if cfg.lambda_ccs > 0:
        ccs = cross_scale_loss(sets, cfg)
        ccs_val = float(ccs.data)
        total = ad.add(total, ad.scale(ccs, cfg.lambda_ccs))
    if parts is not None:
        parts.update(ce=float(ce.data), cms=cms_val, ccs=ccs_val)
    return total
