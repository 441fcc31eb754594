"""The benchmark's reference computations and the checks built on them.

Each reference is tested on hand-derived values, and each check is shown
to pass on the package's real output and to fail on a corrupted copy.
"""

import math

import numpy as np
import pytest

import reference as ref
import workloads
from mscontrast import autodiff as ad
from mscontrast.losses import info_nce
from mscontrast.metrics import class_separation_ratio, miou
from mscontrast.sampling import AnchorSet, build_pool, sample_anchor_set, substream


def _unit(rows):
    rows = np.asarray(rows, dtype=float)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# -- InfoNCE ------------------------------------------------------------------

def test_info_nce_hand_values():
    # two identical anchors of one class and no negatives: log(1) = 0
    same = _unit([[1, 0], [1, 0]])
    assert ref.info_nce(same, np.array([0, 0]), same, np.array([0, 0]), 0.1, same_set=True) == 0.0
    # orthonormal rows: positive and negative similarity both 0, log(1 + e^0) = ln 2
    eye = np.eye(3)
    cls = np.array([0, 0, 1])
    assert math.isclose(ref.info_nce(eye, cls, eye, cls, 1.0, same_set=True), math.log(2), abs_tol=1e-15)
    # positive similarity 1, negative 0, tau 0.5: log(1 + e^-2)
    rows = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 0, 1.0]])
    assert math.isclose(ref.info_nce(rows, cls, rows, cls, 0.5, same_set=True),
                        math.log1p(math.exp(-2)), abs_tol=1e-15)


def _anchor_set(emb, classes, scale=4):
    prov = np.stack([np.zeros(len(classes), int), np.arange(len(classes)), np.zeros(len(classes), int)], 1)
    return AnchorSet(ad.Tensor(emb), np.asarray(classes), scale, prov)


def test_info_nce_matches_package_and_catches_corruption():
    rng = np.random.default_rng(0)
    emb = _unit(rng.normal(size=(40, 8)))
    cls = rng.integers(0, 4, 40)
    program = float(info_nce(_anchor_set(emb, cls), 0.1).data)
    assert ref.close(program, ref.info_nce(emb, cls, emb, cls, 0.1, same_set=True), 1e-12)
    corrupted = emb.copy()
    corrupted[0] = -corrupted[0]
    assert not ref.close(program, ref.info_nce(corrupted, cls, corrupted, cls, 0.1, same_set=True), 1e-10)


def test_cross_info_nce_is_symmetrized():
    rng = np.random.default_rng(1)
    a, b = _unit(rng.normal(size=(6, 3))), _unit(rng.normal(size=(5, 3)))
    ca, cb = np.array([0, 0, 1, 1, 2, 2]), np.array([0, 1, 1, 2, 2])
    both = ref.info_nce(a, ca, b, cb, 0.2, same_set=False) + ref.info_nce(b, cb, a, ca, 0.2, same_set=False)
    assert ref.cross_info_nce(a, ca, b, cb, 0.2) == pytest.approx(both / 2, rel=1e-15)


# -- mIoU ---------------------------------------------------------------------

def _hand_case():
    # ground truth 0 predicted as 0 three times and as 1 once; truth 1 predicted
    # 0 twice and 1 four times; class 2 appears nowhere; 255 is ignored
    gt = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 255])
    pred = np.array([0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 2])
    return pred, gt


def test_confusion_and_iou_hand_matrix():
    pred, gt = _hand_case()
    cm = ref.confusion_counts(pred, gt, 3)
    assert cm.tolist() == [[3, 1, 0], [2, 4, 0], [0, 0, 0]]
    per_class, mean = ref.iou_from_confusion(cm)
    assert per_class[0] == 3 / 6 and per_class[1] == 4 / 7 and np.isnan(per_class[2])
    assert mean == pytest.approx((3 / 6 + 4 / 7) / 2, rel=1e-15)


def test_iou_check_passes_package_and_fails_corruption():
    pred, gt = _hand_case()
    res = miou(pred, gt, 3)
    report = {"miou": res.mean, "per_class_iou": [None if np.isnan(v) else float(v) for v in res.per_class]}
    per_class, mean = ref.iou_from_confusion(ref.confusion_counts(pred, gt, 3))
    assert workloads.check_iou(report, per_class, mean, "hand") == []
    bad = dict(report, miou=report["miou"] + 1e-9)
    assert len(workloads.check_iou(bad, per_class, mean, "hand")) == 1
    bad = dict(report, per_class_iou=[0.5, 4 / 7, 0.0])
    assert len(workloads.check_iou(bad, per_class, mean, "hand")) == 1


# -- class-separation ratio R ---------------------------------------------------

def test_pairwise_ratio_tiny_set():
    # class 0: (1,0) and (0,1), intra distance 1; class 1: (-1,0), inter distances 2 and 1
    emb = np.array([[1.0, 0], [0, 1.0], [-1.0, 0]])
    assert ref.separation_ratio_pairwise(emb, np.array([0, 0, 1])) == pytest.approx(2 / 3, rel=1e-15)


def test_ratio_from_sums_matches_pairs_and_package():
    rng = np.random.default_rng(2)
    emb = _unit(rng.normal(size=(300, 16)) + np.repeat(np.eye(16)[:3] * 2, 100, axis=0))
    cls = np.repeat([0, 1, 2], 100)
    pairwise = ref.separation_ratio_pairwise(emb, cls)
    assert ref.close(ref.separation_ratio_sums(emb, cls), pairwise, 1e-12)
    assert ref.close(class_separation_ratio(emb, cls), pairwise, 1e-12)
    swapped = cls.copy()
    swapped[[0, 150]] = swapped[[150, 0]]
    assert not ref.close(class_separation_ratio(emb, cls), ref.separation_ratio_pairwise(emb, swapped), 1e-9)


# -- anchor sets and export -------------------------------------------------------

def _sampled(a_max=64):
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=(2, 32, 32))
    labels[:, :4] = ref.IGNORE
    labels4 = ref.center_pick(labels, 4)
    projected = ad.Tensor(rng.normal(size=(2, 8, 8, 8)))
    anchors = sample_anchor_set(build_pool(labels4, 4), projected, a_max, substream(0, 1))
    return anchors, labels4


def test_center_pick_matches_cell_centers():
    labels = np.arange(2 * 10 * 10).reshape(2, 10, 10)
    picked = ref.center_pick(labels, 4)
    assert picked.shape == (2, 3, 3)
    assert picked[1, 2, 1].item() == labels[1, 9, 6]  # row 2*4+2 = 10 clamps to 9


def test_anchor_check_passes_package_and_fails_corruption():
    anchors, labels4 = _sampled()
    assert workloads.check_anchor_set(anchors, labels4, 64) == []

    def corrupt(**changes):
        fields = dict(embeddings=anchors.embeddings, class_ids=anchors.class_ids,
                      scale=anchors.scale, provenance=anchors.provenance)
        fields.update(changes)
        return workloads.check_anchor_set(AnchorSet(**fields), labels4, 64)

    assert corrupt(class_ids=np.roll(anchors.class_ids, 1))           # class/label mismatch and quota
    prov = anchors.provenance.copy()
    prov[1] = prov[0]
    assert corrupt(provenance=prov)                                    # repeated position
    emb = anchors.embeddings.data.copy()
    emb[0] *= 1.001
    assert corrupt(embeddings=ad.Tensor(emb))                          # off unit norm
    assert workloads.check_anchor_set(anchors, labels4, len(anchors) - 1)  # over the cap


def test_export_check_passes_package_shape_and_fails_corruption(tmp_path):
    anchors, labels4 = _sampled(a_max=workloads.EXPORT_PER_CLASS * 4)
    path = tmp_path / "emb.csv"

    def write(class_ids, rows, scale=workloads.EXPORT_SCALE):
        with open(path, "w") as f:
            f.write("class_id,scale," + ",".join(f"e{i}" for i in range(rows.shape[1])) + "\n")
            for c, row in zip(class_ids, rows):
                f.write(f"{c},{scale}," + ",".join("%.9g" % v for v in row) + "\n")
        return workloads.check_export(path, len(class_ids), rows.shape[1], labels4)

    emb = anchors.embeddings.data
    assert write(anchors.class_ids, emb) == []
    assert write(anchors.class_ids, emb * 1.01)                       # not unit norm
    assert write(anchors.class_ids[:-1], emb[:-1])                    # one class short
    assert write(anchors.class_ids, emb, scale=8)                     # wrong scale
