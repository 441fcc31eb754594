"""Span self time and the tracer's wrapping."""

import pytest

import spans
import mscontrast
from mscontrast import autodiff as ad
from mscontrast import labels, training


def _tree():
    # root [0, 10] with children [1, 4] and [5, 9]; the first child has a
    # grandchild [2, 3]; a second root [10, 12] has no children
    return [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.x", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["root2", 10.0, 12.0, -1, 1],
    ]


def test_self_time_hand_tree():
    assert spans.self_times(_tree()) == pytest.approx([3.0, 2.0, 1.0, 4.0, 2.0])


def test_self_time_detects_corrupted_tree():
    tree = _tree()
    tree[2][3] = 0  # grandchild re-parented onto the root: the child's self time grows
    assert spans.self_times(tree) != pytest.approx([3.0, 2.0, 1.0, 4.0, 2.0])
    assert spans.self_times(tree)[1] == pytest.approx(3.0)


def test_self_time_clips_children_to_parent_and_merges_overlaps():
    tree = [["p", 0.0, 10.0, -1, 0], ["c1", 2.0, 6.0, 0, 0], ["c2", 4.0, 12.0, 0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(2.0)


def test_tracer_records_and_restores():
    original = ad.conv2d
    tracer = spans.Tracer()
    assert tracer.install(mscontrast) == []
    try:
        assert training.build_pyramid is labels.build_pyramid  # imported copies rebound too
        x = ad.Tensor([[[[1.0, 2.0], [3.0, 4.0]]]], requires_grad=True)
        w = ad.Tensor([[[[2.0]]]], requires_grad=True)
        loss = ad.tsum(ad.conv1x1(x, w))
        ad.backward(loss)
        tracer.end_step()
    finally:
        tracer.uninstall()
    assert ad.conv2d is original
    names = [s[0] for s in tracer.spans]
    # the forward conv, then the backward sweep with the conv's backward inside it
    assert names == ["autodiff.conv2d", "autodiff.backward", "autodiff.conv2d"]
    assert tracer.spans[2][3] == 1
    metrics = tracer.metrics()
    assert metrics["autodiff.tape_nodes"]["value"] == 2
    assert metrics["autodiff.conv2d_ms"]["value"] > 0
    assert metrics["model.forward_ms"] == {"value": 0.0, "unit": "ms"}
    assert x.grad.tolist() == [[[[2.0, 2.0], [2.0, 2.0]]]]
