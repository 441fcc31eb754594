import json
import logging
import os

import numpy as np
import pytest

from mscontrast import autodiff as ad
from mscontrast.config import config_from_dict
from mscontrast.labels import build_pyramid
from mscontrast.metrics import class_separation_ratio
from mscontrast.sampling import build_pool, dense_anchor_set, sample_anchor_set, substream
from mscontrast.scenes import SceneDataset
from mscontrast.training import (
    EVAL_SEED_OFFSET,
    NS_EXPORT,
    benchmark_sampling,
    build_model,
    evaluate_checkpoint,
    evaluate_model,
    export_embeddings,
    load_checkpoint,
    poly_lr,
    save_checkpoint,
    sgd_step,
    train,
)

@pytest.fixture(autouse=True)
def _quiet_loss_warnings():
    log = logging.getLogger("mscontrast.losses")
    old = log.level
    log.setLevel(logging.ERROR)
    yield
    log.setLevel(old)


def tiny_cfg(tmp_path, name, **over):
    base = {
        "seed": 0, "steps": 4, "batch_size": 2, "eval_interval": 2,
        "out_dir": str(tmp_path / name),
        "dataset": {"n_train": 6, "n_eval": 4},
        "model": {"d": 8},
        "loss": {"a_max": 64},
    }
    for k, v in over.items():
        if isinstance(v, dict):
            base[k] = {**base[k], **v}
        else:
            base[k] = v
    return config_from_dict(base)


def step_records(records):
    return [r for r in records if "ce" in r]


def test_identical_config_gives_identical_logs(tmp_path):
    _, rec_a, _ = train(tiny_cfg(tmp_path, "a"))
    _, rec_b, _ = train(tiny_cfg(tmp_path, "b"))
    assert step_records(rec_a) == step_records(rec_b)


def test_resume_matches_uninterrupted_run(tmp_path):
    model_full, rec_full, _ = train(tiny_cfg(tmp_path, "full"))
    # eval_interval 2 leaves checkpoint_step2.npz behind; resume from it
    cfg_head = tiny_cfg(tmp_path, "head")
    train(cfg_head)
    mid = os.path.join(cfg_head.out_dir, "checkpoint_step2.npz")
    model_res, rec_res, _ = train(tiny_cfg(tmp_path, "res"), resume_from=mid)

    pa = dict(model_full.named_parameters())
    pb = dict(model_res.named_parameters())
    assert all(np.array_equal(pa[k].data, pb[k].data) for k in pa)
    ba = dict(model_full.named_buffers())
    bb = dict(model_res.named_buffers())
    assert all(np.array_equal(ba[k], bb[k]) for k in ba)
    tail = [r for r in step_records(rec_full) if r["step"] >= 2]
    assert tail == step_records(rec_res)


def test_resume_in_place_keeps_one_log(tmp_path):
    # a run stopped after logging step 2 and resumed from checkpoint_step2.npz
    # into its own out_dir must leave the log of a run that never stopped
    cfg_full = tiny_cfg(tmp_path, "full")
    train(cfg_full)
    cfg = tiny_cfg(tmp_path, "crash")
    train(cfg)
    log_path = os.path.join(cfg.out_dir, "metrics.jsonl")
    lines = open(log_path).read().splitlines(keepends=True)
    cut = next(i for i, ln in enumerate(lines) if json.loads(ln)["step"] == 2) + 1
    with open(log_path, "w") as f:
        f.writelines(lines[:cut])
        f.write(lines[cut][:10])  # a record torn by the crash
    os.remove(os.path.join(cfg.out_dir, "checkpoint_final.npz"))
    train(cfg, resume_from=os.path.join(cfg.out_dir, "checkpoint_step2.npz"))
    assert open(log_path).read() == open(os.path.join(cfg_full.out_dir, "metrics.jsonl")).read()
    assert sorted(os.listdir(cfg.out_dir)) == sorted(os.listdir(cfg_full.out_dir))


def test_checkpoint_round_trip_bitwise_logits(tmp_path):
    cfg = tiny_cfg(tmp_path, "ck", steps=2)
    model, _, ckpt = train(cfg)
    probe = SceneDataset(cfg.dataset.scene_spec(), 123, 2)
    images, _ = probe.batch([0, 1])
    with ad.no_grad():
        ref, _ = model.forward(ad.Tensor(images), training=False)
    fresh = build_model(cfg)
    load_checkpoint(ckpt, fresh, cfg=cfg)
    with ad.no_grad():
        got, _ = fresh.forward(ad.Tensor(images), training=False)
    assert np.array_equal(ref.data, got.data)


def test_checkpoint_rejects_different_config(tmp_path):
    cfg = tiny_cfg(tmp_path, "cka", steps=2)
    model, _, ckpt = train(cfg)
    other = tiny_cfg(tmp_path, "ckb", steps=2, seed=9)
    with pytest.raises(ValueError, match="does not match"):
        load_checkpoint(ckpt, build_model(other), cfg=other)


def test_ce_only_logs_zero_contrastive_terms(tmp_path):
    cfg = tiny_cfg(tmp_path, "ce", loss={"lambda_cms": 0.0, "lambda_ccs": 0.0})
    _, records, _ = train(cfg)
    steps = step_records(records)
    assert steps and all(r["cms"] == 0.0 and r["ccs"] == 0.0 for r in steps)
    assert all(r["total"] == r["ce"] for r in steps)


def test_nan_abort_names_first_bad_term(tmp_path, monkeypatch):
    bad = ad.Tensor(np.float64("nan"))
    monkeypatch.setattr(ad, "softmax_cross_entropy", lambda *a, **k: bad)
    with pytest.raises(RuntimeError, match="step 0: first bad term 'ce'"):
        train(tiny_cfg(tmp_path, "nan"))


def test_metrics_file_is_parseable_jsonl(tmp_path):
    cfg = tiny_cfg(tmp_path, "log")
    train(cfg)
    lines = open(os.path.join(cfg.out_dir, "metrics.jsonl")).read().splitlines()
    records = [json.loads(ln) for ln in lines]
    assert sum(1 for r in records if "ce" in r) == cfg.steps
    evals = [r for r in records if "eval" in r]
    assert len(evals) == 2  # steps 2 and 4 at interval 2
    for r in evals:
        assert set(r["eval"]) >= {"miou", "per_class_iou", "rare_iou", "r_stride4"}


def test_poly_schedule():
    assert poly_lr(0.05, 0.9, 0, 100) == 0.05
    vals = [poly_lr(0.05, 0.9, s, 100) for s in range(100)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0


def test_sgd_momentum_reference():
    class One:
        def __init__(self, t):
            self.t = t

        def named_parameters(self):
            return [("w", self.t)]

    w = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    holder = One(w)
    vel = {"w": np.zeros(2)}
    # two steps with fixed gradients, momentum 0.5, lr 0.1
    w.grad = np.array([1.0, -2.0])
    sgd_step(holder, vel, lr=0.1, momentum=0.5)
    np.testing.assert_allclose(w.data, [1.0 - 0.1 * 1.0, 2.0 + 0.1 * 2.0])
    assert w.grad is None
    w.grad = np.array([1.0, -2.0])
    sgd_step(holder, vel, lr=0.1, momentum=0.5)
    # v2 = 0.5*g + g = 1.5g
    np.testing.assert_allclose(w.data, [0.9 - 0.15, 2.2 + 0.3])


def test_export_embeddings_csv(tmp_path):
    cfg = tiny_cfg(tmp_path, "exp", steps=2)
    _, _, ckpt = train(cfg)
    out = str(tmp_path / "emb.csv")
    rows = export_embeddings(ckpt, cfg, scale=4, n_per_class=6, out_path=out)
    lines = open(out).read().splitlines()
    assert lines[0] == "class_id,scale," + ",".join(f"e{i}" for i in range(8))
    assert len(lines) == rows + 1
    classes = []
    for ln in lines[1:]:
        parts = ln.split(",")
        assert parts[1] == "4"
        classes.append(int(parts[0]))
        vec = np.array([float(v) for v in parts[2:]])
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-6
    # balanced: every exported class appears equally often
    _, counts = np.unique(classes, return_counts=True)
    assert len(set(counts.tolist())) == 1


@pytest.mark.parametrize("scale, n_per_class", [(4, 6), (16, 2)])
def test_export_bytes_match_an_oracle(tmp_path, scale, n_per_class):
    # the oracle runs the forward over the eval split itself, pools the
    # concatenated labels at the scale and draws from the export's substream
    cfg = tiny_cfg(tmp_path, f"exb{scale}", steps=2)
    model, _, ckpt = train(cfg)
    split = SceneDataset(cfg.dataset.scene_spec(), cfg.seed + EVAL_SEED_OFFSET, cfg.dataset.n_eval)
    maps, label_maps = [], []
    with ad.no_grad():
        for lo in range(0, len(split), cfg.batch_size):
            images, labels = split.batch(range(lo, min(lo + cfg.batch_size, len(split))))
            _, projected = model.forward(ad.Tensor(images), training=False)
            maps.append(projected[scale].data)
            label_maps.append(build_pyramid(labels, [scale])[scale])
    pool = build_pool(np.concatenate(label_maps), scale)
    n_present = len(np.unique(pool.class_ids))
    anchors = sample_anchor_set(pool, ad.Tensor(np.concatenate(maps)), n_per_class * n_present,
                                substream(cfg.seed, NS_EXPORT, scale))
    want = "class_id,scale," + ",".join(f"e{i}" for i in range(cfg.model.d)) + "\n"
    for cls, row in zip(anchors.class_ids, anchors.embeddings.data):
        want += f"{cls},{scale}," + ",".join("%.9g" % v for v in row) + "\n"

    out = str(tmp_path / "emb.csv")
    rows = export_embeddings(ckpt, cfg, scale=scale, n_per_class=n_per_class, out_path=out)
    assert rows == len(anchors) > 0
    assert open(out).read() == want


def test_eval_and_export_leave_gradient_recording_on(tmp_path):
    # both run their forwards with no tape; recording must be back on once they return
    def records():
        x = ad.Tensor(np.array([1.0, -1.0]), requires_grad=True)
        return ad.relu(x).tape is not None

    cfg = tiny_cfg(tmp_path, "ng", steps=2)
    model, _, ckpt = train(cfg)
    evaluate_model(model, SceneDataset(cfg.dataset.scene_spec(), 5, 3), cfg)
    assert records()
    export_embeddings(ckpt, cfg, scale=4, n_per_class=2, out_path=str(tmp_path / "ng.csv"))
    assert records()


def test_export_zero_per_class_writes_header_only(tmp_path):
    cfg = tiny_cfg(tmp_path, "exp0", steps=2)
    _, _, ckpt = train(cfg)
    out = str(tmp_path / "emb0.csv")
    assert export_embeddings(ckpt, cfg, scale=4, n_per_class=0, out_path=out) == 0
    assert open(out).read().count("\n") == 1


def test_export_rejects_unknown_scale(tmp_path):
    cfg = tiny_cfg(tmp_path, "expbad", steps=2)
    _, _, ckpt = train(cfg)
    with pytest.raises(ValueError, match="scale 7"):
        export_embeddings(ckpt, cfg, scale=7, n_per_class=1, out_path=str(tmp_path / "x.csv"))


def test_evaluate_checkpoint_class_count_mismatch(tmp_path):
    cfg = tiny_cfg(tmp_path, "ev", steps=2)
    _, _, ckpt = train(cfg)
    other = tiny_cfg(tmp_path, "ev3", steps=2, dataset={"n_classes": 3})
    with pytest.raises(ValueError, match="class-count mismatch"):
        evaluate_checkpoint(ckpt, other)
    out = str(tmp_path / "ev3.csv")
    with pytest.raises(ValueError, match="class-count mismatch"):
        export_embeddings(ckpt, other, scale=4, n_per_class=2, out_path=out)
    assert not os.path.exists(out)


def test_evaluate_model_ratio_equals_ratio_of_all_embeddings(tmp_path):
    # evaluate_model keeps per-class sums batch by batch; the ratio must be
    # the one of every stride-4 embedding of the split taken at once
    cfg = tiny_cfg(tmp_path, "r", dataset={"n_eval": 5})
    model = build_model(cfg)
    ds = SceneDataset(cfg.dataset.scene_spec(), 11, cfg.dataset.n_eval)
    report = evaluate_model(model, ds, cfg)
    embeddings, classes = [], []
    with ad.no_grad():
        for lo in range(0, len(ds), cfg.batch_size):
            images, labels = ds.batch(range(lo, min(lo + cfg.batch_size, len(ds))))
            _, projected = model.forward(ad.Tensor(images), training=False)
            emb = dense_anchor_set(build_pool(build_pyramid(labels, [4])[4], 4), projected[4])
            embeddings.append(emb.embeddings.data)
            classes.append(emb.class_ids)
    want = class_separation_ratio(np.concatenate(embeddings), np.concatenate(classes))
    assert abs(report["r_stride4"] - want) <= 1e-12 * abs(want)


def test_benchmark_pair_counts():
    rows = benchmark_sampling([(1, 4, 4)], a_max=8, n_classes=2, d=4)
    row = rows[0]
    assert row["dense_pairs"] == 256  # (1*4*4)^2
    assert row["sampled_pairs"] == row["sampled_anchors"] ** 2
    assert row["sampled_anchors"] <= 8
    assert row["dense_feasible"]
    assert row["dense_anchors"] == 16


def test_benchmark_respects_ceiling():
    rows = benchmark_sampling([(2, 64, 64)], a_max=32, d=4, dense_pair_ceiling=1000)
    assert not rows[0]["dense_feasible"]
    assert "dense_time_s" not in rows[0]
