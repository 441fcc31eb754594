"""Training, evaluation, checkpointing, embedding export, and the
dense-vs-sampled cost benchmark.

All randomness is drawn from counter-based substreams keyed by (seed,
namespace, step, ...), so a run is replayable from any step and a resumed
run continues the exact trajectory of an uninterrupted one.
"""

import gc
import glob
import json
import logging
import os
import time
import tracemalloc
import zipfile

import numpy as np

from . import autodiff as ad
from .config import RunConfig, config_from_dict, config_hash, config_to_dict
from .labels import build_pyramid, downsample_labels
from .losses import LossConfig, cross_scale_loss, info_nce, multi_scale_loss, total_loss
from .metrics import class_sums, miou, separation_ratio_from_sums
from .model import ToySegNet
from .sampling import SamplerRng, build_pool, dense_anchor_set, gather_anchor_set, sample_anchor_set, substream
from .scenes import SceneDataset

log = logging.getLogger(__name__)

NS_BATCH = 5
NS_EXPORT = 6
NS_BENCH = 8
NS_GRADCHECK = 10
EVAL_SEED_OFFSET = 1_000_003  # eval split must never overlap the train split
CHECKPOINT_VERSION = 1


def poly_lr(base_lr: float, power: float, step: int, total_steps: int) -> float:
    return base_lr * (1.0 - step / total_steps) ** power


def sgd_step(model: ToySegNet, velocities: dict, lr: float, momentum: float):
    for name, p in model.named_parameters():
        v = velocities[name]
        v *= momentum
        if p.grad is not None:
            v += p.grad
        p.data -= lr * v
        p.zero_grad()


def _first_nonfinite(parts: dict):
    for name in ("ce", "cms", "ccs", "total"):
        if name in parts and not np.isfinite(parts[name]):
            return name
    return None


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, model: ToySegNet, velocities: dict, step: int, cfg: RunConfig):
    arrays = {
        "meta/version": np.int64(CHECKPOINT_VERSION),
        "meta/step": np.int64(step),
        "meta/config_hash": np.str_(config_hash(cfg)),
        "meta/config_json": np.str_(json.dumps(config_to_dict(cfg), sort_keys=True)),
    }
    for name, p in model.named_parameters():
        arrays[f"param/{name}"] = p.data
    for name, b in model.named_buffers():
        arrays[f"buffer/{name}"] = b
    for name, v in velocities.items():
        arrays[f"vel/{name}"] = v
    tmp = path + ".tmp"  # renamed into place once whole, so a crash leaves no partial checkpoint
    with open(tmp, "wb") as f:
        np.savez(f, **arrays)
    os.replace(tmp, path)


def _read_checkpoint(path: str, sections=()) -> dict:
    """Read a checkpoint written by save_checkpoint; the only reader of its keys and version.

    Returns the stored ``step``, ``config_hash`` and ``config`` (a dict), and
    for each of ``sections`` ("param", "buffer", "vel") a dict of its arrays
    by name; other sections are not read.  A file that is not a readable
    checkpoint raises ValueError naming the path.
    """
    try:
        with np.load(path) as z:
            version = int(z["meta/version"])
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            out = {"step": int(z["meta/step"]), "config_hash": str(z["meta/config_hash"]),
                   "config": json.loads(str(z["meta/config_json"]))}
            for section in sections:
                prefix = section + "/"
                out[section] = {k[len(prefix):]: z[k] for k in z.files if k.startswith(prefix)}
            return out
    except (ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path} is not a readable checkpoint: {e}") from e


def load_checkpoint(path: str, model: ToySegNet, velocities: dict | None = None,
                    cfg: RunConfig | None = None) -> int:
    """Restore parameters, buffers and optimizer state in place; returns the step."""
    sections = ("param", "buffer") if velocities is None else ("param", "buffer", "vel")
    ckpt = _read_checkpoint(path, sections)
    if cfg is not None and ckpt["config_hash"] != config_hash(cfg):
        raise ValueError("checkpoint config does not match the provided config")
    stored, model_params = ckpt["param"], dict(model.named_parameters())
    if set(stored) != set(model_params):
        missing = sorted(set(model_params) - set(stored))
        extra = sorted(set(stored) - set(model_params))
        raise ValueError(f"checkpoint/model mismatch: missing {missing}, unexpected {extra}")
    for name, p in model_params.items():
        p.data[:] = stored[name]
    for name, b in model.named_buffers():
        b[:] = ckpt["buffer"][name]
    if velocities is not None:
        for name in velocities:
            velocities[name][:] = ckpt["vel"][name]
    return ckpt["step"]


def checkpoint_config(path: str) -> RunConfig:
    return config_from_dict(_read_checkpoint(path)["config"])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def build_model(cfg: RunConfig) -> ToySegNet:
    return ToySegNet(n_classes=cfg.dataset.n_classes, d=cfg.model.d, seed=cfg.seed,
                     loss_position=cfg.loss.loss_position)


def _eval_split(cfg: RunConfig) -> SceneDataset:
    return SceneDataset(cfg.dataset.scene_spec(), cfg.seed + EVAL_SEED_OFFSET, cfg.dataset.n_eval)


def train(cfg: RunConfig, resume_from: str | None = None, log_file=None):
    """Run the training loop; returns (model, records, final checkpoint path).

    Per-step records carry the loss terms; eval records are appended at eval
    intervals and at the end, together with a checkpoint.  A non-finite loss
    aborts, naming the first bad term.  On resume, the log keeps only the
    records before the checkpoint's step, as if the run had never stopped.
    Every start removes the ``checkpoint_*.npz.tmp`` files a crash left in
    ``out_dir``.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    for torn in glob.glob(os.path.join(glob.escape(cfg.out_dir), "checkpoint_*.npz.tmp")):
        os.remove(torn)  # a checkpoint write a crash cut short
    model = build_model(cfg)
    velocities = {name: np.zeros_like(p.data) for name, p in model.named_parameters()}
    start_step = 0
    if resume_from is not None:
        start_step = load_checkpoint(resume_from, model, velocities, cfg)

    train_ds = SceneDataset(cfg.dataset.scene_spec(), cfg.seed, cfg.dataset.n_train)
    eval_ds = _eval_split(cfg)
    srng = SamplerRng(cfg.seed)
    strides = sorted(cfg.loss.scale_weights)
    contrastive_on = cfg.loss.lambda_cms > 0 or cfg.loss.lambda_ccs > 0

    own_log = log_file is None
    if own_log:
        log_path = os.path.join(cfg.out_dir, "metrics.jsonl")
        kept = []
        if resume_from is not None and os.path.exists(log_path):
            with open(log_path) as f:  # a line a crash tore has no newline yet
                kept = [ln for ln in f if ln.endswith("\n") and json.loads(ln)["step"] < start_step]
        with open(log_path + ".tmp", "w") as f:
            f.writelines(kept)
        os.replace(log_path + ".tmp", log_path)
        log_file = open(log_path, "a")
    records = []

    def emit(record):
        records.append(record)
        log_file.write(json.dumps(record, sort_keys=True) + "\n")
        log_file.flush()

    final_path = os.path.join(cfg.out_dir, "checkpoint_final.npz")
    try:
        for step in range(start_step, cfg.steps):
            rng = substream(cfg.seed, NS_BATCH, step)
            idx = rng.choice(len(train_ds), size=cfg.batch_size,
                             replace=cfg.batch_size > len(train_ds))
            images, labels = train_ds.batch(idx)
            x = ad.Tensor(images)
            logits, projected = model.forward(x, training=True)
            ce = ad.softmax_cross_entropy(logits, labels)
            parts = {"ce": float(ce.data), "cms": 0.0, "ccs": 0.0}
            if not np.isfinite(parts["ce"]):
                raise RuntimeError(f"non-finite loss at step {step}: first bad term 'ce'")
            if contrastive_on:
                pyramid = build_pyramid(labels, strides)
                sets = {}
                for s in strides:
                    pool = build_pool(pyramid[s], s)
                    sets[s] = sample_anchor_set(pool, projected[s], cfg.loss.a_max, srng.stream(step, s))
                loss = total_loss(ce, sets, cfg.loss, parts)
            else:
                loss = ce
            parts["total"] = float(loss.data)
            bad = _first_nonfinite(parts)
            if bad is not None:
                raise RuntimeError(
                    f"non-finite loss at step {step}: first bad term '{bad}' "
                    f"(ce={parts['ce']}, cms={parts['cms']}, ccs={parts['ccs']})")
            ad.backward(loss)
            lr = poly_lr(cfg.optimizer.base_lr, cfg.optimizer.poly_power, step, cfg.steps)
            sgd_step(model, velocities, lr, cfg.optimizer.momentum)
            emit({"step": step, "lr": lr, **parts})

            done = step + 1 == cfg.steps
            if (step + 1) % cfg.eval_interval == 0 or done:
                report = evaluate_model(model, eval_ds, cfg)
                ckpt = final_path if done else os.path.join(cfg.out_dir, f"checkpoint_step{step + 1}.npz")
                save_checkpoint(ckpt, model, velocities, step + 1, cfg)
                emit({"step": step, "eval": report, "checkpoint": os.path.basename(ckpt)})
    finally:
        if own_log:
            log_file.close()
    return model, records, final_path


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _sanitize(x):
    if isinstance(x, float) and not np.isfinite(x):
        return None
    return x


def _eval_batches(model: ToySegNet, dataset: SceneDataset, batch_size: int):
    """Yields (labels, logits, projected maps) for each batch of a split, forward run with no tape."""
    for lo in range(0, len(dataset), batch_size):
        images, labels = dataset.batch(range(lo, min(lo + batch_size, len(dataset))))
        with ad.no_grad():
            logits, projected = model.forward(ad.Tensor(images), training=False)
        yield labels, logits, projected


def evaluate_model(model: ToySegNet, dataset: SceneDataset, cfg: RunConfig) -> dict:
    """mIoU report plus the stride-4 class-separation ratio of the projected space."""
    n_classes = cfg.dataset.n_classes
    preds, gts = [], []
    sums = np.zeros((n_classes, model.projectors.d))
    counts = np.zeros(n_classes, dtype=np.int64)
    for labels, logits, projected in _eval_batches(model, dataset, cfg.batch_size):
        preds.append(np.argmax(logits.data, axis=1))
        gts.append(labels)
        pool = build_pool(build_pyramid(labels, [4])[4], 4)
        if len(pool):
            emb = dense_anchor_set(pool, projected[4])
            s, c = class_sums(emb.embeddings.data, emb.class_ids, n_classes)
            sums += s
            counts += c
    pred = np.concatenate(preds)
    gt = np.concatenate(gts)
    subgroup = [cfg.dataset.rare_class] if cfg.dataset.rare_class is not None else None
    res = miou(pred, gt, n_classes, subgroup=subgroup)
    try:
        ratio = separation_ratio_from_sums(sums, counts)
    except ValueError:
        ratio = float("nan")
    return {
        "miou": _sanitize(res.mean),
        "per_class_iou": [_sanitize(float(v)) for v in res.per_class],
        "rare_iou": _sanitize(res.subgroup_mean) if subgroup else None,
        "r_stride4": _sanitize(ratio),
    }


def _load_for_eval(ckpt_path: str, cfg: RunConfig) -> ToySegNet:
    """The checkpoint's model, built from its stored config, for use on cfg's eval split."""
    stored = checkpoint_config(ckpt_path)
    if stored.dataset.n_classes != cfg.dataset.n_classes:
        raise ValueError(
            f"class-count mismatch: checkpoint trained with {stored.dataset.n_classes} "
            f"classes, config declares {cfg.dataset.n_classes}")
    model = build_model(stored)
    load_checkpoint(ckpt_path, model)
    return model


def evaluate_checkpoint(ckpt_path: str, cfg: RunConfig) -> dict:
    """Evaluate a stored checkpoint on the eval split described by cfg."""
    return evaluate_model(_load_for_eval(ckpt_path, cfg), _eval_split(cfg), cfg)


# ---------------------------------------------------------------------------
# embedding export
# ---------------------------------------------------------------------------


def export_embeddings(ckpt_path: str, cfg: RunConfig, scale: int, n_per_class: int, out_path: str):
    """Write a balanced CSV of normalized projected embeddings at one scale.

    Columns: class_id, scale, e0..e{d-1}; floats at 9 significant digits.
    Returns the number of data rows written.
    """
    model = _load_for_eval(ckpt_path, cfg)
    if scale not in model.projectors.heads:
        raise ValueError(f"scale {scale} not present in the model (have {sorted(model.projectors.heads)})")

    maps, label_maps = [], []
    for labels, _, projected in _eval_batches(model, _eval_split(cfg), cfg.batch_size):
        maps.append(projected[scale].data)
        label_maps.append(build_pyramid(labels, [scale])[scale])
    projected_all = ad.Tensor(np.concatenate(maps))
    pool = build_pool(np.concatenate(label_maps), scale)

    d = model.projectors.d
    header = "class_id,scale," + ",".join(f"e{i}" for i in range(d))
    rows_written = 0
    with open(out_path, "w") as f:
        f.write(header + "\n")
        if n_per_class > 0 and len(pool):
            present = set(np.unique(pool.class_ids).tolist())
            absent = sorted(set(range(cfg.dataset.n_classes)) - present)
            for cls in absent:
                log.warning("class %d has no labeled pixels at scale %d, omitted", cls, scale)
            anchors = sample_anchor_set(pool, projected_all, n_per_class * len(present),
                                        substream(cfg.seed, NS_EXPORT, scale))
            for cls, row in zip(anchors.class_ids, anchors.embeddings.data):
                vals = ",".join("%.9g" % v for v in row)
                f.write(f"{cls},{scale},{vals}\n")
                rows_written += 1
    return rows_written


# ---------------------------------------------------------------------------
# dense-vs-sampled cost benchmark
# ---------------------------------------------------------------------------


def _measure(fn):
    gc.collect()
    tracemalloc.reset_peak()
    t0 = time.perf_counter()
    value = fn()
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    return value, elapsed, peak


def benchmark_sampling(shapes, a_max: int, n_classes: int = 3, d: int = 32, seed: int = 0,
                       tau: float = 0.1, dense_pair_ceiling: float = 2e8) -> list:
    """Cost of one within-scale loss evaluation, sampled vs fully dense.

    For each (B, h, w): pair counts, wall time, and peak traced memory of a
    forward loss evaluation in each mode.  Dense mode is skipped (reported
    infeasible) once its pair count exceeds the ceiling, instead of
    exhausting memory the hard way.
    """
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    results = []
    try:
        for B, h, w in shapes:
            rng = substream(seed, NS_BENCH, B, h, w)
            labels = rng.integers(0, n_classes, size=(B, h, w))
            projected = ad.Tensor(rng.normal(size=(B, d, h, w)))
            pool = build_pool(labels, 4)
            dense_pairs = (B * h * w) ** 2
            row = {"batch": B, "height": h, "width": w,
                   "dense_pairs": dense_pairs, "a_max": a_max}

            def run_sampled():
                with ad.no_grad():
                    anchors = sample_anchor_set(pool, projected, a_max,
                                                substream(seed, NS_BENCH + 1, B, h, w))
                    return len(anchors), float(info_nce(anchors, tau).data)

            (n_sampled, loss_s), t_s, mem_s = _measure(run_sampled)
            row.update(sampled_anchors=n_sampled, sampled_pairs=n_sampled ** 2,
                       sampled_time_s=t_s, sampled_peak_bytes=mem_s, sampled_loss=loss_s)

            row["dense_feasible"] = dense_pairs <= dense_pair_ceiling
            if row["dense_feasible"]:
                def run_dense():
                    with ad.no_grad():
                        anchors = dense_anchor_set(pool, projected)
                        return len(anchors), float(info_nce(anchors, tau).data)

                (n_dense, loss_d), t_d, mem_d = _measure(run_dense)
                row.update(dense_anchors=n_dense, dense_time_s=t_d,
                           dense_peak_bytes=mem_d, dense_loss=loss_d)
            row["pair_ratio"] = dense_pairs / max(row["sampled_pairs"], 1)
            results.append(row)
    finally:
        if started_here:
            tracemalloc.stop()
    return results


# ---------------------------------------------------------------------------
# finite-difference gradient suite
# ---------------------------------------------------------------------------


def gradient_suite(n_instances: int = 5, seed: int = 0, size: int = 16, n_classes: int = 3,
                   d: int = 3, a_max: int = 24, rtol: float = 1e-4) -> list:
    """Finite-difference checks of every loss term on random toy instances.

    Each instance: B=2 label maps at size x size with a 4-level pyramid,
    random embedding maps per scale, and random class logits for the
    cross-entropy term.  Anchor positions are drawn once per instance; the
    checked function re-gathers embeddings from the perturbed maps through
    those fixed positions.  Every coordinate of every map is perturbed, so
    the check also confirms that unsampled positions receive zero gradient.
    """
    cfg = LossConfig()
    results = []
    for inst in range(n_instances):
        rng = substream(seed, NS_GRADCHECK, inst)
        labels = rng.integers(0, n_classes, size=(2, size, size))
        pyramid = {4: labels}
        for s, factor in ((8, 2), (16, 4), (32, 8)):
            pyramid[s] = downsample_labels(labels, factor)
        maps = {s: ad.Tensor(rng.normal(size=(2, d) + pyramid[s].shape[1:]), requires_grad=True)
                for s in (4, 8, 16, 32)}
        logits = ad.Tensor(rng.normal(size=(2, n_classes, size, size)), requires_grad=True)
        base_sets = {
            s: sample_anchor_set(build_pool(pyramid[s], s), maps[s], a_max,
                                 substream(seed, NS_GRADCHECK + 1, inst, s))
            for s in (4, 8, 16, 32)
        }

        def sets(which=(4, 8, 16, 32)):
            return {s: gather_anchor_set(maps[s], base_sets[s].provenance, base_sets[s].class_ids, s)
                    for s in which}

        cross_strides = sorted({s for a, b, _ in cfg.cross_pairs for s in (a, b)})
        checks = [
            ("within_scale", lambda: info_nce(sets((4,))[4], cfg.tau), [maps[4]]),
            ("multi_scale", lambda: multi_scale_loss(sets(), cfg), list(maps.values())),
            ("cross_scale", lambda: cross_scale_loss(sets(cross_strides), cfg),
             [maps[s] for s in cross_strides]),
            ("total", lambda: total_loss(ad.softmax_cross_entropy(logits, labels), sets(), cfg),
             list(maps.values()) + [logits]),
        ]
        for name, f, tensors in checks:
            try:
                worst = ad.check_gradients(f, tensors, rtol=rtol)
                results.append({"loss": name, "instance": inst,
                                "max_rel_err": worst, "pass": True})
            except AssertionError as e:
                results.append({"loss": name, "instance": inst,
                                "max_rel_err": float("nan"), "pass": False, "detail": str(e)})
    return results
