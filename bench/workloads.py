"""The benchmark's three workloads.

Each workload sets up, marks the end of set-up, runs closed-loop rounds of
the same operations until its deadline, marks the end of the timed phase and
then checks the program's outputs against ``reference``.  Workloads call the
package through its module attributes at call time, so a traced run sees
every call (see ``spans``).

train-scenes  train() with the reference recipe on the synthetic scenes;
              the encoder's convolutions dominate.
head-hires    the contrastive head alone on fixed 2x512x512 label maps;
              projector, sampling and the contrastive kernel dominate.
eval-scenes   checkpoint load, evaluation over a 200-image split and
              embedding export; forward passes with no tape.
"""

import csv
import gc
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import reference as ref

STRIDES = (4, 8, 16, 32)


@dataclass
class Outcome:
    attempted: int
    images_per_s: float
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phases:
    """Marks the end of set-up and of the timed phase; the tracer is live in between."""

    def __init__(self, started, process_age, tracer, package):
        self.started = started
        self.process_age = process_age
        self.tracer = tracer
        self.package = package
        self.setup_s = None
        self.peak_rss_mb = None
        self.untraced = []

    def setup_done(self):
        self.setup_s = self.process_age + (time.perf_counter() - self.started)
        if self.tracer is not None:
            self.untraced = self.tracer.install(self.package)

    def timed_done(self, peak=None):
        self.peak_rss_mb = peak_rss_mb() if peak is None else peak
        if self.tracer is not None:
            self.tracer.uninstall()


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


# ---------------------------------------------------------------------------
# train-scenes
# ---------------------------------------------------------------------------

TRAIN_EVAL_INTERVAL = 25
MIOU_TARGET = 0.6
LOSS_WINDOW = 10
# every run trains at least this many steps, and its peak RSS is read after
# exactly this many: the package's garbage grows with the step count, so a
# peak taken at the deadline would move with the machine's speed
TRAIN_STEPS_MIN = 100


class _Deadline(Exception):
    """Raised from the step log once the run's time is up; ends train() early."""


class StepLog:
    """File-like sink for the JSON records train() writes, one per line.

    Stamps each record with the time it arrived.  Step records close a
    tracer step; with ``collect`` they are followed by a garbage collection
    (set-up only, never in a timed phase).  The first step record at or past
    ``deadline`` and ``min_steps`` stops the run; the peak RSS is read at
    step ``min_steps``.
    """

    def __init__(self, deadline=None, min_steps=0, tracer=None, collect=False):
        self.deadline = deadline
        self.min_steps = min_steps
        self.tracer = tracer
        self.collect = collect
        self.records = []
        self.times = []
        self.steps = 0
        self.peak_rss_mb = None

    def write(self, line):
        now = time.perf_counter()
        record = json.loads(line)
        self.records.append(record)
        self.times.append(now)
        if "eval" in record:
            return
        self.steps += 1
        if self.tracer is not None:
            self.tracer.end_step()
        if self.collect:
            gc.collect()
        if self.steps == self.min_steps:
            self.peak_rss_mb = peak_rss_mb()
        if self.deadline is not None and now >= self.deadline and self.steps >= self.min_steps:
            raise _Deadline

    def flush(self):
        pass


def _own_iou(ms, model, dataset, batch):
    """Per-class IoU and mIoU of ToySegNet.predict over a split, from an independent count."""
    n_classes = model.n_classes
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for lo in range(0, len(dataset), batch):
        images, labels = dataset.batch(range(lo, min(lo + batch, len(dataset))))
        pred = model.predict(ms.autodiff.Tensor(images))
        cm += ref.confusion_counts(pred, labels, n_classes)
    return ref.iou_from_confusion(cm)


def check_iou(report, per_class, mean, where):
    """Failures of an evaluation report against per-class IoU and mIoU counted apart."""
    failures = []
    reported = np.array([np.nan if v is None else v for v in report["per_class_iou"]])
    _check(failures, reported.shape == per_class.shape
           and np.array_equal(np.isnan(reported), np.isnan(per_class))
           and np.allclose(reported[~np.isnan(per_class)], per_class[~np.isnan(per_class)],
                           rtol=0, atol=1e-12),
           f"{where}: per-class IoU {report['per_class_iou']} != independent count {per_class.tolist()}")
    _check(failures, report["miou"] is not None and ref.close(report["miou"], mean, 0, 1e-12),
           f"{where}: mIoU {report['miou']} != independent count {mean}")
    return failures


def train_scenes(ms, seed, seconds, phases, workdir):
    from mscontrast.config import DatasetSpec, RunConfig

    cfg = RunConfig(seed=seed, eval_interval=TRAIN_EVAL_INTERVAL, out_dir=os.path.join(workdir, "train"))
    warm = RunConfig(seed=seed, steps=4, eval_interval=4, out_dir=os.path.join(workdir, "warm"),
                     dataset=DatasetSpec(n_eval=cfg.batch_size))
    ms.training.train(warm, log_file=StepLog())
    gc.collect()
    phases.setup_done()

    log = StepLog(deadline=time.perf_counter() + seconds, min_steps=TRAIN_STEPS_MIN, tracer=phases.tracer)
    started = time.perf_counter()
    try:
        ms.training.train(cfg, log_file=log)
    except _Deadline:
        pass
    phases.timed_done(log.peak_rss_mb)

    steps = [(t, r) for t, r in zip(log.times, log.records) if "eval" not in r]
    evals = [(t, r) for t, r in zip(log.times, log.records) if "eval" in r]
    # a step's duration is the gap to the record before it, when that was a
    # step record: the first step builds the model, and a step after an eval
    # also carries the eval and checkpoint
    durations = [t1 - t0 for (t0, r0), (t1, r1) in zip(zip(log.times, log.records),
                                                       zip(log.times[1:], log.records[1:]))
                 if "eval" not in r0 and "eval" not in r1]
    losses = [r["total"] for _, r in steps]
    reached = [t - started for t, r in evals if (r["eval"]["miou"] or 0.0) >= MIOU_TARGET]

    failures = []
    first, last = np.mean(losses[:LOSS_WINDOW]), np.mean(losses[-LOSS_WINDOW:])
    _check(failures, last < first,
           f"loss did not fall: mean {first} over the first {LOSS_WINDOW} steps, {last} over the last")
    _check(failures, bool(reached), f"no periodic eval reached mIoU {MIOU_TARGET}: "
           f"{[r['eval']['miou'] for _, r in evals]}")
    if evals:
        _, last = evals[-1]
        model = ms.training.build_model(cfg)
        ms.training.load_checkpoint(os.path.join(cfg.out_dir, last["checkpoint"]), model)
        eval_ds = ms.scenes.SceneDataset(cfg.dataset.scene_spec(),
                                         cfg.seed + ms.training.EVAL_SEED_OFFSET, cfg.dataset.n_eval)
        per_class, mean = _own_iou(ms, model, eval_ds, cfg.batch_size)
        failures += check_iou(last["eval"], per_class, mean, f"eval after step {last['step'] + 1}")

    return Outcome(
        attempted=len(steps),
        images_per_s=cfg.batch_size / statistics.median(durations),
        failures=failures,
        info={
            "steps": len(steps),
            "step_ms_median": statistics.median(durations) * 1e3,
            "step_ms": [round(d * 1e3, 1) for d in durations],
            "time_to_miou_s": reached[0] if reached else None,
            "miou_target": MIOU_TARGET,
            "losses": losses,
            "evals": [{"step": r["step"] + 1, "miou": r["eval"]["miou"], "r_stride4": r["eval"]["r_stride4"]}
                      for _, r in evals],
        },
    )


# ---------------------------------------------------------------------------
# head-hires
# ---------------------------------------------------------------------------

HEAD_BATCH = 2
HEAD_SIZE = 512
HEAD_CLASSES = 19
HEAD_TAIL = 0.8            # class k of 1..19 covers a share proportional to k^-0.8
CELL = 16                  # labels are painted in 16x16 cells
IGNORE_ROWS = 48           # bottom rows of every map are ignore (9.4% of pixels)
FD_EPS = 1e-5
FD_ATOL = 2e-8


def cityscapes_like_labels(seed):
    """(2, 512, 512) label maps: 19 long-tailed classes in 16x16 cells over an ignore band.

    Class areas are fixed by the tail (largest 22%, rarest 2% of the
    labeled cells); the seed picks which class id gets which area and where
    the cells go.
    """
    rng = np.random.default_rng([seed, 7])
    rows, cols = (HEAD_SIZE - IGNORE_ROWS) // CELL, HEAD_SIZE // CELL
    n_cells = HEAD_BATCH * rows * cols
    share = np.arange(1, HEAD_CLASSES + 1) ** -HEAD_TAIL
    share /= share.sum()
    counts = np.floor(share * n_cells).astype(int)
    counts[np.argsort(share * n_cells - counts)[::-1][: n_cells - counts.sum()]] += 1
    cells = np.repeat(rng.permutation(HEAD_CLASSES), counts)
    rng.shuffle(cells)
    grid = cells.reshape(HEAD_BATCH, rows, cols)
    labels = np.full((HEAD_BATCH, HEAD_SIZE, HEAD_SIZE), ref.IGNORE, dtype=np.int64)
    labels[:, : rows * CELL] = grid.repeat(CELL, axis=1).repeat(CELL, axis=2)
    return labels


class Head:
    """The contrastive head on fixed features: project, pyramid, sample, both losses."""

    def __init__(self, ms, seed):
        self.ms = ms
        self.cfg = ms.losses.LossConfig()
        self.labels = cityscapes_like_labels(seed)
        rng = np.random.default_rng([seed, 8])
        channels = ms.model.ENCODER_CHANNELS
        self.features = {
            s: ms.autodiff.Tensor(rng.standard_normal((HEAD_BATCH, channels[s], HEAD_SIZE // s, HEAD_SIZE // s)),
                                  requires_grad=True)
            for s in STRIDES}
        self.projector = ms.projector.MultiScaleProjector(channels, seed=seed)
        self.sampler = ms.sampling.SamplerRng(seed)
        self.leaves = list(self.features.values()) + [p for _, p in self.projector.named_parameters()]

    def loss(self, step):
        ms = self.ms
        projected = self.projector.project_all(self.features, training=True)
        pyramid = ms.labels.build_pyramid(self.labels, STRIDES)
        sets = {}
        for s in STRIDES:
            pool = ms.sampling.build_pool(pyramid[s], s)
            sets[s] = ms.sampling.sample_anchor_set(pool, projected[s], self.cfg.a_max,
                                                    self.sampler.stream(step, s))
        loss = ms.autodiff.add(ms.losses.multi_scale_loss(sets, self.cfg),
                               ms.losses.cross_scale_loss(sets, self.cfg))
        return loss, sets, projected

    def step(self, step):
        loss, _, _ = self.loss(step)
        self.ms.autodiff.backward(loss)
        for t in self.leaves:
            t.zero_grad()
        return float(loss.data)


def check_anchor_set(anchors, labels_s, a_max):
    """Failures of a balanced anchor set drawn from the label map ``labels_s`` of its stride."""
    failures = []
    s = anchors.scale
    quota = ref.balanced_quota(labels_s, a_max)
    classes, counts = np.unique(anchors.class_ids, return_counts=True)
    got = dict(zip(classes.tolist(), counts.tolist()))
    _check(failures, got == quota, f"stride {s}: anchors per class {got}, expected {quota}")
    _check(failures, len(anchors) <= a_max, f"stride {s}: {len(anchors)} anchors > a_max {a_max}")
    prov = anchors.provenance
    _check(failures, len(np.unique(prov, axis=0)) == len(prov), f"stride {s}: repeated anchor positions")
    _check(failures, np.array_equal(labels_s[prov[:, 0], prov[:, 1], prov[:, 2]], anchors.class_ids),
           f"stride {s}: anchor class differs from the label at its position")
    norms = np.linalg.norm(anchors.embeddings.data, axis=1)
    _check(failures, np.allclose(norms, 1.0, rtol=0, atol=1e-12),
           f"stride {s}: embedding norms off by up to {np.abs(norms - 1).max():.3g}")
    return failures


def _reference_head_loss(cfg, sets, projected):
    """The head's loss recomputed from the projected maps at the anchors' positions."""
    emb, cls = {}, {}
    for s, anchors in sets.items():
        b, r, c = anchors.provenance.T
        rows = projected[s].data[b, :, r, c]
        emb[s] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        cls[s] = anchors.class_ids
    total = 0.0
    for s, w in cfg.scale_weights.items():
        if w > 0:
            try:
                total += w * ref.info_nce(emb[s], cls[s], emb[s], cls[s], cfg.tau, same_set=True)
            except ValueError:
                pass  # a scale without a positive pair contributes nothing
    for s, s2, w in cfg.cross_pairs:
        if w > 0 and np.intersect1d(cls[s], cls[s2]).size:
            total += w * ref.cross_info_nce(emb[s], cls[s], emb[s2], cls[s2], cfg.tau)
    return total


def _check_head(ms, head, step, seed):
    failures = []
    cfg = head.cfg
    for t in head.leaves:
        t.zero_grad()
    loss, sets, projected = head.loss(step)
    ms.autodiff.backward(loss)

    for s, anchors in sets.items():
        failures += check_anchor_set(anchors, ref.center_pick(head.labels, s), cfg.a_max)

    expected = _reference_head_loss(cfg, sets, projected)
    _check(failures, ref.close(float(loss.data), expected, 1e-10),
           f"head loss {float(loss.data)!r} != reference {expected!r}")

    rng = np.random.default_rng([seed, 9])
    directions = [rng.standard_normal(t.data.shape) for t in head.leaves]
    norm = np.sqrt(sum(float((v * v).sum()) for v in directions))
    directions = [v / norm for v in directions]
    analytic = sum(float((t.grad * v).sum()) for t, v in zip(head.leaves, directions) if t.grad is not None)
    saved = [t.data.copy() for t in head.leaves]
    values = []
    for sign in (1.0, -1.0):
        for t, v, x in zip(head.leaves, directions, saved):
            t.data[...] = x + sign * FD_EPS * v
        with ms.autodiff.no_grad():
            values.append(float(head.loss(step)[0].data))
    for t, x in zip(head.leaves, saved):
        t.data[...] = x
    numeric = (values[0] - values[1]) / (2 * FD_EPS)
    # rounding in the two loss evaluations leaves the central difference off by
    # up to ~7e-9 on these inputs; a gradient wrong by 0.1% in one op is ~1e-7 off
    _check(failures, ref.close(analytic, numeric, 1e-5, FD_ATOL),
           f"directional derivative {analytic!r} != central difference {numeric!r}")
    return failures, {"fd_analytic": analytic, "fd_numeric": numeric}


def head_hires(ms, seed, seconds, phases, workdir):
    head = Head(ms, seed)
    head.step(0)
    gc.collect()
    phases.setup_done()

    tracer = phases.tracer
    durations, losses = [], []
    step = 1
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        losses.append(head.step(step))
        durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_step()
        # a step leaves ~350 MB of graph behind that only the cyclic collector
        # frees, and few enough objects that it rarely runs: uncollected, the
        # peak passed 4 GB within 13 steps.  Collect outside the step's timing;
        # train-scenes shows that fault uncollected.
        gc.collect()
        step += 1
        if time.perf_counter() >= deadline:
            break
    phases.timed_done()

    # the check replays the warm-up step's anchors, so its outcome depends on
    # the seed alone and not on how many steps the run managed
    failures, fd = _check_head(ms, head, 0, seed)
    return Outcome(
        attempted=len(durations),
        images_per_s=HEAD_BATCH / statistics.median(durations),
        failures=failures,
        info={"steps": len(durations), "step_ms_median": statistics.median(durations) * 1e3,
              "step_ms": [round(d * 1e3, 1) for d in durations],
              "losses": losses, **fd},
    )


# ---------------------------------------------------------------------------
# eval-scenes
# ---------------------------------------------------------------------------

CKPT_STEPS = 20
EVAL_IMAGES = 200
EXPORT_SCALE = 4
EXPORT_PER_CLASS = 100
R_SUBSET = 400


def _eval_round(ms, ckpt, cfg, eval_ds, csv_path):
    stored = ms.training.checkpoint_config(ckpt)
    model = ms.training.build_model(stored)
    ms.training.load_checkpoint(ckpt, model)
    report = ms.training.evaluate_model(model, eval_ds, cfg)
    rows = ms.training.export_embeddings(ckpt, cfg, EXPORT_SCALE, EXPORT_PER_CLASS, csv_path)
    return model, report, rows


def check_export(csv_path, rows, d, labels4):
    """Failures of an exported embedding CSV against the stride-4 labels of its split."""
    failures = []
    with open(csv_path) as f:
        reader = csv.reader(f)
        header = next(reader)
        data = list(reader)
    _check(failures, len(data) == rows, f"export reported {rows} rows, file has {len(data)}")
    _check(failures, len(header) == 2 + d, f"export header has {len(header)} columns, expected {2 + d}")
    _check(failures, bool(data), "export wrote no rows")
    if data:
        cls = np.array([int(row[0]) for row in data])
        scales = {int(row[1]) for row in data}
        vecs = np.array([[float(v) for v in row[2:]] for row in data])
        present = np.unique(labels4[labels4 != ref.IGNORE])
        quota = ref.balanced_quota(labels4, EXPORT_PER_CLASS * len(present))
        got = dict(zip(*[a.tolist() for a in np.unique(cls, return_counts=True)]))
        _check(failures, got == quota, f"export rows per class {got}, expected {quota}")
        _check(failures, scales == {EXPORT_SCALE}, f"export scale column {sorted(scales)}")
        norms = np.linalg.norm(vecs, axis=1)
        _check(failures, np.allclose(norms, 1.0, rtol=0, atol=1e-7),
               f"exported rows off unit norm by up to {np.abs(norms - 1).max():.3g}")
    return failures


def _check_eval(ms, model, report, rows, cfg, eval_ds, csv_path, seed):
    failures = []
    per_class, mean = _own_iou(ms, model, eval_ds, cfg.batch_size)
    failures += check_iou(report, per_class, mean, "eval split")

    embeddings, classes, label_maps = [], [], []
    with ms.autodiff.no_grad():
        for lo in range(0, len(eval_ds), cfg.batch_size):
            images, labels = eval_ds.batch(range(lo, min(lo + cfg.batch_size, len(eval_ds))))
            _, projected = model.forward(ms.autodiff.Tensor(images), training=False)
            labels4 = ref.center_pick(labels, 4)
            label_maps.append(labels4)
            b, r, c = np.nonzero(labels4 != ref.IGNORE)
            embeddings.append(projected[4].data[b, :, r, c])
            classes.append(labels4[b, r, c])
    embeddings, classes = np.concatenate(embeddings), np.concatenate(classes)
    own_r = ref.separation_ratio_sums(embeddings, classes)
    _check(failures, report["r_stride4"] is not None and ref.close(report["r_stride4"], own_r, 1e-9),
           f"r_stride4 {report['r_stride4']!r} != own computation {own_r!r}")
    subset = np.random.default_rng([seed, 10]).choice(len(classes), size=R_SUBSET, replace=False)
    pairwise = ref.separation_ratio_pairwise(embeddings[subset], classes[subset])
    summed = ref.separation_ratio_sums(embeddings[subset], classes[subset])
    _check(failures, ref.close(summed, pairwise, 1e-9),
           f"R from sums {summed!r} != R over all pairs {pairwise!r} on a {R_SUBSET}-row subset")

    failures += check_export(csv_path, rows, model.projectors.d, np.concatenate(label_maps))
    return failures, own_r


def eval_scenes(ms, seed, seconds, phases, workdir):
    from mscontrast.config import DatasetSpec, RunConfig

    train_cfg = RunConfig(seed=seed, steps=CKPT_STEPS, eval_interval=CKPT_STEPS,
                          out_dir=os.path.join(workdir, "ckpt"), dataset=DatasetSpec(n_eval=8))
    _, _, ckpt = ms.training.train(train_cfg, log_file=StepLog(collect=True))
    cfg = RunConfig(seed=seed, out_dir=train_cfg.out_dir, dataset=DatasetSpec(n_eval=EVAL_IMAGES))
    csv_path = os.path.join(workdir, "embeddings.csv")
    split = cfg.seed + ms.training.EVAL_SEED_OFFSET
    warm_cfg = RunConfig(seed=seed, out_dir=train_cfg.out_dir, dataset=DatasetSpec(n_eval=cfg.batch_size))
    _eval_round(ms, ckpt, warm_cfg, ms.scenes.SceneDataset(cfg.dataset.scene_spec(), split, cfg.batch_size),
                csv_path)
    eval_ds = ms.scenes.SceneDataset(cfg.dataset.scene_spec(), split, EVAL_IMAGES)
    gc.collect()
    phases.setup_done()

    tracer = phases.tracer
    durations = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        model, report, rows = _eval_round(ms, ckpt, cfg, eval_ds, csv_path)
        durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_step()
        if time.perf_counter() >= deadline:
            break
    phases.timed_done()

    failures, own_r = _check_eval(ms, model, report, rows, cfg, eval_ds, csv_path, seed)
    return Outcome(
        attempted=len(durations),
        images_per_s=EVAL_IMAGES / statistics.median(durations),
        failures=failures,
        info={"rounds": len(durations), "round_ms_median": statistics.median(durations) * 1e3,
              "round_ms": [round(d * 1e3, 1) for d in durations],
              "miou": report["miou"], "r_stride4": report["r_stride4"], "own_r_stride4": own_r},
    )


WORKLOADS = {
    "train-scenes": train_scenes,
    "head-hires": head_hires,
    "eval-scenes": eval_scenes,
}
