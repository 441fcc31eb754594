"""Span tracing for the benchmark's per-layer metrics.

A :class:`Tracer` rebinds the package's functions at each layer boundary
(module attributes and class methods the program looks up at call time) to
wrappers that record a span: name, start, end, parent span and step id.
Spans stay in memory and are written out when the run ends.  A layer's self
time is its span minus the part its child spans cover.  Nothing here changes
what the wrapped functions compute, so a traced run reproduces an untraced
one bit for bit.

The untraced run never constructs a Tracer.
"""

import json
import statistics
import sys
import time
import weakref
from collections import defaultdict

# (module, attribute path, span name).  A name of None marks a wrapper that
# picks its span name or records counts itself (see Tracer._special).
TARGETS = (
    ("scenes", "SceneDataset.batch", "scenes.batch"),
    ("model", "ToySegNet.forward", None),
    ("autodiff", "conv2d", "autodiff.conv2d"),
    ("autodiff", "backward", None),
    ("autodiff", "contrastive_pair_loss", None),
    ("autodiff", "gather_positions", "autodiff.gather_positions"),
    ("projector", "MultiScaleProjector.project_all", "projector.project"),
    ("labels", "build_pyramid", "labels.pyramid"),
    ("sampling", "build_pool", "sampling.pool"),
    ("sampling", "sample_anchor_set", None),
    ("losses", "multi_scale_loss", "losses.multi_scale"),
    ("losses", "cross_scale_loss", "losses.cross_scale"),
    ("training", "sgd_step", "training.sgd"),
    ("training", "evaluate_model", "training.evaluate"),
    ("training", "save_checkpoint", "training.checkpoint_save"),
    ("training", "load_checkpoint", "training.checkpoint_load"),
    ("training", "export_embeddings", "training.export"),
    ("metrics", "miou", "metrics.miou"),
    ("metrics", "class_separation_ratio", "metrics.separation_ratio"),
)

# tape ops whose backward closures get a span of their own, so that their
# backward time is counted with the op and not with the backward sweep
BACKWARD_OPS = ("conv2d", "contrastive_pair_loss", "gather_positions")

# per-layer metric -> (span name, aggregation); "step" sums self time per
# step and takes the median over steps, "call" takes the median over calls
TIMED_METRICS = {
    "scenes.batch_ms": ("scenes.batch", "call"),
    "model.forward_ms": ("model.forward", "call"),
    "model.forward_eval_ms": ("model.forward_eval", "call"),
    "autodiff.conv2d_ms": ("autodiff.conv2d", "step"),
    "autodiff.backward_ms": ("autodiff.backward", "step"),
    "autodiff.contrastive_pair_loss_ms": ("autodiff.contrastive_pair_loss", "step"),
    "autodiff.gather_positions_ms": ("autodiff.gather_positions", "step"),
    "projector.project_ms": ("projector.project", "call"),
    "labels.pyramid_ms": ("labels.pyramid", "call"),
    "sampling.pool_ms": ("sampling.pool", "step"),
    "sampling.sample_ms": ("sampling.sample", "step"),
    "losses.multi_scale_ms": ("losses.multi_scale", "step"),
    "losses.cross_scale_ms": ("losses.cross_scale", "step"),
    "training.sgd_ms": ("training.sgd", "call"),
    "training.evaluate_ms": ("training.evaluate", "call"),
    "training.checkpoint_save_ms": ("training.checkpoint_save", "call"),
    "training.checkpoint_load_ms": ("training.checkpoint_load", "call"),
    "training.export_ms": ("training.export", "call"),
    "metrics.miou_ms": ("metrics.miou", "call"),
    "metrics.separation_ratio_ms": ("metrics.separation_ratio", "call"),
}

UNITS = {
    "autodiff.tape_nodes": "count",
    "autodiff.tapes_alive": "count",
    "sampling.contributing_scales": "ratio",
    "losses.pairs_per_s": "pairs/s",
}


def self_times(spans):
    """Self time of every span: its duration minus the union of its children's intervals.

    ``spans`` is a list of (name, start, end, parent index, step) with parent
    -1 for a root; a parent always precedes its children.
    """
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


class Tracer:
    """Records spans and counts around the package's layer boundaries."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, step]
        self.step = 0          # id of the step in progress; steps below it are complete
        self._stack = []
        self._counts = defaultdict(lambda: defaultdict(float))  # metric -> step -> value
        self._tapes = []       # (step, weakref to a consumed tape)
        self._undo = []

    # -- recording --------------------------------------------------------

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.step]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            rec = self._open(name(args, kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        traced.__wrapped__ = fn
        return traced

    def count(self, metric, value):
        self._counts[metric][self.step] += value

    def end_step(self):
        """Close the current step: count the earlier steps' tapes still reachable."""
        alive = 0
        kept = []
        for step, ref in self._tapes:
            if ref() is not None:
                kept.append((step, ref))
                alive += step < self.step
        self._tapes = kept
        self._counts["autodiff.tapes_alive"][self.step] = alive
        self.step += 1

    # -- wrappers with their own logic ---------------------------------------

    def _special(self, attr, fn):
        if attr == "ToySegNet.forward":
            def name(args, kwargs):
                training = kwargs["training"] if "training" in kwargs else args[2]
                return "model.forward" if training else "model.forward_eval"
            return self._wrap(fn, name)

        if attr == "backward":
            inner = self._wrap(fn, "autodiff.backward")

            def backward(loss, *args, **kwargs):
                tape = getattr(loss, "tape", None)
                nodes = getattr(tape, "nodes", None)
                if nodes is not None and not getattr(tape, "consumed", True):
                    self.count("autodiff.tape_nodes", len(nodes))
                    self._tapes.append((self.step, weakref.ref(tape)))
                    for node in nodes:
                        op = getattr(node, "name", None)
                        if op in BACKWARD_OPS:
                            node.backward_fn = self._wrap(node.backward_fn, "autodiff." + op)
                return inner(loss, *args, **kwargs)
            return backward

        if attr == "contrastive_pair_loss":
            inner = self._wrap(fn, "autodiff.contrastive_pair_loss")

            def contrastive_pair_loss(a, b, *args, **kwargs):
                self.count("pairs", a.data.shape[0] * b.data.shape[0])
                return inner(a, b, *args, **kwargs)
            return contrastive_pair_loss

        if attr == "sample_anchor_set":
            inner = self._wrap(fn, "sampling.sample")

            def sample_anchor_set(*args, **kwargs):
                anchors = inner(*args, **kwargs)
                ids = anchors.class_ids.tolist()
                self.count("scales_sampled", 1)
                self.count("scales_with_positive", len(set(ids)) < len(ids))  # a class drawn twice
                return anchors
            return sample_anchor_set

        raise KeyError(attr)

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Rebind every target in the package's loaded modules; returns the names not found."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
        missing = []
        for mod_name, attr, span in TARGETS:
            owner = sys.modules.get(f"{package.__name__}.{mod_name}")
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, parts[-1], None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self._special(attr, fn) if span is None else self._wrap(fn, span)
            if len(parts) > 1:
                self._rebind(owner, parts[-1], wrapped)
                continue
            # a function may also be bound under its name in the modules that import it
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, wrapped)
        return missing

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo = []

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Every per-layer metric over the completed steps; 0 for a layer that did no work."""
        steps = range(self.step)
        selfs = self_times(self.spans)
        per_call = defaultdict(list)
        per_step = defaultdict(lambda: defaultdict(float))
        inclusive_loss = defaultdict(float)
        for (name, start, end, _, step), own in zip(self.spans, selfs):
            if step >= self.step:
                continue
            per_call[name].append(own)
            per_step[name][step] += own
            if name in ("losses.multi_scale", "losses.cross_scale"):
                inclusive_loss[step] += end - start

        out = {}
        for metric, (span, how) in TIMED_METRICS.items():
            if how == "call":
                value = _median(per_call[span])
            else:
                value = _median([per_step[span][s] for s in steps]) if per_call[span] else 0.0
            out[metric] = value * 1e3

        counts = self._counts
        out["autodiff.tape_nodes"] = _median([counts["autodiff.tape_nodes"][s] for s in steps])
        out["autodiff.tapes_alive"] = _median([counts["autodiff.tapes_alive"][s] for s in steps])
        ratios = [counts["scales_with_positive"][s] / counts["scales_sampled"][s]
                  for s in steps if counts["scales_sampled"][s]]
        out["sampling.contributing_scales"] = _median(ratios)
        rates = [counts["pairs"][s] / inclusive_loss[s] for s in steps if inclusive_loss[s] > 0]
        out["losses.pairs_per_s"] = _median(rates)
        return {name: {"value": value, "unit": UNITS.get(name, "ms")} for name, value in out.items()}

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "step"], "spans": self.spans}, f)
