"""Per-layer tracing from outside the package.

``Tracer.install`` rebinds public functions of palmvein's modules to timed
wrappers, in every palmvein module that holds a reference to them, and
wraps the stage functions the pipeline runs.  Each call records a span
(name, parent span, start, end) and, where the layer does countable work,
counters.  Tensor ops also get their backward closure wrapped, which times
the op's backward pass.  ``uninstall`` restores the original bindings.

The wrappers time their own bookkeeping as well, so a traced run can report
how much of its wall time the tracing itself took.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

TENSOR_OPS = ("conv2d", "maxpool2", "upsample2_nearest", "concat_channels", "relu",
              "clamp01", "linear", "l2_normalize", "adaptive_avg_pool2d", "mse_loss")

STAGE_NAMES = ("gen-data", "transform-targets", "train-ced1", "train-ced2", "finetune-stack",
               "assemble-features", "pretrain-ae", "train-triplet", "finetune-e2e", "evaluate")

# Per-layer metrics: name -> (unit, better).  Times are seconds per operation.
PER_LAYER = {
    **{f"pipeline.{s}.s": ("s", "lower") for s in STAGE_NAMES},
    "pipeline.enroll.s": ("s", "lower"),
    "pipeline.verify_probe.s": ("s", "lower"),
    **{f"tensor.{op}.{d}_s": ("s", "lower") for op in TENSOR_OPS for d in ("fwd", "bwd")},
    "tensor.backward.self_s": ("s", "lower"),
    "tensor.conv2d.calls": ("count", "lower"),
    "tensor.conv2d.fwd_gflop": ("GFLOP", "lower"),
    "tensor.conv2d.bwd_gflop": ("GFLOP", "lower"),
    "optim.adam.s": ("s", "lower"),
    "optim.adam.steps": ("count", "lower"),
    "transforms.irt.s": ("s", "lower"),
    "transforms.irt.images": ("count", "lower"),
    "transforms.tcm.s": ("s", "lower"),
    "synth.build_dataset.s": ("s", "lower"),
    "synth.augment.s": ("s", "lower"),
    "synth.augment.images": ("count", "lower"),
    "ced.build.s": ("s", "lower"),
    "ced.apply.self_s": ("s", "lower"),
    "ced.apply.images": ("count", "lower"),
    "fe.build.s": ("s", "lower"),
    "fe.apply.self_s": ("s", "lower"),
    "fe.apply.images": ("count", "lower"),
    "triplet.build_batch.s": ("s", "lower"),
    "triplet.build_batch.images": ("count", "lower"),
    "triplet.mine.checked": ("count", "lower"),
    "triplet.mine.violators": ("count", "higher"),
    "triplet.corners.forwarded": ("count", "lower"),
    "triplet.corners.unique": ("count", "lower"),
    "triplet.steps.frozen": ("count", "lower"),
    "weights.load.s": ("s", "lower"),
    "weights.load.mb": ("MB", "lower"),
    "weights.save.s": ("s", "lower"),
    "weights.save.mb": ("MB", "lower"),
    "dataio.read_pgm.s": ("s", "lower"),
    "dataio.read_pgm.calls": ("count", "lower"),
    "evalkit.build_report.s": ("s", "lower"),
    "evalkit.emit_report.s": ("s", "lower"),
    "evalkit.match_score.calls": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# Spans whose time is reported net of their child spans.
SELF_TIMED = ("tensor.backward", "ced.apply", "fe.apply")


def _batch(t) -> int:
    return t.shape[0] if t.ndim == 4 else 1


def _mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _conv_flop(args, out) -> float:
    x, w = args[0], args[1]
    co, ci, kh, kw = w.shape
    return 2.0 * _batch(x) * co * ci * kh * kw * out.shape[-1] * out.shape[-2]


def _build_batch_counts(args, kwargs, batch):
    dataset = args[0]
    corners = [c for t in batch.triplets for c in (t.anchor, t.positive, t.negative)]
    return {"triplet.build_batch.images": sum(len(v) for v in dataset.values()),
            "triplet.mine.checked": batch.checked,
            "triplet.mine.violators": batch.violators,
            "triplet.corners.forwarded": len(corners),
            "triplet.corners.unique": len(set(corners))}


# (module, function, span name, counters(args, kwargs, result) -> {counter: increment})
TARGETS = (
    ("pipeline", "enroll", "pipeline.enroll", None),
    ("pipeline", "verify_probe", "pipeline.verify_probe", None),
    ("tensor", "backward", "tensor.backward", None),
    ("optim", "adam_step", "optim.adam", lambda a, k, r: {"optim.adam.steps": 1}),
    ("transforms", "irt", "transforms.irt", lambda a, k, r: {"transforms.irt.images": 1}),
    ("transforms", "tcm", "transforms.tcm", None),
    ("synth", "build_dataset", "synth.build_dataset", None),
    ("synth", "augment", "synth.augment", lambda a, k, r: {"synth.augment.images": 1}),
    ("ced", "build_ced", "ced.build", None),
    ("ced", "ced_apply", "ced.apply", lambda a, k, r: {"ced.apply.images": _batch(a[1])}),
    ("fe", "build_fe", "fe.build", None),
    ("fe", "fe_apply", "fe.apply", lambda a, k, r: {"fe.apply.images": _batch(a[1])}),
    ("triplet", "build_batch", "triplet.build_batch", _build_batch_counts),
    ("triplet", "train_triplet", "triplet.train_triplet",
     lambda a, k, r: {"triplet.steps.frozen": sum(s.phase == "frozen" for s in r)}),
    ("weights", "load_arrays", "weights.load", lambda a, k, r: {"weights.load.mb": _mb(a[0])}),
    ("weights", "save_weights", "weights.save", lambda a, k, r: {"weights.save.mb": _mb(a[1])}),
    ("dataio", "read_pgm", "dataio.read_pgm", lambda a, k, r: {"dataio.read_pgm.calls": 1}),
    ("evalkit", "build_report", "evalkit.build_report", None),
    ("evalkit", "emit_report", "evalkit.emit_report", None),
    ("evalkit", "match_score", "evalkit.match_score",
     lambda a, k, r: {"evalkit.match_score.calls": 1}),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, float, float] | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.bookkeeping_s = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        """Drop recorded spans, counters and bookkeeping time; no span may be open."""
        self.spans.clear()
        self.counts.clear()
        self.bookkeeping_s = 0.0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, counters=None, after=None):
        """Time ``fn`` as span ``name``; ``after(args, result)`` runs untimed after the call."""
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, parent, start, end)
            if counters is not None:
                for key, inc in counters(args, kwargs, result).items():
                    self.counts[key] += inc
            if after is not None:
                after(args, result)
            self.bookkeeping_s += (start - entered) + (perf_counter() - end)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "palmvein" or mod_name.startswith("palmvein."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, replacement)

    def _tensor_op(self, op: str, fn):
        bwd_name = f"tensor.{op}.bwd"

        def after(args, out):
            bwd_counters = None
            if op == "conv2d":
                gflop = _conv_flop(args, out) / 1e9
                x, w = args[0], args[1]
                self.counts["tensor.conv2d.calls"] += 1
                self.counts["tensor.conv2d.fwd_gflop"] += gflop
                # input and weight gradients each cost one forward's worth
                bwd_counters = lambda a, k, r: {  # noqa: E731
                    "tensor.conv2d.bwd_gflop": gflop * (x.requires_grad + w.requires_grad)}
            if out._backward_fn is not None:
                out._backward_fn = self.wrap(bwd_name, out._backward_fn, bwd_counters)

        return self.wrap(f"tensor.{op}.fwd", fn, after=after)

    def install(self) -> None:
        import palmvein.pipeline as pipeline  # loads every palmvein module

        mods = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                if name.startswith("palmvein.")}
        for op in TENSOR_OPS:
            original = getattr(mods["tensor"], op)
            self._rebind(original, self._tensor_op(op, original))
        for mod, fn_name, span, counters in TARGETS:
            original = getattr(mods[mod], fn_name)
            self._rebind(original, self.wrap(span, original, counters))
        self._restore.append((pipeline, "STAGES", pipeline.STAGES))
        pipeline.STAGES = tuple((i, name, self.wrap(f"pipeline.{name}", fn))
                                for i, name, fn in pipeline.STAGES)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # -- aggregation --------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Seconds per span name, and ``<name>.self`` net of child spans for SELF_TIMED."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name_id, _, start, end), in_children in zip(self.spans, child):
            name = self.names[name_id]
            out[name] += end - start
            if name in SELF_TIMED:
                out[f"{name}.self"] += end - start - in_children
        return out

    def per_layer(self, ops: int, ops_wall_s: float, enroll_s: float) -> dict[str, float]:
        """Every PER_LAYER metric, per operation; layers the workload never called read 0."""
        totals = self.totals()
        values = {}
        for metric in PER_LAYER:
            stem, _, kind = metric.rpartition(".")
            if kind == "s":
                values[metric] = totals.get(stem, 0.0) / ops
            elif kind == "self_s":
                values[metric] = totals.get(f"{stem}.self", 0.0) / ops
            elif kind in ("fwd_s", "bwd_s"):
                values[metric] = totals.get(f"{stem}.{kind[:3]}", 0.0) / ops
            else:
                values[metric] = self.counts.get(metric, 0.0) / ops
        values["pipeline.enroll.s"] = enroll_s
        values["trace.overhead_pct"] = 100.0 * self.bookkeeping_s / (ops_wall_s - self.bookkeeping_s)
        return values

    def write(self, path) -> None:
        """Spans as CSV: index, parent index, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, (name_id, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{self.names[name_id]},{start:.9f},{end:.9f}\n")
