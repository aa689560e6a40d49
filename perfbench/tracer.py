"""Span tracing of fuselab from outside the package.

``Tracer.install`` replaces the public functions and methods of every
``fuselab`` module with wrappers that record a span (name, start, end,
parent) in memory; ``uninstall`` puts the originals back. Spans stay in
parallel lists until the run ends, then ``per_layer`` reduces them and
``write`` saves them.

Two groups of callables are left unwrapped, so that their time is counted in
their caller:

* the tensor operations of ``autodiff`` (every function but ``backward``,
  and every ``Tensor`` method). They are the graph nodes themselves, tens of
  thousands per training op; ``autodiff.graph_nodes`` counts them instead.
* the module-tree plumbing of ``layers.Module`` (``parameters``,
  ``buffers``, ``add_*``, ``set_buffer``, ``train``, ``eval``). It recurses
  once per sub-module, so a span per call would cost more than the walk it
  measures; its time belongs to the caller, such as ``zero_grads``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import time
from statistics import median

SKIP = {
    "layers.Module.parameters", "layers.Module.buffers", "layers.Module.add_param",
    "layers.Module.add_buffer", "layers.Module.add_child", "layers.Module.set_buffer",
    "layers.Module.train", "layers.Module.eval",
}

# Self time is charged to the nearest enclosing span (or the span itself)
# whose name is listed here; spans of unlisted callables count towards it.
LAYERS = {
    "autodiff.backward_ms": ["autodiff.backward"],
    "layers.adam_step_ms": ["layers.adam_step"],
    "layers.zero_grads_ms": ["layers.Module.zero_grads"],
    "encoders.text_encoder_ms": ["encoders.TextEncoder.__call__"],
    "encoders.vector_encoder_ms": ["encoders.VectorEncoder.__call__"],
    "autofusion.autofusion_ms": ["autofusion.AutoFusionNet.__call__",
                                 "autofusion.reconstruction_loss"],
    "ganfusion.gan_forward_ms": ["ganfusion.GanFusionStack.gan_forwards",
                                 "ganfusion.GanFusionModule.gan_forward"],
    "ganfusion.discriminator_loss_ms": ["ganfusion.GanFusionModule.discriminator_loss"],
    "ganfusion.generator_loss_ms": ["ganfusion.GanFusionModule.generator_loss"],
    "ganfusion.discriminator_accuracy_ms": [
        "ganfusion.GanFusionModule.discriminator_accuracy"],
    "heads.teacher_forced_loss_ms": ["heads.AttentiveDecoder.teacher_forced_loss"],
    "heads.decode_greedy_ms": ["heads.AttentiveDecoder.decode_greedy"],
    "heads.classifier_ms": ["heads.ClassifierHead.__call__", "heads.ClassifierHead.loss"],
    "harness.make_batch_ms": ["harness.make_batch"],
    "harness.evaluate_model_ms": ["harness.evaluate_model"],
    "metrics.silhouette_ms": ["metrics.silhouette"],
    "metrics.corpus_bleu_ms": ["metrics.corpus_bleu"],
    "metrics.classification_report_ms": ["metrics.classification_report"],
    "data.read_dataset_ms": ["data.read_dataset"],
    "checkpoint.save_checkpoint_ms": ["checkpoint.save_checkpoint"],
    "checkpoint.load_checkpoint_ms": ["checkpoint.load_checkpoint"],
    "bench.trace_hooks": ["bench.trace_hook"],
}
# Reported as mean milliseconds per call, not per step or op.
PER_CALL = {"checkpoint.save_checkpoint_ms", "checkpoint.load_checkpoint_ms"}

OP = "bench.op"
STEP = "harness.RunRecord.log_step"
EPOCH_BREAKS = {"harness.train", "harness.evaluate_model"}


def graph_size(loss) -> int:
    """Tensors reachable from ``loss`` through grad-tracking parents."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.recording = False
        self.counts = {"graph_nodes": 0, "text_tokens": 0, "text_slots": 0,
                       "target_tokens": 0, "target_slots": 0,
                       "decode_rows_live": 0, "decode_rows_stepped": 0}
        self._undo: list[tuple[object, str, object]] = []
        self._hooks = {
            "autodiff.backward": self._count_graph,
            "encoders.TextEncoder.__call__": self._count_text,
            "heads.AttentiveDecoder.teacher_forced_loss": self._count_targets,
            "heads.AttentiveDecoder.decode_greedy": self._count_decode,
        }

    # -- recording -----------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span from the benchmark's own code, and every wrapped
        call made inside it; wrapped calls outside such spans, like those of
        the correctness checks, are not recorded."""
        was, self.recording = self.recording, True
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)
            self.recording = was

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        hook = self._hooks.get(name)
        hook_span = self._intern("bench.trace_hook")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                h = self._open(hook_span)
                hook(args, kwargs, result)
                self._close(h)
            return result

        return wrapper

    # -- counters read from arguments and results ------------------------------
    def _count_graph(self, args, kwargs, result):
        self.counts["graph_nodes"] += graph_size(args[0])

    def _count_text(self, args, kwargs, result):
        ids = args[1]
        self.counts["text_tokens"] += int(sum(args[2]))
        self.counts["text_slots"] += int(ids.shape[0] * ids.shape[1])

    def _count_targets(self, args, kwargs, result):
        targets = args[4]
        self.counts["target_tokens"] += int((targets != 0).sum())
        self.counts["target_slots"] += int(targets.size)

    def _count_decode(self, args, kwargs, result):
        # a row is live from the first step through the step that emits EOS
        max_len = args[4] if len(args) > 4 else kwargs["max_len"]
        live = [min(len(row) + 1, max_len) for row in result]
        self.counts["decode_rows_live"] += sum(live)
        self.counts["decode_rows_stepped"] += len(live) * max(live)

    # -- installation ------------------------------------------------------------
    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{m.name}")
                   for m in pkgutil.iter_modules(package.__path__)]
        replaced: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if short == "autodiff" and attr != "backward":
                        continue
                    wrapped = self._wrap(obj, f"{short}.{attr}")
                    replaced[id(obj)] = wrapped
                    self._set(mod, attr, wrapped)
                elif inspect.isclass(obj) and obj.__name__ != "Tensor":
                    self._wrap_class(obj, f"{short}.{attr}")
        # rebind names imported from one fuselab module into another
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and vars(mod)[attr] is not replaced[id(obj)]:
                    self._set(mod, attr, replaced[id(obj)])

    def _wrap_class(self, cls, qual: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{qual}.{attr}"
            if name in SKIP:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reduction ---------------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], list[float]]:
        """Seconds charged to each LAYERS entry, and each op's wall time.

        A span's self time is its duration minus that of its direct children;
        it is charged to the nearest span, itself included, that LAYERS
        lists. Only spans inside an op are counted.
        """
        owner_of = {self._ids[n]: layer for layer, names in LAYERS.items()
                    for n in names if n in self._ids}
        op_id = self._ids.get(OP)
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_t = dur[:]
        for i in range(n):
            if self.parent[i] >= 0:
                self_t[self.parent[i]] -= dur[i]
        charge: list[str | None] = [None] * n
        in_op = [False] * n
        totals = {layer: 0.0 for layer in LAYERS}
        totals["other"] = 0.0
        ops = []
        for i in range(n):
            par = self.parent[i]
            in_op[i] = self.name[i] == op_id or (par >= 0 and in_op[par])
            charge[i] = owner_of.get(self.name[i], charge[par] if par >= 0 else None)
            if self.name[i] == op_id:
                ops.append(dur[i])
            if in_op[i]:
                totals[charge[i] or "other"] += self_t[i]
        return totals, ops

    def per_layer(self, per_step: bool) -> dict[str, float]:
        """Per-layer metrics over the traced ops (see README for each one)."""
        totals, ops = self.self_times()
        calls = {nm: 0 for nm in self.names}
        per_call = {layer: [] for layer in PER_CALL}
        for i, nid in enumerate(self.name):
            calls[self.names[nid]] += 1
            for layer in PER_CALL:
                if self.names[nid] in LAYERS[layer]:
                    per_call[layer].append(self.end[i] - self.start[i])
        unit = max(calls.get(STEP, 0) if per_step else len(ops), 1)
        out = {}
        for layer in LAYERS:
            if layer in PER_CALL:
                out[layer] = 1e3 * _ratio(sum(per_call[layer]), len(per_call[layer]))
            elif layer != "bench.trace_hooks":
                out[layer] = 1e3 * totals[layer] / unit
        c = self.counts
        out["autodiff.graph_nodes"] = c["graph_nodes"] / unit
        out["layers.lstm_cell_calls"] = calls.get("layers.LSTMCell.__call__", 0) / unit
        out["encoders.text_useful_ratio"] = _ratio(c["text_tokens"], c["text_slots"])
        out["heads.target_useful_ratio"] = _ratio(c["target_tokens"], c["target_slots"])
        out["heads.decode_useful_ratio"] = _ratio(c["decode_rows_live"],
                                                  c["decode_rows_stepped"])
        out["harness.encode_calls_per_batch"] = _ratio(
            calls.get("harness.FusionModel.encode", 0), calls.get("harness.make_batch", 0))
        step_ms = self.step_intervals()
        out["harness.step_ms_p50"] = _quantile(step_ms, 0.5)
        out["harness.step_ms_p90"] = _quantile(step_ms, 0.9)
        return out

    def step_intervals(self) -> list[float]:
        """ms between successive log_step calls of one epoch of one run."""
        step_id = self._ids.get(STEP)
        breaks = {self._ids[n] for n in EPOCH_BREAKS if n in self._ids}
        out, last = [], None
        for i, nid in enumerate(self.name):
            if nid in breaks:
                last = None
            elif nid == step_id:
                if last is not None:
                    out.append(1e3 * (self.start[i] - last))
                last = self.start[i]
        return out

    def shares(self) -> dict[str, float]:
        """Share of the traced ops' wall time charged to each layer."""
        totals, ops = self.self_times()
        wall = sum(ops) or 1.0
        return {k: v / wall for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}

    def write(self, path, extra: dict) -> None:
        doc = dict(extra, names=self.names, counts=self.counts,
                   spans={"name": self.name, "start": self.start,
                          "end": self.end, "parent": self.parent})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if q == 0.5:
        return median(values)
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
