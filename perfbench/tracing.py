"""Spans and counters recorded around calls into sdvsum, from outside it.

The tracer replaces a function bound in a module namespace (``model_forward``
in ``sdvsum.training``, ``write_checkpoint_file`` in ``sdvsum.sdve``, ...)
with a wrapper that records a span: name, start, end, parent span and the
benchmark phase it ran in. Because the program's modules import each other's
functions by name, a function is wrapped in every namespace the pipeline
calls it through. Nothing inside ``src/`` changes.

Autodiff ops are too many for one span each (about 300 per training sample),
so they are aggregated into per-(phase, op kind) counters: calls, forward
seconds and backward seconds. The backward time is caught by wrapping the
``bwd`` closure of every node an op returns.

Spans are kept in memory and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import time
from pathlib import Path
from typing import NamedTuple

perf = time.perf_counter

# op kinds the model and the losses call; each gets calls/fwd/bwd metrics
OP_KINDS = (
    "matmul", "transpose", "add", "mul", "scale", "affine", "relu", "sigmoid",
    "log", "clamp", "softmax_rows", "layer_norm", "dropout", "concat_cols",
    "slice_cols", "mean_all",
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    phase: str

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps module attributes; :meth:`uninstall` puts the originals back."""

    def __init__(self):
        # plain tuples of atoms, (id, name, start, end, parent, phase): the
        # cyclic GC stops tracking them, so a long run's records do not slow
        # the program's own collections (a NamedTuple would stay tracked)
        self.records: list[tuple] = []
        self.phase = "setup"
        self.ops: dict[tuple[str, str], list] = {}   # (phase, kind) -> [calls, fwd_s, bwd_s]
        self.counters: dict[str, float] = {}
        self.gc_collected = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._gc_cb = None

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def in_phase(self, phase: str):
        outer, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = outer

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, phase: str | None = None,
             after=None) -> None:
        """Record a span per call of ``owner.attr``; optionally switch phase.

        ``after(args, kwargs, result)`` runs once the call returns, for
        counters that need the call's arguments or result.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            outer_phase = tracer.phase
            if phase is not None:
                tracer.phase = phase
            tracer._stack.append(sid)
            start = perf()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf()
                tracer._stack.pop()
                tracer.records.append((sid, name, start, end, parent, tracer.phase))
                tracer.phase = outer_phase
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def op(self, owner, kind: str) -> None:
        """Count calls and forward/backward time of one autodiff op kind."""
        orig = getattr(owner, kind)
        tracer = self
        ops = self.ops

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            start = perf()
            out = orig(*args, **kwargs)
            elapsed = perf() - start
            rec = ops.get((tracer.phase, kind))
            if rec is None:
                rec = ops[(tracer.phase, kind)] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += elapsed
            # dropout in inference mode hands back its input node unchanged
            if out.bwd is not None and out is not args[0]:
                bwd = out.bwd

                def timed_bwd(g):
                    t = perf()
                    bwd(g)
                    rec[2] += perf() - t

                out.bwd = timed_bwd
            return out

        self._patch(owner, kind, wrapper)

    def watch_gc(self) -> None:
        """Count objects the cyclic garbage collector frees."""
        def on_gc(stage, info):
            if stage == "stop":
                self.gc_collected += info["collected"]

        self._gc_cb = on_gc
        gc.callbacks.append(on_gc)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        if self._gc_cb is not None:
            gc.callbacks.remove(self._gc_cb)
            self._gc_cb = None

    # -- reading ---------------------------------------------------------

    def spans(self) -> list[Span]:
        return [Span(*r) for r in self.records]

    def durations(self, name: str, phase: str | None = None, since: int = 0) -> list[float]:
        return [end - start for _, n, start, end, _, p in self.records[since:]
                if n == name and (phase is None or p == phase)]

    def dump(self, path: Path) -> None:
        rows = [s._asdict() for s in self.spans()]
        path.write_text(json.dumps({"spans": rows, "counters": self.counters,
                                    "ops": [[p, k, *v] for (p, k), v in self.ops.items()],
                                    "gc_collected": self.gc_collected}) + "\n")


def install(tracer: Tracer, sdvsum, full: bool) -> None:
    """Wrap the calls the benchmark's pipeline makes into the program.

    The light set (``full=False``) is what the untraced run needs to split
    an epoch into training, validation and checkpoint time: two spans per
    epoch. The full set adds a span at every stage boundary and the op
    counters.
    """
    datasets, model, training = sdvsum.datasets, sdvsum.model, sdvsum.training
    metrics, selection, sdve = sdvsum.metrics, sdvsum.selection, sdvsum.sdve
    autodiff = sdvsum.autodiff

    tracer.span(training, "evaluate_script_driven", "training.validation", phase="validate")
    tracer.span(model, "save_checkpoint", "training.checkpoint")
    if not full:
        return

    tracer.watch_gc()
    tracer.span(training, "train_run", "training.train_run", phase="train")
    tracer.span(training, "load_split", "datasets.load_split")
    tracer.span(training, "init_weights", "model.init_weights")
    tracer.span(training, "bce_loss", "training.loss")
    tracer.span(training, "adam_step", "training.adam")
    tracer.span(autodiff.Tape, "backward", "autodiff.backward",
                after=lambda a, k, r: tracer.count(f"nodes.{tracer.phase}", len(a[0].nodes)))
    for owner in (training, model):
        tracer.span(owner, "model_forward", "model.forward")
    tracer.span(model, "_text_representation", "model.text_rep")
    tracer.span(model, "cross_modal_attention", "model.cross_attn")
    tracer.span(model, "scorer_forward", "model.scorer")
    tracer.span(model, "score_frames", "model.score_frames")
    tracer.span(model, "load_checkpoint", "model.load_checkpoint")
    for owner in (model, training):
        for kind in OP_KINDS:
            if hasattr(owner, kind):
                tracer.op(owner, kind)

    tracer.span(datasets, "generate_synthetic", "datasets.synth")
    tracer.span(datasets, "load_manifest", "datasets.load_manifest")
    tracer.span(datasets, "load_split", "datasets.load_split")
    tracer.span(datasets, "read_embeddings", "sdve.read_embeddings",
                after=lambda a, k, r: tracer.count(f"embed_bytes.{tracer.phase}", 16 + r.nbytes))
    tracer.span(sdve, "write_checkpoint_file", "sdve.ckpt_write",
                after=lambda a, k, r: tracer.count("ckpt_bytes", Path(a[2]).stat().st_size))
    tracer.span(sdve, "read_checkpoint_file", "sdve.ckpt_read")

    tracer.span(metrics, "evaluate_script_driven", "metrics.eval_script")
    tracer.span(metrics, "evaluate_generic", "metrics.eval_generic")
    tracer.span(metrics, "kendall_tau_b", "metrics.kendall_tau_b")
    tracer.span(metrics, "spearman_rho", "metrics.spearman_rho")
    tracer.span(metrics, "fscore_binary", "metrics.fscore")
    tracer.span(metrics, "select_top_fraction", "selection.top_fraction")
    tracer.span(selection, "fixed_fragmentation", "selection.fragmentation")
    tracer.span(selection, "fragment_knapsack", "selection.knapsack")


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

_STAGE_MS = {"model.text_rep_ms": "model.text_rep", "model.cross_attn_ms": "model.cross_attn",
             "model.scorer_ms": "model.scorer", "model.forward_ms_per_sample": "model.forward",
             "training.loss_ms_per_sample": "training.loss",
             "training.adam_ms_per_step": "training.adam",
             "autodiff.backward_ms_per_sample": "autodiff.backward"}
_NOT_TRAINING = ("training.validation", "training.checkpoint")

PER_LAYER = [
    ("datasets.synth_s", "s", "lower"),
    ("datasets.load_s", "s", "lower"),
    ("sdve.ckpt_write_ms", "ms", "lower"),
    ("sdve.ckpt_read_ms", "ms", "lower"),
    ("sdve.ckpt_bytes", "bytes", "lower"),
    ("sdve.embed_bytes_read", "bytes", "lower"),
    ("autodiff.nodes_per_sample", "count", "lower"),
    ("autodiff.backward_ms_per_sample", "ms", "lower"),
    ("autodiff.gc_objects_collected", "count", "lower"),
    *[(f"autodiff.{m}.{k}", u, "lower") for k in OP_KINDS
      for m, u in (("calls", "count"), ("fwd_ms", "ms"), ("bwd_ms", "ms"))],
    ("model.text_rep_ms", "ms", "lower"),
    ("model.cross_attn_ms", "ms", "lower"),
    ("model.post_ms", "ms", "lower"),
    ("model.scorer_ms", "ms", "lower"),
    ("model.forward_ms_per_sample", "ms", "lower"),
    ("model.infer_ms_per_pair", "ms", "lower"),
    ("training.loss_ms_per_sample", "ms", "lower"),
    ("training.adam_ms_per_step", "ms", "lower"),
    ("training.adam_steps", "count", "lower"),
    ("training.validation_s", "s", "lower"),
    ("training.checkpoint_s", "s", "lower"),
    ("training.span_coverage_pct", "%", "higher"),
    ("metrics.eval_script_s", "s", "lower"),
    ("metrics.eval_generic_s", "s", "lower"),
    ("metrics.kendall_tau_b_ms", "ms", "lower"),
    ("metrics.spearman_rho_ms", "ms", "lower"),
    ("metrics.fscore_ms", "ms", "lower"),
    ("selection.top_fraction_ms", "ms", "lower"),
    ("selection.knapsack_ms", "ms", "lower"),
]


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def per_layer(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer metrics over the measured rounds (spans of phase "check" ignored).

    Training-phase values are per training sample or per step, inference
    values per call, dataset values per set-up, counts per round.
    """
    def mean_of(name, phase):
        return _mean(tracer.durations(name, phase))

    spans = tracer.spans()
    train_spans = [s for s in spans if s.phase == "train"]
    samples = sum(1 for s in train_spans if s.name == "autodiff.backward")
    child_time: dict[int, dict[str, float]] = {}
    for s in spans:
        if s.parent is not None:
            by_name = child_time.setdefault(s.parent, {})
            by_name[s.name] = by_name.get(s.name, 0.0) + s.dur

    out = {
        "datasets.synth_s": mean_of("datasets.synth", "setup"),
        "datasets.load_s": (sum(tracer.durations("datasets.load_manifest", "setup"))
                            + sum(tracer.durations("datasets.load_split", "setup")))
                           / max(1, len(tracer.durations("datasets.synth", "setup"))),
        "sdve.ckpt_write_ms": 1000 * mean_of("sdve.ckpt_write", "train"),
        "sdve.ckpt_read_ms": 1000 * mean_of("sdve.ckpt_read", "eval"),
        "sdve.ckpt_bytes": tracer.counters.get("ckpt_bytes", 0)
                           / max(1, len(tracer.durations("sdve.ckpt_write"))),
        "sdve.embed_bytes_read": tracer.counters.get("embed_bytes.train", 0) / rounds,
        "autodiff.nodes_per_sample": tracer.counters.get("nodes.train", 0) / max(1, samples),
        "autodiff.gc_objects_collected": tracer.gc_collected / rounds,
    }
    for kind in OP_KINDS:
        calls, fwd, bwd = tracer.ops.get(("train", kind), (0, 0.0, 0.0))
        out[f"autodiff.calls.{kind}"] = calls / max(1, samples)
        out[f"autodiff.fwd_ms.{kind}"] = 1000 * fwd / max(1, samples)
        out[f"autodiff.bwd_ms.{kind}"] = 1000 * bwd / max(1, samples)
    for metric, name in _STAGE_MS.items():
        out[metric] = 1000 * mean_of(name, "train")
    forwards = [s for s in train_spans if s.name == "model.forward"]
    out["model.post_ms"] = 1000 * _mean(
        [s.dur - sum(child_time.get(s.id, {}).values()) for s in forwards])
    out["model.infer_ms_per_pair"] = 1000 * mean_of("model.score_frames", "eval")
    out["training.adam_steps"] = len(tracer.durations("training.adam", "train")) / rounds
    out["training.validation_s"] = mean_of("training.validation", "validate")
    out["training.checkpoint_s"] = mean_of("training.checkpoint", "train")

    covered = training = 0.0
    for s in train_spans:
        if s.name == "training.train_run":
            kids = child_time.get(s.id, {})
            training += s.dur - sum(kids.get(n, 0.0) for n in _NOT_TRAINING)
            covered += sum(t for n, t in kids.items() if n not in _NOT_TRAINING)
    out["training.span_coverage_pct"] = 100 * covered / training if training else 0.0

    out["metrics.eval_script_s"] = mean_of("metrics.eval_script", "eval")
    out["metrics.eval_generic_s"] = mean_of("metrics.eval_generic", "generic")
    out["metrics.kendall_tau_b_ms"] = 1000 * mean_of("metrics.kendall_tau_b", "generic")
    out["metrics.spearman_rho_ms"] = 1000 * mean_of("metrics.spearman_rho", "generic")
    out["metrics.fscore_ms"] = 1000 * mean_of("metrics.fscore", "eval")
    out["selection.top_fraction_ms"] = 1000 * mean_of("selection.top_fraction", "eval")
    out["selection.knapsack_ms"] = 1000 * mean_of("selection.knapsack", "summarize")
    return {name: out[name] for name, _, _ in PER_LAYER}
