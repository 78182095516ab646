"""Traced mode: spans and counters around the program's public functions.

Tracer.install() replaces each wrapped function or method with a timing
wrapper, in every mlsa4rec module that holds a reference to it, and
Tracer.remove() puts the originals back. Nothing is changed outside an
install/remove pair, so an untraced run executes the program as shipped.

Two kinds of measurement are taken:

- spans, at layer boundaries (the public functions of data, kernels,
  mamba, attention, model and train_eval, Tensor.backward, and each
  backward closure the tape runs): name, start, end and the index of the
  enclosing span, kept in memory and written out at the end;
- counters: forward time per tensor op, keyed by the op name the result
  records, plus op, tape-node and byte counts. Forward ops are counters,
  not spans, so a layer's self time keeps the ops it runs itself (the
  embedding, fusion gate and head of model.forward, for instance).

A span's self time is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# The op names the tensor layer records, in the order they are reported.
OP_NAMES = ("matmul", "selective_scan", "causal_conv", "silu", "softplus",
            "gelu", "layernorm", "softmax", "embedding", "cross_entropy",
            "add", "mul", "slice", "concat", "transpose", "take_row", "exp",
            "scale")

# Public tensor functions that make an op (dropout makes one only when
# training with p > 0). mamba._scan_op is the one private function wrapped:
# it is the only maker of the "selective_scan" op.
TENSOR_OPS = ("add", "sub", "mul", "scale", "neg", "matmul", "transpose_last",
              "concat_last", "slice_last", "take_row", "tsum", "tmean",
              "softmax", "layernorm", "sigmoid", "silu", "gelu", "softplus",
              "exp", "embedding", "dropout", "cross_entropy")

SPANS = (("data", "pad_truncate"),
         ("kernels", "scan_forward"), ("kernels", "scan_backward"),
         ("mamba", "mamba_block"), ("mamba", "selective_scan"),
         ("mamba", "causal_conv1d"),
         ("attention", "lsa_attention"),
         ("train_eval", "evaluate"), ("train_eval", "rank_of_target"))

METHOD_SPANS = (("model", "MlsaModel", "forward"), ("model", "MlsaModel", "score"),
                ("tensor", "Tensor", "backward"), ("train_eval", "Adam", "step"))

# Span names whose per-operation time, self time and call count are reported.
REPORTED_SPANS = {
    "kernels.scan_forward": ("ms", "calls"),
    "kernels.scan_backward": ("ms", "calls"),
    "mamba.mamba_block": ("ms", "self_ms"),
    "mamba.causal_conv1d": ("ms",),
    "mamba.selective_scan": ("ms",),
    "attention.lsa_attention": ("ms",),
    "model.forward": ("ms", "self_ms"),
    "model.score": ("ms",),
    "tensor.backward": ("ms", "self_ms"),
    "train_eval.Adam.step": ("ms",),
    "train_eval.evaluate": ("ms", "self_ms"),
    "train_eval.rank_of_target": ("ms", "calls"),
    "data.pad_truncate": ("ms", "calls"),
}


def _module(name: str):
    return importlib.import_module(f"mlsa4rec.{name}")


def self_times(spans) -> list[float]:
    """Duration minus the durations of direct children, per span.

    spans is a list of (name, start, end, parent) with parent the index of
    the enclosing span, or -1.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _), c in zip(spans, child)]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []         # [name, start, end, parent]
        self.fwd_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._in_op = False
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn, measure=None):
        """fn wrapped in a span; measure(args, result) may add counts."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()
            if measure is not None:
                measure(args, result)
            return result
        return wrapper

    def _op(self, fn):
        """Forward-op counter: the outermost op call owns the time (neg runs
        scale inside), keyed by the op its result records. A call that
        makes no op (dropout at p = 0) is not counted."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_op:
                return fn(*args, **kwargs)
            made = self.counts["tensor.ops"]
            self._in_op = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._in_op = False
            t1 = clock()
            if self.counts["tensor.ops"] > made:
                self.fwd_s[out._op] += t1 - t0
            return out
        return wrapper

    def _make_op(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(data, parents, backward, op):
            out = fn(data, parents, backward, op)
            counts["tensor.ops"] += 1
            if out._backward is not None:
                counts["tensor.tape_nodes"] += 1
                out._backward = self.span(f"tensor.bwd.{op}", out._backward)
            return out
        return wrapper

    def _scan_forward_bytes(self, args, result):
        y, h_hist = result
        states = 0 if h_hist is None else h_hist.nbytes
        self.counts["kernels.scan_forward.bytes"] += (
            sum(a.nbytes for a in args[:5]) + y.nbytes + states)
        self.counts["kernels.scan_states_bytes"] += states

    # -- install / remove ----------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Point every mlsa4rec module attribute bound to original at
        replacement (model.py holds its own name for mamba_block, say)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mlsa4rec"
                                   or mod_name.startswith("mlsa4rec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        tensor = _module("tensor")
        self._replace_everywhere(tensor.make_op, self._make_op(tensor.make_op))
        for name in TENSOR_OPS:
            fn = getattr(tensor, name)
            self._replace_everywhere(fn, self._op(fn))
        mamba = _module("mamba")
        self._replace_everywhere(mamba._scan_op, self._op(mamba._scan_op))
        for mod_name, attr in SPANS:
            fn = getattr(_module(mod_name), attr)
            measure = self._scan_forward_bytes if attr == "scan_forward" else None
            wrapped = self.span(f"{mod_name}.{attr}", fn, measure)
            if attr == "causal_conv1d":
                wrapped = self._op(wrapped)
            self._replace_everywhere(fn, wrapped)
        for mod_name, cls_name, attr in METHOD_SPANS:
            cls = getattr(_module(mod_name), cls_name)
            original = cls.__dict__[attr]
            name = f"{mod_name}.{attr}" if mod_name != "train_eval" \
                else f"{mod_name}.{cls_name}.{attr}"
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.span(name, original))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def per_layer(self, n_ops: int) -> dict[str, float]:
        """Every reported per-layer figure, per workload operation."""
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for span, self_s in zip(self.spans, self_times(self.spans)):
            name, start, end, _ = span
            total[name] += end - start
            own[name] += self_s
            calls[name] += 1
        out = {}
        for name, kinds in REPORTED_SPANS.items():
            for kind in kinds:
                value = {"ms": total[name] * 1e3, "self_ms": own[name] * 1e3,
                         "calls": calls[name]}[kind]
                out[f"{name}.{kind}"] = value / n_ops
        for key in ("kernels.scan_forward.bytes", "kernels.scan_states_bytes",
                    "tensor.ops", "tensor.tape_nodes"):
            out[key] = self.counts[key] / n_ops
        for op in OP_NAMES:
            out[f"tensor.fwd.{op}.ms"] = self.fwd_s[op] * 1e3 / n_ops
            out[f"tensor.bwd.{op}.ms"] = total[f"tensor.bwd.{op}"] * 1e3 / n_ops
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)
