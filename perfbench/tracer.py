"""Span tracer that times calls into qprec's layers from outside the package.

While active, every public function and public method defined in a layer
module is replaced by a timing wrapper at each of its *binding sites*: the
defining module and every other qprec module that imported it by name.  Two
foreign calls are traced as well because they carry the layers' heavy
lifting: ``scipy.integrate.quad`` (reached through the shared ``integrate``
module, attributed to the calling layer) and the ``eigvalsh_tridiagonal``
binding in ``spectral`` (the ``sterf`` floor).

The functions are found by introspection, so the per-layer totals survive
renames.  Spans are (name, layer, start, end, parent, cell, tag) records kept
in memory; self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.integrate

LAYERS = ("stochastic", "spectral", "quantizer", "models", "metrics", "bounds",
          "optimizer", "cli")

# Span field positions.
NAME, LAYER, START, END, PARENT, CELL, TAG = range(7)


def _tag_k_from_arg(index):
    def tag(args, kwargs):
        return int(args[index]) if len(args) > index else int(kwargs["k"])
    return tag


def _tag_config_k(args, kwargs):
    config = args[0] if args else kwargs["config"]
    return int(config.k)


def _tag_sample(args, kwargs):
    trials = args[2] if len(args) > 2 else kwargs["trials"]
    return (int(args[0].config.k), int(trials))


def _tag_quant_kind(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return spec.kind


def _tag_shaping(args, kwargs):
    shaping = args[0] if args else kwargs["shaping"]
    return shaping.family


def _tag_solve(args, kwargs):
    quant = args[1] if len(args) > 1 else kwargs["quant"]
    return quant.kind


# Argument tags recorded for the functions the per-K rows are keyed on.
TAGS = {
    "spectral.sample_singular_values": _tag_k_from_arg(1),
    "spectral.sample_channel": _tag_config_k,
    "models.CoupledModel.sample": _tag_sample,
    "models.shaped_moments": _tag_shaping,
    "quantizer.gaussian_moments": _tag_quant_kind,
    "optimizer.solve_asymptotic": _tag_solve,
}


class Tracer:
    """Collects spans for the calls made inside :meth:`run`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.cell = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.traced_s = 0.0

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str | None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        tag = TAGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            owner = layer
            if owner is None:  # foreign call: charge it to the calling layer
                caller = sys._getframe(1).f_globals.get("__name__", "")
                owner = caller.rpartition(".")[2] if caller.startswith("qprec.") else (
                    spans[stack[-1]][LAYER] if stack else "bench")
            rec = [name if layer else f"{owner}.{name}", owner, clock(), 0,
                   stack[-1] if stack else -1, tracer.cell,
                   tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _targets(self):
        """(layer, qualified name, owner, attribute, original) to wrap."""
        for layer in LAYERS:
            module = sys.modules[f"qprec.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield layer, f"{layer}.{attr}", module, attr, obj
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(raw):
                            yield layer, f"{layer}.{attr}.{meth}", obj, meth, raw

    def _patch(self) -> None:
        wrapped: dict[int, object] = {}
        for layer, name, owner, attr, fn in self._targets():
            wrapper = self._wrap(fn, name, layer)
            wrapped[id(fn)] = wrapper
            self._set(owner, attr, wrapper)
        # Rebind every other name that refers to a wrapped function.
        for module in [m for n, m in sys.modules.items() if n.startswith("qprec")]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(module, attr, wrapped[id(obj)])
        spectral = sys.modules["qprec.spectral"]
        self._set(spectral, "eigvalsh_tridiagonal",
                  self._wrap(spectral.eigvalsh_tridiagonal, "spectral.sterf", "spectral"))
        self._set(scipy.integrate, "quad", self._wrap(scipy.integrate.quad, "quad", None))

    def _unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run(self, cell: int, fn, *args):
        """Call ``fn(*args)`` with tracing on, as cell ``cell``."""
        self.cell = cell
        self._patch()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.traced_s += time.perf_counter() - t0
            self._unpatch()

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Self time of every span, in seconds."""
        n = len(self.spans)
        dur = np.fromiter((s[END] - s[START] for s in self.spans), dtype=np.int64, count=n)
        parent = np.fromiter((s[PARENT] for s in self.spans), dtype=np.int64, count=n)
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return (dur - child) / 1e9

    def summary(self) -> dict:
        """Per-name and per-layer totals plus the per-tag duration lists."""
        selfs = self.self_times()
        by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        by_layer: dict[str, dict] = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        by_tag: dict[tuple, list[float]] = defaultdict(list)
        top_s = 0.0
        for rec, self_s in zip(self.spans, selfs):
            entry = by_name[rec[NAME]]
            entry["calls"] += 1
            entry["self_s"] += float(self_s)
            layer = by_layer.setdefault(rec[LAYER], {"calls": 0, "self_s": 0.0})
            layer["self_s"] += float(self_s)
            if not rec[NAME].endswith((".quad", ".sterf")):
                layer["calls"] += 1
            if rec[TAG] is not None:
                by_tag[(rec[NAME], rec[TAG])].append((rec[END] - rec[START]) / 1e9)
            if rec[PARENT] < 0:
                top_s += (rec[END] - rec[START]) / 1e9
        return {"by_name": dict(by_name), "by_layer": by_layer, "by_tag": dict(by_tag),
                "top_s": top_s}

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
