"""Outside-in tracing of polymorph's public functions.

The tracer replaces each target function in every polymorph namespace that
binds it with a wrapper that records one span per call, and puts the
originals back afterwards.  Spans live in memory as
[name, start_ns, end_ns, parent, item, counters] and are written out once
at the end.  Self time is a span's duration minus its direct children's.
There is one thread and no queue, so no span ever waits.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

from polymorph.errors import ResourceError

PACKAGE = "polymorph"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _state_cells(args, kwargs, out, exc):
    if isinstance(exc, ResourceError):
        return None, {"fallback": 1}
    P, funcs = _arg(args, kwargs, 0, "P"), _arg(args, kwargs, 1, "fs")
    return None, {"cells": P.s ** ((P.m - 1) * funcs[0].n)}


def _columns(args, kwargs, out, exc):
    if exc is not None:
        return None, {}
    P, funcs = _arg(args, kwargs, 0, "P"), _arg(args, kwargs, 1, "fs")
    return None, {"columns": len(P) ** funcs[0].n}


def _verdict(args, kwargs, out, exc):
    if exc is not None:
        return None, {}
    return ("polytest.check.pass" if out[0] else "polytest.check.fail"), {}


def _samples(args, kwargs, out, exc):
    return None, {"samples": _arg(args, kwargs, 2, "samples")}


def _growth(args, kwargs, out, exc):
    if exc is not None:
        return None, {}
    s = _arg(args, kwargs, 0, "fs")[0].s
    return None, {"steps": len(out.steps), "cells": s ** len(out.junta)}


def _pipeline(args, kwargs, out, exc):
    if exc is not None:
        return None, {}
    attempts = len(out.trace.attempts)
    return None, {"attempts": attempts,
                  "accepted": int(bool(out.accepted) and attempts > 0)}


def _file_bytes(args, kwargs, out, exc):
    return None, {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, public function, span name, counter function or None)
TARGETS = (
    ("polytest", "achievable_outputs", "polytest.reach", _state_cells),
    ("polytest", "joint_output_distribution_contracted", "polytest.contract",
     _state_cells),
    ("polytest", "joint_output_distribution", "polytest.odometer", _columns),
    ("polytest", "is_generalized_polymorphism", "polytest.check", _verdict),
    ("polytest", "violation_mc", "polytest.mc", _samples),
    ("regularity", "build_junta_lowdeg", "regularity.lowdeg", None),
    ("regularity", "build_junta_noisy", "regularity.grow", _growth),
    ("regularity", "cell_regular_fraction", "regularity.cellcheck", None),
    ("regularity", "regular_cell_mask", "regularity.cellcheck", None),
    ("harmonics", "efron_stein", "harmonics.decompose", None),
    ("corrector", "correct_monotone", "corrector.pipeline", _pipeline),
    ("corrector", "correct_general", "corrector.pipeline", _pipeline),
    ("corrector", "correct_alphabet", "corrector.pipeline", _pipeline),
    ("corrector", "nearest_character", "corrector.decode", None),
    ("corrector", "peel_affine_relations", "corrector.peel", None),
    ("corrector", "round_general_cell", "corrector.round", None),
    ("predicates", "classify_short_relations", "predicates", None),
    ("predicates", "star_law", "predicates", None),
    ("predicates", "flexible_coordinates", "predicates", None),
    ("predicates", "maxterms", "predicates", None),
    ("funcspace", "distance", "funcspace.distance", None),
    ("funcspace", "load_function", "funcspace.text_io", _file_bytes),
    ("funcspace", "save_function", "funcspace.text_io", _file_bytes),
    ("predicates", "load_predicate", "funcspace.text_io", _file_bytes),
    ("cli", "run_experiment", "cli.experiment", None),
    ("cli", "plant_and_perturb", "cli.plant", None),
    ("cli", "parse_experiment_config", "cli.config", None),
)

ALL = {"monotone", "general", "oracle", "cli"}

# metric: (workloads where it must be non-zero, workloads where it must be 0)
PREDICTIONS = {
    "polytest.reach.calls": (ALL, set()),
    "polytest.contract.calls": ({"oracle", "cli"}, {"monotone", "general"}),
    "polytest.odometer.calls": ({"oracle"}, {"monotone", "general"}),
    "polytest.fallbacks": (set(), {"monotone", "general"}),
    "polytest.check.pass.calls": ({"monotone", "general", "cli"}, set()),
    "polytest.check.fail.calls": ({"oracle"}, {"monotone", "general"}),
    "polytest.mc.calls": ({"oracle"}, {"monotone", "general", "cli"}),
    "regularity.grow.calls": ({"monotone", "cli"}, {"general", "oracle"}),
    "regularity.cellcheck.calls": ({"monotone", "cli"}, {"general", "oracle"}),
    "harmonics.decompose.calls": ({"monotone", "cli"}, {"general", "oracle"}),
    "corrector.pipeline.self_ms": ({"monotone", "general", "cli"}, {"oracle"}),
    "corrector.decode.calls": ({"general"}, {"monotone", "oracle", "cli"}),
    "corrector.peel.ms": ({"general"}, {"monotone", "oracle", "cli"}),
    "corrector.round.calls": ({"general"}, {"monotone", "oracle", "cli"}),
    "predicates.calls": ({"monotone", "general", "cli"}, {"oracle"}),
    "funcspace.distance.calls": ({"monotone", "general", "cli"}, {"oracle"}),
    "funcspace.text_io.calls": ({"cli"}, {"monotone", "general", "oracle"}),
    "cli.experiment.self_ms": ({"cli"}, {"monotone", "general", "oracle"}),
    "cli.plant.ms": ({"cli"}, {"monotone", "general", "oracle"}),
    "cli.config.ms": ({"cli"}, {"monotone", "general", "oracle"}),
}


class Tracer:
    """Spans of wrapped public calls, grouped under one root span per item."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item_id = -1
        self.missing = []
        self.bindings = self._bind()

    def _open(self, name):
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self.stack[-1] if self.stack else -1,
                           self.item_id, None])
        self.stack.append(len(self.spans) - 1)

    def _close(self, name=None, counters=None):
        rec = self.spans[self.stack.pop()]
        rec[2] = time.perf_counter_ns()
        if name is not None:
            rec[0] = name
        rec[5] = counters or None

    @contextlib.contextmanager
    def item(self, item_id):
        self.item_id = item_id
        self._open("item")
        try:
            yield
        finally:
            self._close()

    def _wrap(self, fn, span, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(span)
            out, exc = None, None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                name, counters = (None, None)
                if count is not None:
                    try:
                        name, counters = count(args, kwargs, out, exc)
                    except (AttributeError, IndexError, KeyError, OSError,
                            TypeError):
                        pass
                self._close(name, counters)
        return traced

    def _bind(self):
        """(module, attribute, original, wrapper) for every loaded package
        namespace that binds a target function."""
        wrappers = {}
        for mod_name, fn_name, span, count in TARGETS:
            fn = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrappers[id(fn)] = (fn, self._wrap(fn, span, count))
        bindings = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE
                                   or name.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    bindings.append((mod, attr, val, hit[1]))
        return bindings

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in, and the originals back afterwards."""
        for mod, attr, _, wrapper in self.bindings:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original, _ in self.bindings:
                setattr(mod, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item, counters in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "item": item, "counters": counters}))
                fh.write("\n")


def layer_metrics(spans, items: int) -> dict:
    """Per-layer metrics from spans, every calls/ms/count figure per item.
    BENCHMARK.json lists them with their units."""
    covered = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats = defaultdict(lambda: defaultdict(float))
    reach_in_fail = 0
    for k, (name, start, end, parent, _, counters) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["ms"] += (end - start) / 1e6
        st["self_ms"] += (end - start - covered[k]) / 1e6
        for key, v in (counters or {}).items():
            st[key] += v
        if name == "polytest.reach":
            p = parent
            while p >= 0 and not spans[p][0].startswith("polytest.check"):
                p = spans[p][3]
            reach_in_fail += p >= 0 and spans[p][0] == "polytest.check.fail"

    def per_item(name, key):
        return stats[name][key] / items

    out = {}
    for name in ("polytest.reach", "polytest.contract", "polytest.odometer",
                 "polytest.check.pass", "polytest.check.fail", "polytest.mc",
                 "regularity.grow", "regularity.cellcheck",
                 "harmonics.decompose", "corrector.decode", "corrector.round",
                 "predicates", "funcspace.distance", "funcspace.text_io"):
        out[f"{name}.calls"] = per_item(name, "calls")
        out[f"{name}.ms"] = per_item(name, "ms")
    out["polytest.reach.state_cells"] = per_item("polytest.reach", "cells")
    out["polytest.contract.state_cells"] = per_item("polytest.contract", "cells")
    out["polytest.odometer.columns"] = per_item("polytest.odometer", "columns")
    tries = (stats["polytest.reach"]["calls"]
             + stats["polytest.contract"]["calls"])
    fallbacks = (stats["polytest.reach"]["fallback"]
                 + stats["polytest.contract"]["fallback"])
    out["polytest.fallbacks"] = fallbacks / tries if tries else 0.0
    fails = stats["polytest.check.fail"]["calls"]
    out["polytest.search.reach_per_fail"] = (
        (reach_in_fail - fails) / fails if fails else 0.0)
    mc_s = stats["polytest.mc"]["ms"] / 1e3
    out["polytest.mc.samples_per_s"] = (
        stats["polytest.mc"]["samples"] / mc_s if mc_s else 0.0)
    out["regularity.grow.steps"] = per_item("regularity.grow", "steps")
    out["regularity.junta_cells"] = per_item("regularity.grow", "cells")
    out["corrector.pipeline.self_ms"] = per_item("corrector.pipeline", "self_ms")
    out["corrector.peel.ms"] = per_item("corrector.peel", "ms")
    out["corrector.attempts"] = per_item("corrector.pipeline", "attempts")
    attempts = stats["corrector.pipeline"]["attempts"]
    out["corrector.accepts_per_attempt"] = (
        stats["corrector.pipeline"]["accepted"] / attempts if attempts else 0.0)
    out["funcspace.text_io.bytes"] = per_item("funcspace.text_io", "bytes")
    out["cli.experiment.self_ms"] = per_item("cli.experiment", "self_ms")
    out["cli.plant.ms"] = per_item("cli.plant", "ms")
    out["cli.config.ms"] = per_item("cli.config", "ms")
    return out


def prediction_misses(workload: str, metrics: dict) -> list:
    """Predictions of the per-layer table that this run contradicts."""
    misses = []
    for name, (fires, zero) in PREDICTIONS.items():
        value = metrics[name]
        if workload in fires and value == 0:
            misses.append(f"{name} predicted to fire on {workload}, got 0")
        if workload in zero and value != 0:
            misses.append(f"{name} predicted 0 on {workload}, got {value:.4g}")
    return misses
