"""Spans recorded around the calls between mixnorm's modules.

The traced run replaces module attributes (solver -> prox, path and
screening -> solver, ...) with wrappers that record one span per call:
name, start, end, parent and a few counters read off the arguments or the
result.  The program's files are not changed.  Spans stay in memory and
are written out when the run ends; ``layer_metrics`` turns them into the
per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

import gapcheck

# (module, attribute, span name).  A module that imported a function by name
# holds its own reference, so each importing module is wrapped separately.
BOUNDARIES = [
    ("mixnorm.solver", "_prox_concat", "prox"),
    ("mixnorm.path", "solve", "solver"),
    ("mixnorm.screening", "solve", "solver"),
    ("mixnorm.cli", "solve", "solver"),
    ("mixnorm.screening", "reduced_instance", "screening.reduce"),
    ("mixnorm.path", "screen_sequential", "screening"),
    ("mixnorm.screening", "screen_sequential", "screening"),
    ("mixnorm.path", "run_path", "path"),
    ("mixnorm.path", "recovery_experiment", "path.recovery"),
    ("mixnorm.synth", "gen_joint_sparse", "synth"),
    ("mixnorm.synth", "gen_screening_instance", "synth"),
    ("mixnorm.path", "gen_joint_sparse", "synth"),
    ("mixnorm.cli", "gen_screening_instance", "synth"),
    ("mixnorm.csvio", "read_matrix", "csvio.read"),
    ("mixnorm.csvio", "read_vector", "csvio.read"),
    ("mixnorm.csvio", "read_group_sizes", "csvio.read"),
    ("mixnorm.csvio", "write_matrix", "csvio.write"),
    ("mixnorm.csvio", "write_vector", "csvio.write"),
    ("mixnorm.csvio", "write_group_sizes", "csvio.write"),
    ("mixnorm.cli", "main", "cli"),
]


def _prox_attrs(args, kwargs, out):
    return {"q": float(args[3] if len(args) > 3 else kwargs["q"])}


def _solver_attrs(args, kwargs, out):
    return {"iterations": int(out.iterations), "converged": bool(out.converged),
            "design_bytes": int(args[0].B.nbytes)}


def _reduce_attrs(args, kwargs, out):
    return {"bytes": int(out[0].B.nbytes)}


def _screening_attrs(args, kwargs, out):
    # the result is kept by reference; finish() reads it after the timed loop
    inst = args[0]
    return {"result": out, "sizes": inst.partition.sizes, "q": inst.q}


def _path_attrs(args, kwargs, out):
    return {"points": int(len(out.ratios))}


ATTRS = {"prox": _prox_attrs, "solver": _solver_attrs,
         "screening.reduce": _reduce_attrs, "screening": _screening_attrs,
         "path": _path_attrs}


class Tracer:
    """Collects spans as [name, start, end, parent, attrs] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """A span the benchmark opens itself (a set-up or a round)."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def install(self):
        """Wrap every boundary that exists; report the others as missing."""
        for mod_name, attr, name in BOUNDARIES:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name))
            self._undo.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _wrap(self, fn, name):
        attrs_fn = ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if attrs_fn is not None:
                rec[4] = attrs_fn(args, kwargs, out)
            return out

        return wrapper

    def finish(self) -> list[list]:
        """Spans as JSON-ready [name, start, end, parent, attrs] lists;
        screening results become counters."""
        out = []
        for name, start, end, parent, attrs in self.spans:
            if attrs is not None and "result" in attrs:
                attrs = _screening_counters(attrs)
            out.append([name, start, end, parent, attrs or {}])
        return out


def _screening_counters(attrs) -> dict:
    """Groups kept, and discarded over truly zero groups per step below
    lambda_max (a step at lambda_max discards everything by definition)."""
    result, sizes, q = attrs["result"], np.asarray(attrs["sizes"]), attrs["q"]
    kept, ratios = 0, []
    for st in result.steps:
        kept += int(st.groups_kept)
        if st.lam >= result.lam_max * (1.0 - 1e-12):
            continue
        norms = gapcheck.group_norms(st.solution, sizes, q)
        true_zero = int((norms <= gapcheck.ZERO_GROUP_NORM).sum())
        if true_zero:
            ratios.append(int(st.mask.sum()) / true_zero)
    return {"groups_kept": kept, "rejection_ratios": ratios}


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children (children of one
    span never overlap: the program is single-threaded)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _sums(spans: list[list], selected: list[int]) -> dict:
    """Additive totals over the spans whose indices are in ``selected``."""
    own = self_times(spans)
    total = defaultdict(float)
    prox_children = defaultdict(int)
    for i in selected:
        name, _, _, parent, _ = spans[i]
        if name == "prox" and parent >= 0 and spans[parent][0] == "solver":
            prox_children[parent] += 1
    for i in selected:
        name, start, end, _, attrs = spans[i]
        dur = end - start
        if name == "prox":
            total["prox.calls"] += 1
            total["prox.s"] += dur
            tag = {1.5: "q1_5", 3.0: "q3"}.get(attrs.get("q"))
            if tag:
                total[f"prox.{tag}.calls"] += 1
                total[f"prox.{tag}.s"] += dur
        elif name == "solver":
            calls = prox_children[i]
            mv = 1 + attrs["iterations"] + calls
            total["solver.solves"] += 1
            total["solver.s"] += dur
            total["solver.iterations"] += attrs["iterations"]
            total["solver.backtracks"] += calls - attrs["iterations"]
            total["solver.unconverged"] += 0 if attrs["converged"] else 1
            total["solver.self_s"] += own[i]
            total["solver.matvecs"] += mv
            total["solver.matvec_gb"] += mv * attrs["design_bytes"] / 1e9
        elif name == "screening":
            total["screening.s"] += own[i]
            total["screening.groups_kept"] += attrs.get("groups_kept", 0)
            total["screening.rr_sum"] += sum(attrs.get("rejection_ratios", ()))
            total["screening.rr_n"] += len(attrs.get("rejection_ratios", ()))
        elif name == "screening.reduce":
            total["screening.reduce_s"] += dur
            total["screening.reduce_gb"] += attrs["bytes"] / 1e9
        elif name in ("path", "path.recovery"):
            total["path.points"] += attrs.get("points", 0)
            total["path.self_s"] += own[i]
        elif name == "synth":
            total["synth.s"] += dur
        elif name == "csvio.read":
            total["csvio.read_s"] += dur
        elif name == "csvio.write":
            total["csvio.write_s"] += dur
        elif name == "cli":
            total["cli.inproc_s"] += dur
    return total


def roots(spans: list[list], name: str) -> list[int]:
    """Indices of the spans the benchmark opened itself under this name."""
    return [i for i, s in enumerate(spans) if s[3] < 0 and s[0] == name]


def _under(spans: list[list], root_name: str) -> list[int]:
    """Indices of the spans that descend from a root span called root_name."""
    top = []
    for i, s in enumerate(spans):
        top.append(i if s[3] < 0 else top[s[3]])
    return [i for i in range(len(spans))
            if spans[top[i]][0] == root_name and top[i] != i]


PER_LAYER = [
    ("prox.calls", "count"), ("prox.s", "s"), ("prox.call_ms", "ms"),
    ("prox.q1_5.call_ms", "ms"), ("prox.q3.call_ms", "ms"),
    ("solver.solves", "count"), ("solver.iterations", "count"),
    ("solver.backtracks", "count"), ("solver.unconverged", "count"),
    ("solver.self_s", "s"), ("solver.matvecs", "count"), ("solver.matvec_gb", "GB"),
    ("screening.s", "s"), ("screening.reduce_s", "s"), ("screening.reduce_gb", "GB"),
    ("screening.groups_kept", "count"), ("screening.rejection_ratio", "ratio"),
    ("path.points", "count"), ("path.self_s", "s"), ("synth.s", "s"),
    ("csvio.read_s", "s"), ("csvio.write_s", "s"),
    ("cli.import_s", "s"), ("cli.inproc_s", "s"),
]


def layer_metrics(spans: list[list], import_probes: list[float]) -> dict[str, float]:
    """Per-layer numbers for one set-up plus one average timed round.

    Spans under the "setup" root count once; spans under the "round" roots
    are averaged over the rounds.  A layer the workload never reaches
    reads 0.
    """
    rounds = len(roots(spans, "round"))
    total = defaultdict(float, _sums(spans, _under(spans, "setup")))
    for key, val in _sums(spans, _under(spans, "round")).items():
        total[key] += val / max(rounds, 1)

    def per_call(s_key, n_key):
        return 1e3 * total[s_key] / total[n_key] if total[n_key] else 0.0

    m = {name: float(total[name]) for name, _ in PER_LAYER}
    m["prox.call_ms"] = per_call("prox.s", "prox.calls")
    m["prox.q1_5.call_ms"] = per_call("prox.q1_5.s", "prox.q1_5.calls")
    m["prox.q3.call_ms"] = per_call("prox.q3.s", "prox.q3.calls")
    rr_n = total["screening.rr_n"]
    m["screening.rejection_ratio"] = total["screening.rr_sum"] / rr_n if rr_n else 0.0
    m["cli.import_s"] = float(np.median(import_probes)) if import_probes else 0.0
    m["solver.s"] = total["solver.s"]  # for the breakdown; not a listed metric
    return m
