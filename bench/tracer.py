"""Spans around centerlab's public functions, installed from outside.

`Tracer.install` replaces each traced function with a wrapper in every
centerlab module that holds a reference to it (`centers.eval_norm_many` as
well as `norms.eval_norm_many`), and the traced methods on their classes.
Oracles handed to `staged_subgradient` are wrapped too, so oracle calls are
spans of their own.  A re-entrant call (a norm of a sum norm evaluating its
components) belongs to the outer span and is not counted again.

Spans are kept in memory as flat arrays (name, parent, start, end) and
written out by `save`.  Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

TRACED = {
    "norms": ["eval_norm_many", "norm_subgradient", "add_norm_epigraph",
              "dist_to_subspace", "polyhedral", "make_direct_sum", "make_esum",
              "subspace_from_basis", "norm_from_json"],
    "optim": ["lp_solve", "lp_solve_lex", "LpBuilder.build", "verify_farkas",
              "staged_subgradient"],
    "centers": ["solve_center", "validate_fcmc", "delta_center_probe",
                "CentFace.distance_to"],
    "geometry": ["balls_intersect", "central_subspace_check",
                 "mideal_three_ball_check", "compose_direct_sum_projections",
                 "esum_dominator"],
    "cli": ["main", "render"],
}
CONSTRUCTORS = ["polyhedral", "make_direct_sum", "make_esum",
                "subspace_from_basis", "norm_from_json"]
CHECKERS = ["central_subspace_check", "mideal_three_ball_check",
            "compose_direct_sum_projections", "esum_dominator"]
ORACLE = "optim.staged_subgradient.oracle"

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "norms.eval_norm_many.calls": "count",
    "norms.eval_norm_many.rows": "count",
    "norms.eval_norm_many.self_ms": "ms",
    "norms.norm_subgradient.calls": "count",
    "norms.norm_subgradient.self_ms": "ms",
    "norms.add_norm_epigraph.calls": "count",
    "norms.add_norm_epigraph.self_ms": "ms",
    "norms.dist_to_subspace.calls": "count",
    "norms.dist_to_subspace.self_ms": "ms",
    "norms.constructors.self_ms": "ms",
    "optim.lp_solve.calls": "count",
    "optim.lp_solve.pivots": "count",
    "optim.lp_solve.pivots_per_call": "count",
    "optim.lp_solve.self_ms": "ms",
    "optim.lp_solve.breakdowns": "count",
    "optim.lp_solve_lex.calls": "count",
    "optim.lp_solve_lex.self_ms": "ms",
    "optim.LpBuilder.build.self_ms": "ms",
    "optim.verify_farkas.calls": "count",
    "optim.verify_farkas.self_ms": "ms",
    "optim.staged_subgradient.calls": "count",
    "optim.staged_subgradient.oracle_calls": "count",
    "optim.staged_subgradient.oracle_calls_per_call": "count",
    "optim.staged_subgradient.oracle_ms": "ms",
    "optim.staged_subgradient.oracle_us_per_call": "us",
    "optim.staged_subgradient.self_ms": "ms",
    "centers.solve_center.calls": "count",
    "centers.solve_center.self_ms": "ms",
    "centers.solve_center.lp_solves_per_call": "count",
    "centers.validate_fcmc.self_ms": "ms",
    "centers.delta_center_probe.self_ms": "ms",
    "centers.CentFace.distance_to.calls": "count",
    "geometry.balls_intersect.calls": "count",
    "geometry.balls_intersect.self_ms": "ms",
    "geometry.checkers.self_ms": "ms",
    "sequences.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.render.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _open(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self._stack.append(len(self.span_name))
        self._child_ns.append(0)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self.span_end.append(0)
        self.span_start.append(time.perf_counter_ns())

    def _close(self, name: str) -> None:
        end = time.perf_counter_ns()
        idx = self._stack.pop()
        dur = end - self.span_start[idx]
        self.span_end[idx] = end
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - self._child_ns.pop()
        if self._child_ns:
            self._child_ns[-1] += dur

    def span(self, name: str, fn, on_result=None):
        """fn wrapped in a span called `name`."""
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            active[name] += 1
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name)
                active[name] -= 1
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return wrapper

    # -- counters at layer boundaries ---------------------------------------
    def _rows(self, args, kwargs, out):
        self.counts["norms.eval_norm_many.rows"] += int(np.shape(args[1])[0])

    def _lp(self, args, kwargs, out):
        self.counts["optim.lp_solve.pivots"] += int(out.iterations)
        self.counts["optim.lp_solve.breakdowns"] += out.status == "breakdown"
        if self._active["centers.solve_center"]:
            self.counts["centers.solve_center.lp_solves"] += 1

    def _staged(self, fn):
        oracle_span = functools.partial(self.span, ORACLE)

        @functools.wraps(fn)
        def with_traced_oracle(oracle, *args, **kwargs):
            return fn(oracle_span(oracle), *args, **kwargs)

        return self.span("optim.staged_subgradient", with_traced_oracle)

    # -- installation -------------------------------------------------------
    def install(self, cl) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "centerlab"
                                         or name.startswith("centerlab."))]
        originals = {}
        for mod_name, names in TRACED.items():
            mod = getattr(cl, mod_name)
            for name in names:
                full = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, meth, self.span(full, getattr(cls, meth)))
                    continue
                fn = getattr(mod, name)
                if name == "staged_subgradient":
                    originals[fn] = self._staged(fn)
                else:
                    hook = {"norms.eval_norm_many": self._rows,
                            "optim.lp_solve": self._lp}.get(full)
                    originals[fn] = self.span(full, fn, hook)
        seq = cl.sequences
        for name, fn in vars(seq).items():
            if (callable(fn) and not isinstance(fn, type)
                    and not name.startswith("_")
                    and getattr(fn, "__module__", None) == seq.__name__):
                originals[fn] = self.span(f"sequences.{name}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                try:
                    wrapper = originals.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ------------------------------------------------------------
    def snapshot(self) -> dict:
        """Counters so far, for per-operation differences."""
        return {"lp_solves": self.calls["optim.lp_solve"],
                "pivots": self.counts["optim.lp_solve.pivots"],
                "oracle_calls": self.calls[ORACLE]}

    def metrics(self, overhead_ratio: float) -> dict:
        """PER_LAYER by name.  `<span>.calls` and `<span>.self_ms` come
        straight from the spans; the rest are listed here."""
        calls, counts = self.calls, self.counts

        def ms(span: str) -> float:
            return self.self_ns.get(span, 0) / 1e6

        def per(num, den) -> float:
            return num / den if den else 0.0

        oracle_calls = calls[ORACLE]
        derived = {
            "norms.eval_norm_many.rows": counts["norms.eval_norm_many.rows"],
            "norms.constructors.self_ms":
                sum(ms(f"norms.{n}") for n in CONSTRUCTORS),
            "optim.lp_solve.pivots": counts["optim.lp_solve.pivots"],
            "optim.lp_solve.pivots_per_call":
                per(counts["optim.lp_solve.pivots"], calls["optim.lp_solve"]),
            "optim.lp_solve.breakdowns": counts["optim.lp_solve.breakdowns"],
            "optim.staged_subgradient.oracle_calls": oracle_calls,
            "optim.staged_subgradient.oracle_calls_per_call":
                per(oracle_calls, calls["optim.staged_subgradient"]),
            "optim.staged_subgradient.oracle_ms": self.total_ns[ORACLE] / 1e6,
            "optim.staged_subgradient.oracle_us_per_call":
                per(self.total_ns[ORACLE] / 1e3, oracle_calls),
            "centers.solve_center.lp_solves_per_call":
                per(counts["centers.solve_center.lp_solves"],
                    calls["centers.solve_center"]),
            "geometry.checkers.self_ms":
                sum(ms(f"geometry.{n}") for n in CHECKERS),
            "sequences.self_ms": sum((ms(k) for k in list(self.self_ns)
                                      if k.startswith("sequences.")), 0.0),
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, unit in PER_LAYER.items():
            if name in derived:
                value = derived[name]
            else:
                span, quantity = name.rsplit(".", 1)
                value = calls[span] if quantity == "calls" else ms(span)
            out[name] = {"value": value, "unit": unit}
        return out

    def save(self, path, per_op: list) -> None:
        """Write the spans (.npz) and a per-operation summary (.json)."""
        np.savez(str(path) + ".npz", names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.span_start, dtype=np.int64),
                 end_ns=np.frombuffer(self.span_end, dtype=np.int64))
        with open(str(path) + ".json", "w", encoding="utf-8") as fh:
            json.dump({"spans": len(self.span_name), "operations": per_op},
                      fh, indent=1)
