"""Command-line front end.

Subcommands: `center` solves a center instance file and probes its
delta-centers, `property` runs one of the randomized subspace checkers,
`repro` runs a named built-in scenario and asserts its expected values, and
`replay` re-checks a counterexample dumped by an earlier run.

Every numeric claim in a report carries its tolerance and the oracle backing
it ("reference" for values fixed by the source material, "identity" for
closed-form facts, "derived:*" for independent recomputations).  Reports are
reproducible: same command and seed give identical bodies up to the
wall-clock field.  Exit codes: 0 pass, 1 usage or parse error, 2
computational failure, 3 reproduction assertion failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np

from . import centers, geometry, instances, norms, sequences
from .centers import (
    p1_modulus,
    problem_from_json,
    sacp_experiment,
    solve_center,
)
from .errors import OptimizationError
from .geometry import (
    BallFamily,
    ac_dominator,
    almost_constrained_probe,
    balls_intersect,
    central_subspace_check,
    compose_direct_sum_projections,
    decompose_min_sum,
    esum_dominator,
    family_from_json,
    family_to_json,
    gamma_estimate,
    lift_projection_linf_sum,
    locally_constrained_transfer,
    mideal_three_ball_check,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_ASSERT = 3

SURROGATE_NOTE = ("finite-dimensional surrogate: the original statement "
                  "concerns infinite-dimensional spaces; this run checks the "
                  "defining inequalities at desk scale")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _coerce(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def check(name: str, value, expected=None, tol=None, oracle: str = "identity",
          passed=None) -> dict:
    if passed is None:
        if tol is not None:
            passed = abs(float(value) - float(expected)) <= tol
        else:
            passed = value == expected
    return {"name": name, "value": value, "expected": expected, "tol": tol,
            "oracle": oracle, "pass": bool(passed)}


def new_report(command: str, config: dict) -> dict:
    return {"schema": 1, "command": command, "config": config,
            "checks": [], "verdicts": {}, "notes": []}


def finish_report(report: dict, started: float) -> dict:
    report["ok"] = all(c["pass"] for c in report["checks"])
    report["wall_clock_s"] = time.monotonic() - started
    return report


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, default=_coerce) + "\n"
    if fmt == "csv":
        lines = ["name,value,expected,tol,oracle,pass"]
        for c in report["checks"]:
            lines.append(",".join(str(_flat(c[k])) for k in
                                  ("name", "value", "expected", "tol", "oracle", "pass")))
        return "\n".join(lines) + "\n"
    if fmt == "md":
        lines = [f"# {report['command']} report", "",
                 f"config: `{json.dumps(report['config'], default=_coerce)}`", "",
                 "| check | value | expected | tol | oracle | pass |",
                 "|---|---|---|---|---|---|"]
        for c in report["checks"]:
            lines.append("| " + " | ".join(str(_flat(c[k])) for k in
                                           ("name", "value", "expected", "tol",
                                            "oracle", "pass")) + " |")
        lines += ["", f"overall: {'PASS' if report.get('ok') else 'FAIL'}"]
        for note in report["notes"]:
            lines.append(f"- {note}")
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown format {fmt!r}")


def _flat(v):
    if isinstance(v, np.ndarray):
        return "[" + " ".join(f"{x:.6g}" for x in v) + "]"
    if isinstance(v, float):
        return f"{v:.12g}"
    return v


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".centerlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# reproduction scenarios

def _repro_c0(seed: int) -> dict:
    report = new_report("repro", {"name": "c0-hyperplane-criteria",
                                  "seed": seed, "arithmetic": "exact rational"})
    data = instances.c0_scenario()
    f, f1, f2 = data["f"], data["f1"], data["f2"]
    sn = sequences.seq_norms(f)
    report["checks"] += [
        check("l1(f) = 2", sn.l1, Fraction(2), oracle="reference"),
        check("linf(f) = 1/2", sn.linf, Fraction(1, 2), oracle="reference"),
        check("2*linf(f) < l1(f)", bool(2 * sn.linf < sn.l1), True,
              oracle="reference"),
        check("support of f is infinite", not sn.support_finite, True,
              oracle="reference"),
    ]
    gc = sequences.c0_hyperplane_gc(f)
    report["checks"].append(check("center property fails for ker(f)",
                                  not gc.holds, True, oracle="reference"))
    sn1 = sequences.seq_norms(f1)
    sn2 = sequences.seq_norms(f2)
    report["checks"] += [
        check("l1(f1) = 1 = 2|f1(2)|",
              sn1.l1 == 1 and 2 * abs(f1.coordinate(2)) == sn1.l1, True,
              oracle="reference"),
        check("l1(f2) = 1 = 2|f2(1)|",
              sn2.l1 == 1 and 2 * abs(f2.coordinate(1)) == sn2.l1, True,
              oracle="reference"),
    ]
    crit = sequences.c0_constrained_criterion([f1, f2])
    report["checks"] += [
        check("constrainedness criterion holds", crit.satisfied, True,
              oracle="reference"),
        check("distinct half-mass coordinates", crit.assignment, (2, 1),
              oracle="reference"),
    ]
    report["verdicts"] = {"gc": gc.reason, "criterion": crit.note}
    return report


def _repro_linf3(seed: int) -> dict:
    report = new_report("repro", {"name": "linf3-two-lines", "seed": seed})
    data = instances.linf3_scenario()
    space, x, family = data["space"], data["x"], data["family"]
    dists = norms.eval_norm_many(space, x[None, :] - family.centers)
    for i, d in enumerate(dists):
        report["checks"].append(check(f"distance to ball center {i + 1}",
                                      float(d), 1.5, tol=1e-12,
                                      oracle="reference"))
    res_full = balls_intersect(space, family)
    gaps = norms.eval_norm_many(space, res_full.witness[None, :] - family.centers) \
        - family.radii if res_full.status == geometry.FEASIBLE else None
    report["checks"].append(check(
        "family intersects in the whole space",
        res_full.status == geometry.FEASIBLE and float(gaps.max()) <= 1e-9,
        True, oracle="derived:witness-validation"))
    res_plane = balls_intersect(space, family, data["plane"])
    report["checks"].append(check(
        "no common point over the sum of the lines", res_plane.certified, True,
        oracle="derived:farkas-verification"))
    report["verdicts"] = {"whole_space": res_full.status,
                          "sum_of_lines": res_plane.status}
    return report


def _repro_l1_lines(seed: int) -> dict:
    report = new_report("repro", {"name": "l1-shifted-basis", "seed": seed,
                                  "dimension": 50})
    model = instances.l1_lines_scenario(50)
    space = model["space"]
    deviations = []
    for n in range(1, 11):
        sub = norms.subspace_from_basis(50, np.eye(50)[:n])
        d, _ = norms.dist_to_subspace(space, np.eye(50)[n], sub)
        deviations.append(abs(d - 1.0))
    report["checks"].append(check(
        "distance of each next basis vector to the span of the first n",
        float(max(deviations)), 0.0, tol=1e-9, oracle="reference"))
    result = solve_center(model["problem"])
    report["checks"].append(check("restricted radius over the line union",
                                  result.rad, 1.0, tol=1e-9,
                                  oracle="reference"))
    verdict = sacp_experiment(model["problem"], model["sequence"], horizon=49,
                              cluster_tol=0.5, result=result)
    values_dev = float(np.abs(verdict.values - 1.0).max())
    report["checks"] += [
        check("sequence values all equal one", values_dev, 0.0, tol=1e-12,
              oracle="reference"),
        check("sequence is minimizing", verdict.minimizing, True,
              oracle="identity"),
        check("minimal pairwise distance", verdict.min_pairwise, 2.0,
              tol=1e-12, oracle="reference"),
        check("no cluster within horizon",
              verdict.verdict, "no cluster within horizon", oracle="identity"),
    ]
    report["verdicts"] = {"sacp": verdict.verdict, "topology": verdict.topology}
    report["notes"].append(SURROGATE_NOTE)
    return report


def _repro_transfer(seed: int) -> dict:
    report = new_report("repro", {"name": "nested-ball-transfer", "seed": seed})
    data = instances.transfer_scenario()
    res = locally_constrained_transfer(data["space"], data["z1"], data["y"],
                                       data["z2"], data["family"],
                                       data["factory"])
    report["checks"].append(check("transfer pipeline succeeds", res.ok, True,
                                  oracle="derived:stagewise-verification"))
    if res.ok:
        # the pipeline guarantees containment, not tightness: slack <= 0
        slack = float((norms.eval_norm_many(data["space"],
                                            res.point[None, :] - data["family"].centers)
                       - data["family"].radii).max())
        report["verdicts"]["slack"] = slack
        report["checks"] += [
            check("output point within every radius", slack, 0.0, tol=1e-9,
                  oracle="derived:direct-check", passed=slack <= 1e-9),
            check("output point lies in the intersection subspace",
                  data["z2"].contains(res.point), True, oracle="identity"),
        ]
    report["verdicts"]["stage"] = res.stage
    return report


def _repro_composition(seed: int) -> dict:
    report = new_report("repro", {"name": "sum-projection-composition",
                                  "seed": seed, "instances": 3})
    for idx in range(3):
        space, pairs, z0 = instances.composition_scenario(idx)
        _, _, comp_report = compose_direct_sum_projections(space, pairs, z0,
                                                           seed=seed)
        report["checks"] += [
            check(f"instance {idx}: images of z0 agree bit-exactly",
                  comp_report["image_bitexact"], True, oracle="identity"),
            check(f"instance {idx}: sampled contraction ratio",
                  comp_report["max_contraction_ratio"], 1.0, tol=1e-9,
                  oracle="derived:sampling",
                  passed=comp_report["max_contraction_ratio"] <= 1.0 + 1e-9),
        ]
    report["notes"].append(SURROGATE_NOTE)
    return report


def _repro_esum(seed: int) -> dict:
    report = new_report("repro", {"name": "esum-dominator", "seed": seed,
                                  "instances": 3})
    for idx in range(3):
        space, y_components, x, a_points = instances.esum_scenario(idx)
        _, dom_report = esum_dominator(space, y_components, x, a_points)
        report["checks"] += [
            check(f"instance {idx}: domination in the sum norm",
                  dom_report["domination_ok"], True, oracle="derived:direct-check"),
            check(f"instance {idx}: zero-augmentation bound per component",
                  dom_report["component_bound_ok"], True,
                  oracle="derived:direct-check"),
        ]
    report["notes"].append(SURROGATE_NOTE)
    return report


def _repro_three_ball(seed: int) -> dict:
    report = new_report("repro", {"name": "three-ball-transfer", "seed": seed,
                                  "trials": 500, "eps": 1e-6})
    data = instances.mideal_scenarios()
    good = mideal_three_ball_check(data["max_space"], data["first_summand"],
                                   trials=500, eps=1e-6, seed=seed)
    report["checks"].append(check("sup-combined summand passes",
                                  good.passed, True,
                                  oracle="derived:sampling"))
    bad = mideal_three_ball_check(data["sum_space"], data["first_summand"],
                                  trials=500, eps=1e-6, seed=seed)
    report["checks"].append(check(
        "sum-combined summand fails with a verified certificate",
        not bad.passed and bad.result.certified, True,
        oracle="derived:farkas-verification"))
    if bad.family is not None:
        report["verdicts"]["witness_triple"] = family_to_json(bad.family)
    report["verdicts"]["pass_note"] = good.note
    return report


def _repro_lift(seed: int) -> dict:
    report = new_report("repro", {"name": "sup-sum-lift", "seed": seed})
    data = instances.lift_scenario()
    res = lift_projection_linf_sum(data["base"], data["projection"],
                                   data["z1"], k=data["k"], trials=100,
                                   seed=seed)
    for key, value in res.checks.items():
        report["checks"].append(check(f"lift check: {key}", value, True,
                                      oracle="derived:sampling"
                                      if "norm" in key or "central" in key
                                      else "identity"))
    return report


def _repro_decomposition(seed: int) -> dict:
    report = new_report("repro", {"name": "min-sum-decomposition",
                                  "seed": seed, "samples": 40})
    data = instances.decomposition_scenario()
    x_in_y = data["y"].embed(np.array([1.7]))
    dec = decompose_min_sum(data["space"], x_in_y, data["y"], data["z"])
    report["checks"].append(check("ratio equals one for x inside Y",
                                  dec.ratio, 1.0, tol=1e-9,
                                  oracle="identity"))
    gamma = gamma_estimate(data["space"], data["y"], data["z"], samples=40,
                           seed=seed)
    report["checks"].append(check("sampled ratios stay above one",
                                  gamma >= 1.0 - 1e-9, True,
                                  oracle="identity"))
    report["verdicts"]["gamma_estimate"] = gamma
    return report


SCENARIOS = {
    "c0-hyperplane-criteria": _repro_c0,
    "linf3-two-lines": _repro_linf3,
    "l1-shifted-basis": _repro_l1_lines,
    "nested-ball-transfer": _repro_transfer,
    "sum-projection-composition": _repro_composition,
    "esum-dominator": _repro_esum,
    "three-ball-transfer": _repro_three_ball,
    "sup-sum-lift": _repro_lift,
    "min-sum-decomposition": _repro_decomposition,
}


# ---------------------------------------------------------------------------
# commands

def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"cannot read instance file {path!r}: {exc}") from exc


@contextlib.contextmanager
def _malformed(what: str):
    """Turn an error raised while parsing a file into a usage error."""
    try:
        yield
    except (KeyError, ValueError, TypeError, AttributeError,
            RecursionError) as exc:
        raise UsageError(f"malformed {what}: {exc}") from exc


def cmd_center(args) -> tuple[dict, int]:
    data = _load_json(args.instance)
    with _malformed("center instance"):
        problem = problem_from_json(data)
    # no modulus runs over a union of lines, so it refuses --deltas, which
    # the parser leaves None when it is not given
    lines = isinstance(problem.feasible, centers.UnionOfLines)
    if lines and args.deltas is not None:
        raise UsageError("center over a union of lines does not read --deltas")
    config = {"instance": args.instance, "seed": args.seed, "tol": args.tol}
    if not lines:
        config["deltas"] = args.deltas or [0.1, 0.01, 0.001]
    report = new_report("center", config)
    result = solve_center(problem)
    report["verdicts"] = {
        "rad": result.rad,
        "minimizer": result.minimizer,
        "method": result.method,
        "f_validation_ok": result.f_validation["ok"],
        "topology": result.topology,
    }
    report["checks"].append(check(
        "minimizer attains the reported radius",
        centers.eval_rf(problem.space, result.minimizer, problem.points,
                        problem.f),
        result.rad, tol=max(args.tol, 1e-6 * max(1.0, result.rad)),
        oracle="derived:re-evaluation"))
    code = EXIT_OK
    # the barrier certificate: the answer's, or on the LP route the
    # cross-check's
    cert = result.certificate
    if result.method.startswith("lp"):
        # the cross-check failing leaves the exact answer standing
        try:
            sg = solve_center(problem, method="subgradient")
        except OptimizationError as exc:
            code, cert = EXIT_COMPUTE, None
            report["checks"].append(check(
                "subgradient radius agrees with the exact route", None,
                result.rad, oracle="derived:subgradient", passed=False))
            report["notes"].append(f"subgradient cross-check failed: {exc}")
        else:
            cert = sg.certificate
            report["verdicts"]["rad_subgradient"] = sg.rad
            report["checks"].append(check(
                "subgradient radius agrees with the exact route",
                sg.rad, result.rad, tol=1e-4, oracle="derived:subgradient"))
    if cert is not None:
        report["verdicts"]["bracket"] = {"lower": cert.lower, "upper": cert.upper,
                                         "steps": cert.steps}
    if not lines:
        curve = p1_modulus(problem, config["deltas"], seed=args.seed,
                           result=result)
        report["verdicts"]["modulus"] = [
            {"delta": d, "excess": e, "samples": s} for d, e, s in curve]
        report["checks"].append(check(
            "delta-center excess is nonincreasing as delta decreases",
            all(curve[i][1] >= curve[i + 1][1] - 1e-9
                for i in range(len(curve) - 1)), True,
            oracle="derived:modulus-monotonicity"))
    return report, code


def _default_property_instance(kind: str) -> dict:
    data = instances.linf3_scenario()
    if kind == "central":
        return {"space": data["space"], "subspace": data["plane"],
                "inject": [data["family"]], "within": None}
    if kind == "ac":
        return {"space": data["space"], "subspace": data["plane"],
                "points": data["family"].centers, "x": data["x"]}
    if kind == "almost-constrained":
        return {"space": data["space"], "subspace": data["plane"],
                "x": data["x"], "inject": [data["family"].centers]}
    if kind == "mideal":
        md = instances.mideal_scenarios()
        return {"space": md["sum_space"], "subspace": md["first_summand"]}
    raise UsageError(f"unknown property kind {kind!r}")


def _in_space(arr: np.ndarray, n: int, what: str, ndim: int) -> np.ndarray:
    if arr.ndim != ndim or arr.shape[-1] != n:
        raise ValueError(f"{what} does not match the space dimension")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    return arr


def _parse_property_instance(kind: str, data: dict) -> dict:
    """Parse a property file and check the preconditions of its checker, so
    that data which parse but do not fit end as usage errors."""
    space = norms.norm_from_json(data["space"])
    sub = norms.subspace_from_json(data["subspace"])
    n = norms.space_dim(space)
    if sub.ambient_dim != n:
        raise ValueError("subspace does not match the space dimension")
    out = {"space": space, "subspace": sub}
    if kind in ("ac", "almost-constrained"):
        out["x"] = _in_space(np.asarray(data["x"], dtype=float), n, "x", 1)
    if kind == "central":
        out["within"] = (norms.subspace_from_json(data["within"])
                         if data.get("within") else None)
        if out["within"] is not None and out["within"].ambient_dim != n:
            raise ValueError("within does not match the space dimension")
        out["inject"] = [family_from_json(f) for f in data.get("inject", [])]
        for fam in out["inject"]:
            _in_space(fam.centers, n, "injected family", 2)
    elif kind == "ac":
        points = np.atleast_2d(np.asarray(data["points"], dtype=float))
        out["points"] = _in_space(points, n, "points", 2)
        if not all(sub.contains(a, tol=1e-7) for a in points):
            raise ValueError("reference points must lie in the subspace")
    elif kind == "almost-constrained":
        if sub.contains(out["x"], tol=1e-7):
            raise ValueError("x already lies in the subspace")
        out["inject"] = [
            _in_space(np.atleast_2d(np.asarray(a, dtype=float)), n,
                      "injected points", 2)
            for a in data.get("inject", [])]
        if not all(sub.contains(a, tol=1e-7) for pts in out["inject"] for a in pts):
            raise ValueError("injected points must lie in the subspace")
    return out


# the defaults of the optional flags each property kind reads; the parser
# leaves them None, and a kind refuses a flag it does not read
PROPERTY_FLAGS = {"central": {"trials": 200}, "ac": {}, "almost-constrained": {},
                  "mideal": {"trials": 200, "tol": 1e-9}}


# kind -> the check it runs on a parsed instance and the config; each looks
# its checker up by name when it runs, so a wrapper set on this module's
# names (a tracer's span, a test's spy) is the one called
PROPERTY_CHECKS = {
    "central": lambda inst, config: central_subspace_check(
        inst["space"], inst["subspace"], config["trials"], config["seed"],
        within=inst["within"], inject=inst["inject"]),
    "ac": lambda inst, config: ac_dominator(
        inst["space"], inst["subspace"], inst["points"], inst["x"]),
    "almost-constrained": lambda inst, config: almost_constrained_probe(
        inst["space"], inst["subspace"], inst["x"], seed=config["seed"],
        inject=inst["inject"]),
    "mideal": lambda inst, config: mideal_three_ball_check(
        inst["space"], inst["subspace"], config["trials"], eps=config["tol"],
        seed=config["seed"]),
}


def _counterexample(kind: str, space, sub, verdict: geometry.SubspaceVerdict) -> dict:
    """A record that `replay` re-checks: the refuting ball family, which
    misses the subspace, and the status its check saw."""
    return {"schema": 1, "kind": kind, "space": norms.norm_to_json(space),
            "subspace": norms.subspace_to_json(sub),
            "family": family_to_json(verdict.family),
            "expected_status": verdict.result.status}


def cmd_property(args) -> tuple[dict, int]:
    kind, flags = args.kind, PROPERTY_FLAGS[args.kind]
    unread = [f"--{flag}" for flag in ("trials", "tol")
              if getattr(args, flag) is not None and flag not in flags]
    if unread:
        raise UsageError(f"property {kind} does not read {', '.join(unread)}")
    config = {"kind": kind, "instance": args.instance, "seed": args.seed}
    for flag, default in flags.items():
        value = getattr(args, flag)
        config[flag] = default if value is None else value
    if kind == "mideal" and config["tol"] <= 0:
        config["tol"] = 1e-6  # the eps that runs for a tolerance <= 0
    if args.instance is not None:
        data = _load_json(args.instance)
        with _malformed("property instance"):
            inst = _parse_property_instance(kind, data)
    else:
        inst = _default_property_instance(kind)
    report = new_report("property", config)
    verdict = PROPERTY_CHECKS[kind](inst, config)
    report["verdicts"] = {"passed": verdict.passed, "decided": verdict.decided,
                          "note": verdict.note, "trials_run": verdict.trials_run}
    if verdict.witness is not None:
        report["verdicts"]["witness"] = verdict.witness
    if verdict.family is not None:
        report["verdicts"]["counterexample"] = _counterexample(
            kind, inst["space"], inst["subspace"], verdict)
    report["checks"].append(check("checker completed", True, True))
    return report, EXIT_OK


def cmd_replay(args) -> tuple[dict, int]:
    data = _load_json(args.file)
    with _malformed("counterexample"):
        payload = data.get("counterexample", data)
        if "family" not in payload:
            # walk report verdicts for an embedded counterexample
            payload = data.get("verdicts", {}).get("counterexample")
            if payload is None:
                raise UsageError("no replayable counterexample in file")
        space = norms.norm_from_json(payload["space"])
        sub = norms.subspace_from_json(payload["subspace"])
        family = family_from_json(payload["family"])
        n = norms.space_dim(space)
        if sub.ambient_dim != n:
            raise ValueError("subspace does not match the space dimension")
        _in_space(family.centers, n, "family", 2)
        expected = payload.get("expected_status")
    statuses = (geometry.FEASIBLE, geometry.INFEASIBLE, geometry.UNRESOLVED)
    if expected is not None and expected not in statuses:
        raise UsageError(f"expected_status must be one of {statuses}, not {expected!r}")
    res = balls_intersect(space, family, sub)
    report = new_report("replay", {"file": args.file,
                                   "seed": args.seed})
    report["verdicts"] = {"status": res.status}
    if res.status == geometry.INFEASIBLE:
        report["verdicts"]["certificate_ok"] = res.certified
    if expected:
        report["checks"].append(check("replayed status matches the record",
                                      res.status, expected))
    else:
        report["checks"].append(check("replay completed", True, True))
    return report, EXIT_OK


def cmd_repro(args) -> tuple[dict, int]:
    if args.list or args.name is None:
        report = new_report("repro", {"list": True})
        report["verdicts"]["scenarios"] = sorted(SCENARIOS)
        report["checks"].append(check("listing", True, True))
        return report, EXIT_OK
    if args.name not in SCENARIOS:
        raise UsageError(f"unknown scenario {args.name!r}; "
                         f"choose from {sorted(SCENARIOS)}")
    if args.dump_instance:
        report = {"schema": 1, "command": "repro",
                  "config": {"name": args.name, "dump": True},
                  "instance": instances.scenario_dump(args.name),
                  "checks": [], "verdicts": {}, "notes": []}
        return report, EXIT_OK
    report = SCENARIOS[args.name](args.seed)
    code = EXIT_OK if all(c["pass"] for c in report["checks"]) else EXIT_ASSERT
    if code == EXIT_ASSERT:
        report["notes"].append("assertion failure: expected vs computed "
                               "values disagree; see failing checks")
    return report, code


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process.  `--seed` defaults to
    None here; `main` reads CENTERLAB_SEED when the arguments are parsed."""
    parser = _Parser(prog="centerlab",
                     description="restricted centers and ball-intersection "
                                 "diagnostics in finite-dimensional normed spaces")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv", "md"),
                       default="json")

    p_center = sub.add_parser("center", help="solve a center instance file")
    p_center.add_argument("instance")
    p_center.add_argument("--deltas", type=float, nargs="+", default=None)
    p_center.add_argument("--tol", type=float, default=1e-9)
    common(p_center)

    p_prop = sub.add_parser("property", help="run a subspace property checker")
    p_prop.add_argument("kind", choices=tuple(PROPERTY_FLAGS))
    p_prop.add_argument("instance", nargs="?", default=None)
    p_prop.add_argument("--trials", type=int, default=None)
    p_prop.add_argument("--tol", type=float, default=None)
    common(p_prop)

    p_repro = sub.add_parser("repro", help="run a built-in reproduction")
    p_repro.add_argument("name", nargs="?", default=None)
    p_repro.add_argument("--list", action="store_true")
    p_repro.add_argument("--dump-instance", action="store_true",
                         dest="dump_instance")
    common(p_repro)

    p_replay = sub.add_parser("replay", help="re-check a dumped counterexample")
    p_replay.add_argument("file")
    common(p_replay)
    return parser


def _check_ranges(args) -> None:
    """Refuse numeric flags outside the ranges the README lists."""
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, not {args.seed}")
    trials, tol = getattr(args, "trials", None), getattr(args, "tol", None)
    if trials is not None and trials < 0:
        raise UsageError(f"--trials must be >= 0, not {trials}")
    if tol is not None and not math.isfinite(tol):
        raise UsageError(f"--tol must be finite, not {tol}")
    for delta in getattr(args, "deltas", None) or ():
        if not (math.isfinite(delta) and delta >= 0):
            raise UsageError(f"--deltas must be finite and >= 0, not {delta}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required "
                             "(center, property, repro, replay)")
        if args.seed is None:
            env = os.environ.get("CENTERLAB_SEED", "0")
            try:
                args.seed = int(env)
            except ValueError:
                args.seed = -1
            if args.seed < 0:
                raise UsageError(f"CENTERLAB_SEED must be a non-negative "
                                 f"integer, not {env!r}")
        _check_ranges(args)
        started = time.monotonic()
        if args.command == "center":
            report, code = cmd_center(args)
        elif args.command == "property":
            report, code = cmd_property(args)
        elif args.command == "repro":
            report, code = cmd_repro(args)
        else:
            report, code = cmd_replay(args)
        finish_report(report, started)
        if not report.get("ok", True) and code == EXIT_OK and \
                args.command in ("repro", "replay"):
            code = EXIT_ASSERT
        _write(render(report, args.format), args.out)
        return code
    except UsageError as exc:
        print(f"centerlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OptimizationError,) as exc:
        print(f"centerlab: computational failure: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
