"""The three workloads: fixed, seeded lists of operations on centerlab's
public entry points, each with the check of its output.

`generate` draws a run's inputs from the seed, as plain data, once per run
and untimed; `build` turns them into operations through centerlab's own
parsers and constructors, at every set-up.  An operation's `call` is the
only timed part.  `after` runs untimed right after it and keeps what the
check needs; `check` runs after the timed rounds and returns the problems it
found (an empty list when the output is right).  Every check compares with
`reference`, never with a stored earlier output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

WORKLOADS = ("center-lp", "center-subgradient", "cli")

# Operations in one round at full size and at the self-test's small size.
# A full round takes about ROUND_SECONDS on the reference host (README).
ROUND_SIZE = {"center-lp": 200, "center-subgradient": 100}
SMALL_SIZE = {"center-lp": 10, "center-subgradient": 4}
ROUND_SECONDS = {"center-lp": 4.4, "center-subgradient": 40, "cli": 11.5}
# the cli round: see cli_plan
CLI_FULL = {"counterexamples": 105, "mideal": 6, "passing": 30, "centers": 6,
            "scenarios": None}
CLI_SMALL = {"counterexamples": 2, "mideal": 1, "passing": 1, "centers": 2,
             "scenarios": 2}
# Redraws of one input before the screen gives up (see lp_center_instances).
MAX_REDRAWS = 10
CROSS_CHECK = "subgradient radius agrees with the exact route"


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    after: Callable[[object], object]
    check: Callable[[object], list]
    before: Callable[[], None] | None = None
    input: dict | None = None  # the center question, for the self-test
    # a hashable digest of an output that fixes its check's verdict, so that
    # a repeated output is checked once; None checks every output
    digest: Callable[[object], object] | None = None


@dataclass
class Workload:
    ops: list
    warmup: Callable[[], object]


def simplex_breaks_down(cl, inst: dict) -> str | None:
    """Why the program's dense simplex breaks down on an LP-encodable center
    question, or None.  It does on about one random question in tens of
    thousands (see the README)."""
    try:
        cl.centers.solve_center(cl.centers.problem_from_json(inst))
    except cl.errors.OptimizationError as exc:
        if "status breakdown" in str(exc):
            return "the simplex breaks down"
    return None


def cross_check_fails(cl, inst: dict, scratch: Path) -> str | None:
    """Why an LP-encodable question is drawn again for a `centerlab center`
    command, or None: the simplex breaks down on it, or the one failing
    check of the command's report is its cross-check against the
    subgradient route, which stops short by more than the 1e-4 it allows on
    a few restricted sup-norm questions (see the README)."""
    reason = simplex_breaks_down(cl, inst)
    if reason is not None:
        return reason
    path, out = scratch / "screen.json", scratch / "screen-report.json"
    path.write_text(json.dumps(inst), encoding="utf-8")
    cl.cli.main(["center", str(path), "--format", "json", "--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    failing = [c["name"] for c in report["checks"] if c["pass"] is False]
    if failing == [CROSS_CHECK]:
        return "the subgradient cross-check of `centerlab center` fails"
    return None


def lp_center_instances(rng, indices, screen, redrawn: list) -> list:
    """ref.lp_center_instance for each index, each drawn again from the same
    stream while screen(instance) gives a reason to, which goes with the
    instance into `redrawn`."""
    out = []
    for i in indices:
        for _ in range(MAX_REDRAWS):
            inst = ref.lp_center_instance(rng, i)
            reason = screen(inst)
            if reason is None:
                break
            redrawn.append((reason, inst))
        else:
            raise RuntimeError(f"{reason} on {MAX_REDRAWS} draws of center "
                               f"question {i}")
        out.append(inst)
    return out


def generate(name: str, cl, seed: int, small: bool, out_dir: Path
             ) -> tuple[list, list]:
    """The inputs of a run, drawn from `seed`, as plain data (the center
    questions, or the cli plan), and the LP-encodable center questions that
    were drawn again, each with its reason.  `cl` screens those and names
    the cli scenarios; the screen writes its files under `out_dir`."""
    rng = np.random.default_rng([seed % 2 ** 63, WORKLOADS.index(name)])
    redrawn: list = []
    if name == "cli":
        out_dir.mkdir(parents=True, exist_ok=True)
        return cli_plan(cl, rng, small, lambda inst: cross_check_fails(
            cl, inst, out_dir), redrawn), redrawn
    size = (SMALL_SIZE if small else ROUND_SIZE)[name]
    if name == "center-lp":
        return lp_center_instances(rng, range(size), lambda inst:
                                   simplex_breaks_down(cl, inst),
                                   redrawn), redrawn
    return [ref.subgradient_instance(rng, i) for i in range(size)], redrawn


def build(name: str, cl, inputs: list, out_dir: Path) -> Workload:
    """Operations on `inputs`, built with centerlab's own constructors and
    parsers."""
    if name == "cli":
        return _cli(cl, inputs, out_dir / "cli")
    return _centers(cl, inputs, "lp" if name == "center-lp" else "subgradient")


# ---------------------------------------------------------------------------
# center workloads

def _label(inst: dict) -> str:
    space = inst["space"]
    kind = space["kind"] if space["kind"] != "lp" else f"l{space['p']}"
    return (f"solve_center {kind} dim={len(inst['points'][0])} "
            f"points={len(inst['points'])} f={inst['f']['kind']}"
            f"{' subspace' if inst['subspace'] else ''}")


def _centers(cl, instances: list, method: str) -> Workload:
    problems = [cl.centers.problem_from_json(inst) for inst in instances]
    ops = []
    for inst, problem in zip(instances, problems):
        ops.append(Op(
            _label(inst),
            call=lambda problem=problem: cl.centers.solve_center(problem),
            after=lambda res: (float(res.rad), np.array(res.minimizer),
                               res.method),
            check=lambda out, inst=inst: check_center(inst, out, method),
            input=inst,
            digest=lambda out: (out[0], out[1].tobytes(), out[2])))
    return Workload(ops, lambda: cl.centers.solve_center(problems[0]))


def two_point_radius(inst: dict) -> float | None:
    """Half the distance between the points, where it is the radius."""
    pts = np.asarray(inst["points"], dtype=float)
    if len(pts) != 2 or inst["f"]["kind"] != "max" or inst["subspace"]:
        return None
    return 0.5 * float(ref.norm_rows(inst["space"], pts[0] - pts[1])[0])


def check_center(inst: dict, out: tuple, method: str) -> list:
    """Problems with a (radius, minimizer, method) answer."""
    rad, v, got = out
    problems = []
    scale = max(1.0, abs(rad))
    if got != method:
        problems.append(f"method {got!r}, expected {method!r}")
    resid = ref.subspace_residual(ref.feasible_basis(inst), v)
    if resid > 1e-7 * max(1.0, float(np.abs(v).max(initial=0.0))):
        problems.append(f"minimizer leaves the feasible subspace by {resid:.3g}")
    value = ref.r_f(inst, v)
    if abs(value - rad) > ref.TOL_EXACT * scale:
        problems.append(f"r_f at the minimizer is {value!r}, radius {rad!r}")
    if method == "lp":
        exact = ref.highs_center_radius(inst)
        if abs(exact - rad) > ref.TOL_EXACT * scale:
            problems.append(f"radius {rad!r}, HiGHS {exact!r}")
        return problems
    tol = ref.TOL_SUBGRADIENT * scale
    refs = {"Nelder-Mead upper bound": (ref.nelder_mead_radius(inst), "le"),
            "triangle lower bound": (ref.triangle_lower_bound(inst), "ge")}
    pts = np.asarray(inst["points"], dtype=float)
    whole_l2 = inst["space"] == {"kind": "lp", "p": 2, "dim": pts.shape[1]} \
        and not inst["subspace"]
    if whole_l2 and inst["f"]["kind"] == "max":
        refs["smallest enclosing ball"] = (ref.smallest_enclosing_ball(pts), "eq")
    if whole_l2 and inst["f"]["kind"] == "weighted_sum":
        refs["Weiszfeld"] = (ref.weiszfeld(pts, ref.f_weights(inst["f"], len(pts))),
                             "eq")
    half = two_point_radius(inst)
    if half is not None:
        refs["half the two-point distance"] = (half, "eq")
    for name, (value, rel) in refs.items():
        bad = {"le": rad > value + tol, "ge": rad < value - tol,
               "eq": abs(rad - value) > tol}[rel]
        if bad:
            problems.append(f"radius {rad!r} against {name} {value!r}")
    return problems


# ---------------------------------------------------------------------------
# the command-line workload

def _read(path: str) -> str | None:
    p = Path(path)
    return p.read_text(encoding="utf-8") if p.exists() else None


def _unlink(path: str):
    return lambda: Path(path).unlink(missing_ok=True)


def cli_plan(cl, rng, small: bool, screen, redrawn: list) -> list:
    """The cli round as units, each a command or a property run and the
    replay of its report.  Command mix, cheapest first (times on the
    reference host):
    - 105 `property central` runs on a sup-norm counterexample (about 5 ms)
      and 105 `replay`s of their reports, plus 6 `property mideal` runs that
      find a failing triple and their replays: the median falls inside this
      group;
    - the cheap `repro` scenarios (5-80 ms);
    - 30 `property central` and 30 `property mideal` runs on coordinate
      subspaces that pass (40-100 ms): the 90th percentile falls inside
      this group;
    - 6 `center` commands (three LP-encodable, three not) and the three
      heavy `repro` scenarios (0.3-2.5 s), above the 90th percentile.
    The percentiles thus never sit on a boundary between groups whose
    costs differ severalfold.
    """
    units = []

    def seed() -> int:
        return int(rng.integers(2 ** 31))

    n = CLI_SMALL if small else CLI_FULL
    for _ in range(n["counterexamples"]):
        units.append({"unit": "fails", "property": "central", "seed": seed(),
                      "instance": ref.central_counterexample_instance(rng)})
    for i in range(n["mideal"]):
        dims = ((1, 1), (1, 2), (2, 1))[i % 3]
        units.append({"unit": "fails", "property": "mideal", "seed": seed(),
                      "instance": ref.l1_summand_instance(rng, dims)})
    for _ in range(n["passing"]):
        units.append({"unit": "passes", "property": "central", "seed": seed(),
                      "trials": 25,
                      "instance": ref.coordinate_subspace_instance(rng, 5, 2)})
        units.append({"unit": "passes", "property": "mideal", "seed": seed(),
                      "trials": 20,
                      "instance": ref.coordinate_subspace_instance(rng, 3, 1)})
    for i in range(n["centers"]):
        # LP-encodable and not, in turn; small, so the probes stay cheap
        j = (0, 3, 10)[i // 2 % 3]
        if i % 2 == 0:
            inst = lp_center_instances(rng, [j], screen, redrawn)[0]
        else:
            inst = ref.subgradient_instance(rng, j)
        units.append({"unit": "center", "instance": inst,
                      "method": "lp" if i % 2 == 0 else "subgradient"})
    for name in sorted(cl.cli.SCENARIOS)[:n["scenarios"]]:
        units.append({"unit": "repro", "scenario": name})
    # A fixed shuffle, the same for every seed, spreads each kind of command
    # over the run, so that no percentile rests on a few seconds of it.
    order = np.random.default_rng(0).permutation(len(units))
    return [units[i] for i in order]


def _cli(cl, plan: list, out_dir: Path) -> Workload:
    """The operations of a cli plan; writes its instance files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    main = cl.cli.main
    ops = []

    def write(obj) -> str:
        path = out_dir / f"input-{len(ops)}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def command(label, argv, check, source=None) -> str:
        """`source` is a file the check needs as it was after the call."""
        out = str(out_dir / f"report-{len(ops)}.json")
        argv = argv + ["--format", "json", "--out", out]
        ops.append(Op(label, call=lambda: main(argv),
                      after=lambda code: (code, _read(out),
                                          source and _read(source)),
                      check=check, before=_unlink(out), digest=_digest))
        return out

    for unit in plan:
        kind = unit["unit"]
        if kind == "fails":
            report = command(f"property {unit['property']} (fails)",
                             ["property", unit["property"],
                              write(unit["instance"]),
                              "--seed", str(unit["seed"])],
                             check_counterexample)
            command("replay", ["replay", report], check_replay, source=report)
        elif kind == "passes":
            command(f"property {unit['property']} (passes)",
                    ["property", unit["property"], write(unit["instance"]),
                     "--seed", str(unit["seed"]),
                     "--trials", str(unit["trials"])], check_property_pass)
        elif kind == "center":
            inst, method = unit["instance"], unit["method"]
            command(f"center {_label(inst)[len('solve_center '):]}",
                    ["center", write(inst)],
                    lambda out, inst=inst, method=method:
                        check_center_report(out, inst, method))
        else:
            command(f"repro {unit['scenario']}",
                    ["repro", unit["scenario"], "--seed", "0"], check_ok)
    warm = str(out_dir / "warmup.json")
    return Workload(ops, lambda: main(["repro", "linf3-two-lines", "--seed",
                                       "0", "--format", "json", "--out",
                                       warm]))


def _digest(out) -> tuple:
    """A command's output without the reports' wall-clock times, the one
    field that changes when the same command runs again."""
    def strip(text):
        if text is None:
            return None
        report = json.loads(text)
        report.pop("wall_clock_s", None)
        return json.dumps(report, sort_keys=True)
    return out[0], strip(out[1]), strip(out[2])


def _parse(out) -> tuple[dict | None, list]:
    code, text = out[:2]
    if code != 0:
        return None, [f"exit code {code}"]
    if text is None:
        return None, ["no report written"]
    report = json.loads(text)
    if report.get("ok") is not True:
        return None, ["report is not ok"]
    return report, []


def check_ok(out) -> list:
    return _parse(out)[1]


def check_property_pass(out) -> list:
    report, problems = _parse(out)
    if report is not None and report["verdicts"].get("passed") is not True:
        problems.append("a range of a norm-one projection failed the check")
    return problems


def _margin_problems(ce: dict) -> list:
    margin = ref.highs_ball_margin(ce["space"], ce["subspace"], ce["family"])
    if margin <= ref.MIN_MARGIN:
        return [f"HiGHS finds the balls within {margin!r} of the subspace"]
    return []


def check_counterexample(out) -> list:
    report, problems = _parse(out)
    if report is None:
        return problems
    ce = report["verdicts"].get("counterexample")
    if report["verdicts"].get("passed") is not False or ce is None:
        return ["no counterexample reported"]
    return _margin_problems(ce)


def check_replay(out) -> list:
    report, problems = _parse(out)
    if report is None:
        return problems
    verdicts = report["verdicts"]
    if verdicts.get("status") != "infeasible" or not verdicts.get("certificate_ok"):
        return [f"replay verdict {verdicts}"]
    replayed = json.loads(out[2])
    return _margin_problems(replayed["verdicts"]["counterexample"])


def check_center_report(out, inst: dict, method: str) -> list:
    report, problems = _parse(out)
    if report is None:
        return problems
    v = report["verdicts"]
    rad = float(v["rad"])
    if v["method"] != method:
        problems.append(f"method {v['method']!r}, expected {method!r}")
    value = ref.r_f(inst, np.asarray(v["minimizer"], dtype=float))
    if abs(value - rad) > ref.TOL_EXACT * max(1.0, abs(rad)):
        problems.append(f"r_f at the minimizer is {value!r}, radius {rad!r}")
    return problems
