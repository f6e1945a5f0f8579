"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs each workload at a small size, traced, twice with one seed and checks
that the inputs and the per-layer counts repeat exactly, that no operation
fails, and that another seed gives other inputs.  Then it perturbs real
answers (the radius by 1e-4 of its scale, a minimizer off its subspace, a
counterexample's radii, a verdict, an exit code) and checks that every
checker rejects them.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run
import workloads as wl

SEED = 7
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def inputs(name: str, seed: int) -> str:
    return json.dumps(run.generate(name, seed, small=True))


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] == "count"}


def rejects(check, output, needle: str, what: str) -> None:
    found = check(output)
    expect(any(needle in p for p in found), f"{what}: {found or 'accepted'}")


def perturb_center(op, out) -> None:
    rad, v, method = out
    eps = 1e-4 * max(1.0, abs(rad))
    label, inst = op.label, op.input
    rejects(op.check, (rad + eps, v, method), "r_f at the minimizer",
            f"{label}: radius + 1e-4 against r_f")
    rejects(op.check, (rad, v, "other"), "method", f"{label}: method")
    if inst["subspace"]:
        basis = np.asarray(inst["subspace"]["basis"], dtype=float)
        normal = np.linalg.svd(basis)[2][-1]
        rejects(op.check, (rad, v + 1e-3 * normal, method), "leaves",
                f"{label}: minimizer off the subspace")
    if method == "lp":
        rejects(op.check, (rad + eps, v, method), "HiGHS",
                f"{label}: radius + 1e-4 against HiGHS")
        return
    rejects(op.check, (rad + eps, v, method), "Nelder-Mead",
            f"{label}: radius + 1e-4 against Nelder-Mead")
    pts = np.asarray(inst["points"], dtype=float)
    l2 = inst["space"] == {"kind": "lp", "p": 2, "dim": pts.shape[1]} \
        and not inst["subspace"]
    if l2 and inst["f"]["kind"] == "max":
        rejects(op.check, (rad + eps, v, method), "enclosing ball",
                f"{label}: radius + 1e-4 against the enclosing ball")
    if l2 and inst["f"]["kind"] == "weighted_sum":
        rejects(op.check, (rad + eps, v, method), "Weiszfeld",
                f"{label}: radius + 1e-4 against Weiszfeld")
    if wl.two_point_radius(inst) is not None:
        rejects(op.check, (rad + eps, v, method), "two-point",
                f"{label}: radius + 1e-4 against the two-point identity")
        rejects(op.check, (rad - eps, v, method), "triangle",
                f"{label}: radius - 1e-4 against the triangle bound")


def _edit(text: str, change) -> str:
    report = json.loads(text)
    change(report)
    return json.dumps(report)


def _inflate(report: dict) -> None:
    family = report["verdicts"]["counterexample"]["family"]
    family["radii"] = [3.0 * r for r in family["radii"]]


def perturb_cli(op, out) -> None:
    code, text, source = out
    label = op.label
    rejects(op.check, (3, text, source), "exit code", f"{label}: exit code")
    rejects(op.check, (code, _edit(text, lambda r: r.update(ok=False)), source),
            "not ok", f"{label}: report not ok")
    if label.startswith("property") and "(fails)" in label:
        rejects(op.check, (code, _edit(text, _inflate), source), "HiGHS",
                f"{label}: a family that meets the subspace")
    elif label == "replay":
        rejects(op.check, (code, text, _edit(source, _inflate)), "HiGHS",
                f"{label}: a replayed family that meets the subspace")
    elif label.startswith("property"):
        rejects(op.check,
                (code, _edit(text, lambda r: r["verdicts"].update(passed=False)),
                 source), "failed the check", f"{label}: verdict")
    elif label.startswith("center"):
        def shift(r):
            r["verdicts"]["rad"] += 1e-4 * max(1.0, abs(r["verdicts"]["rad"]))
        rejects(op.check, (code, _edit(text, shift), source),
                "r_f at the minimizer", f"{label}: radius + 1e-4")


def main() -> int:
    for name in wl.WORKLOADS:
        first, _, _ = run.measure_traced(name, SEED, small=True)
        second, _, _ = run.measure_traced(name, SEED, small=True)
        same = inputs(name, SEED)
        expect(same == inputs(name, SEED), f"{name}: inputs repeat")
        expect(same != inputs(name, SEED + 1),
               f"{name}: another seed gives other inputs")
        expect(counts(first) == counts(second),
               f"{name}: per-layer counts repeat")
        expect(first["failed"] == second["failed"] == 0,
               f"{name}: no operation fails "
               f"({first['failures'] + second['failures']})")
        record, _, _ = run.run_rounds(name, SEED, 0, small=True)
        for _, op, out in record.results:
            (perturb_cli if name == "cli" else perturb_center)(op, out)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
