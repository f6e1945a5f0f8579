"""Digests of centerlab's deterministic reports, one `label sha256` line each.

    python tools/report_digests.py [SRC]

Imports centerlab from SRC (default: the `src/` next to this directory) and
runs, in one process:

- every `repro` scenario at `--seed 0` and `--seed 7`;
- `property central|ac|almost-constrained|mideal` on the default instances
  at both seeds;
- at both seeds, the passing property runs of the benchmark's `cli`
  workload: `property central --trials 25` on a 2-dimensional coordinate
  subspace of l-inf in R^5 and `property mideal --trials 20` on a
  1-dimensional coordinate subspace of l-inf in R^3, whose trials are
  each held by the projection of its witness, with no LP solved;
- at both seeds, `property central --trials 25` and `property mideal
  --trials 20` on the line through (1, 1, 1) under a polyhedral norm whose
  generators are not +-e_j and under the 1-norm, whose ball LPs'
  right-hand sides are not single +-1 entries of the centers (each
  three-ball check fails);
- `replay` of each of those property reports that carries a counterexample;
- `center` on the README instance, in json and md;
- under the Euclidean norm, where the barrier route does the work, at
  both seeds: `center` on the README points and `property central
  --trials 3`, `property ac`, `property almost-constrained` and `property
  mideal --trials 3` on the README plane (the `witness` of `property ac`,
  its dominator, is the minimizer of the non-polyhedral ball search);
- `center` on the README points and plane under l-inf and l2, at both
  seeds, for each of SCALARIZATIONS: together they reach both LP row forms,
  the barrier's smooth `PowerSum` objective, and a `Composite` on each
  route its inner scalarization takes, the barrier under a polyhedral norm
  included;
- `center` on the README points over the union of two lines, through
  (0, 0, 1) along (1, -1, 0) and through (1, 0, 0) along (0, 1, -1), under
  l-inf and l2 at both seeds: the line loop of `solve_center` on both
  routes;
- `center` on the first two README points in the whole space, under l2
  and under the E-sum of l-inf(2) and l2(1) with weighted 2-norm weights
  (1, 1.5), at both seeds: two-point max questions whose centroid is the
  center, where the barrier's Newton steps on the optimality conditions
  close its bracket after a few steps;
- `property almost-constrained` at both seeds on l1 in R^8 over a
  coordinate 3-space, whose norm-one projection check passes the vertex
  enumeration's cap and is sampled;
- `property almost-constrained` at both seeds on a plane of l-inf in R^3
  and on a plane of l1 in R^3, each given by its kernel, whose exact
  norm-one projection checks reject an image: at seed 0 the l-inf probe
  passes in its second round, and the l1 probe refutes there with the
  rejection's witness in its net;
- `property central --trials 200` and `property mideal --trials 200` at
  both seeds on a seeded random plane of l1 in R^3 (the basis of
  `default_rng(4).normal(size=(2, 3))` to three decimals), and `replay` of
  each report that carries a counterexample: some of its trials are held
  by the projection of their witness onto the plane and some need their
  ball LP; the central check passes at seed 0 and refutes at seed 7, and
  both three-ball checks fail.

A digest covers the exit code and the report with `wall_clock_s` removed.
Two checkouts give the same lines exactly when their reports agree, so

    diff <(python tools/report_digests.py old/src) <(python tools/report_digests.py)

lists the reports a change moves; rerun a listed command by hand to see
what moved in it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

SEEDS = ("0", "7")
PROPERTY_KINDS = ("central", "ac", "almost-constrained", "mideal")
README_INSTANCE = {"schema": 1,
                   "space": {"kind": "lp", "p": "inf", "dim": 3},
                   "subspace": {"basis": [[1, 0, -1], [0, 1, -1]]},
                   "points": [[-2, 1, 1], [1, 1, -2], [1, -2, 1]],
                   "f": {"kind": "max"}}
L2 = {"kind": "lp", "p": 2, "dim": 3}
L2_PROPERTY = {"schema": 1, "space": L2, "subspace": README_INSTANCE["subspace"],
               "points": README_INSTANCE["points"], "x": [-0.5, -0.5, -0.5],
               "inject": [README_INSTANCE["points"]]}
LINES_INSTANCE = dict(README_INSTANCE, subspace={
    "lines": {"points": [[0, 0, 1], [1, 0, 0]],
              "directions": [[1, -1, 0], [0, 1, -1]]}})
TWO_POINT_SPACES = {
    "l2": L2,
    "esum": {"kind": "esum",
             "components": [{"kind": "lp", "p": "inf", "dim": 2},
                            {"kind": "lp", "p": 2, "dim": 1}],
             "e_norm": {"kind": "weighted_lp", "p": 2, "weights": [1.0, 1.5]}},
}
WEIGHTS = [1.0, 1.3, 0.8]
SCALARIZATIONS = {
    "weighted_sum": {"kind": "weighted_sum", "weights": WEIGHTS},
    "power_sum-p1": {"kind": "power_sum", "p": 1, "weights": WEIGHTS},
    "power_sum-p2": {"kind": "power_sum", "p": 2, "weights": WEIGHTS},
    "composite-weighted_max": {"kind": "composite", "power": 2, "scale": 0.5,
                               "inner": {"kind": "weighted_max", "weights": WEIGHTS}},
    "composite-weighted_sum": {"kind": "composite", "power": 1.5, "scale": 1,
                               "inner": {"kind": "weighted_sum", "weights": WEIGHTS}},
    "composite-power_sum-p2": {"kind": "composite", "power": 1.5, "scale": 1,
                               "inner": {"kind": "power_sum", "p": 2,
                                         "weights": WEIGHTS}},
}
# coordinate subspaces of the sup norm, each the range of a norm-one
# projection, so both properties pass: label -> (kind, instance, trials)
PASSING = {
    "central-linf5-plane": ("central", {
        "schema": 1, "space": {"kind": "lp", "p": "inf", "dim": 5},
        "subspace": {"ambient_dim": 5,
                     "basis": [[0, 0, -1, 0, 0], [1, 0, 0, 0, 0]]}}, "25"),
    "mideal-linf3-axis": ("mideal", {
        "schema": 1, "space": {"kind": "lp", "p": "inf", "dim": 3},
        "subspace": {"ambient_dim": 3, "basis": [[0, -1, 0]]}}, "20"),
}
# a polyhedral norm whose generators are not +-e_j, and the 1-norm, each on
# the line through (1, 1, 1): the right-hand side of their ball LPs' rows is
# not one +-1 entry per row, and each three-ball check fails
POLY_GENERATORS = [[1.0, 0.5, 0.0], [0.3, 1.0, -0.4], [0.2, -0.7, 1.0],
                   [1.0, 1.0, 1.0]]
GENERAL_ROWS = {
    "poly3-line": {"kind": "polyhedral", "generators": POLY_GENERATORS + [
        [-x for x in g] for g in POLY_GENERATORS]},
    "l13-line": {"kind": "lp", "p": 1, "dim": 3},
}
# the projection check of this instance would enumerate C(256, 4) row subsets
AC_PAST_CAP = {"schema": 1, "space": {"kind": "lp", "p": 1, "dim": 8},
               "subspace": {"ambient_dim": 8,
                            "basis": [[1, 0, 0, 0, 0, 0, 0, 0],
                                      [0, 1, 0, 0, 0, 0, 0, 0],
                                      [0, 0, 1, 0, 0, 0, 0, 0]]},
               "x": [0, 0, 0, 1, 1, 0, 0, 0]}
# planes of R^3 whose exact projection checks reject an image:
# label -> (space, kernel row, x)
EXACT_REJECT = {
    "linf3": ({"kind": "lp", "p": "inf", "dim": 3}, [0.126, -0.132, 0.64],
              [0.105, -0.536, 0.362]),
    "l13": ({"kind": "lp", "p": 1, "dim": 3}, [1.304, 0.947, -0.704],
            [-1.265, -0.623, 0.041]),
}
# a random plane of l1 in R^3: the rows of default_rng(4).normal(size=(2, 3))
L1_PLANE = {"schema": 1, "space": {"kind": "lp", "p": 1, "dim": 3},
            "subspace": {"basis": [[-0.652, -0.175, 1.664],
                                   [0.659, -1.641, -0.005]]}}
# kind -> (the instance fields it reads, its flags)
L2_KINDS = {"central": (("space", "subspace"), ["--trials", "3"]),
            "ac": (("space", "subspace", "points", "x"), []),
            "almost-constrained": (("space", "subspace", "x", "inject"), []),
            "mideal": (("space", "subspace"), ["--trials", "3"])}


def load_cli(src: Path):
    sys.path.insert(0, str(src))
    from centerlab import cli
    origin = Path(cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"centerlab imported from {origin}, not {src}")
    return cli


def digest(cli, label: str, args: list[str], fmt: str = "json") -> dict | None:
    """Run one command into `<label>.<fmt>` and print its digest; returns the
    parsed json report."""
    out = Path(f"{label}.{fmt}")
    code = cli.main(args + ["--format", fmt, "--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    report = None
    if fmt == "json" and text:
        report = json.loads(text)
        report.pop("wall_clock_s", None)
        text = json.dumps(report, indent=2) + "\n"
    body = f"exit {code}\n{text}".encode("utf-8")
    print(f"{label} {hashlib.sha256(body).hexdigest()}", flush=True)
    return report


def run_all(cli) -> None:
    for name in sorted(cli.SCENARIOS):
        for seed in SEEDS:
            digest(cli, f"repro-{name}-seed{seed}", ["repro", name, "--seed", seed])
    for kind in PROPERTY_KINDS:
        for seed in SEEDS:
            label = f"property-{kind}-seed{seed}"
            report = digest(cli, label, ["property", kind, "--seed", seed])
            if report and "counterexample" in report.get("verdicts", {}):
                digest(cli, f"replay-{label}", ["replay", f"{label}.json"])
    for label, (kind, instance, trials) in PASSING.items():
        Path(f"{label}.json").write_text(json.dumps(instance), encoding="utf-8")
        for seed in SEEDS:
            digest(cli, f"property-{label}-seed{seed}",
                   ["property", kind, f"{label}.json", "--seed", seed,
                    "--trials", trials])
    for name, space in GENERAL_ROWS.items():
        Path(f"{name}.json").write_text(json.dumps(
            {"schema": 1, "space": space, "subspace": {"basis": [[1, 1, 1]]}}),
            encoding="utf-8")
        for kind, trials in (("central", "25"), ("mideal", "20")):
            for seed in SEEDS:
                label = f"property-{kind}-{name}-seed{seed}"
                report = digest(cli, label, ["property", kind, f"{name}.json",
                                             "--seed", seed, "--trials", trials])
                if report and "counterexample" in report.get("verdicts", {}):
                    digest(cli, f"replay-{label}", ["replay", f"{label}.json"])
    Path("readme-instance.json").write_text(json.dumps(README_INSTANCE),
                                            encoding="utf-8")
    for fmt in ("json", "md"):
        digest(cli, f"center-readme-{fmt}", ["center", "readme-instance.json"], fmt)
    Path("l2-instance.json").write_text(json.dumps(dict(README_INSTANCE, space=L2)),
                                        encoding="utf-8")
    for kind, (fields, _) in L2_KINDS.items():
        Path(f"l2-{kind}.json").write_text(
            json.dumps({k: L2_PROPERTY[k] for k in fields}), encoding="utf-8")
    for seed in SEEDS:
        digest(cli, f"center-l2-seed{seed}",
               ["center", "l2-instance.json", "--seed", seed])
        for kind, (_, flags) in L2_KINDS.items():
            digest(cli, f"property-l2-{kind}-seed{seed}",
                   ["property", kind, f"l2-{kind}.json", "--seed", seed, *flags])
    for name, f in SCALARIZATIONS.items():
        for norm, space in (("linf", README_INSTANCE["space"]), ("l2", L2)):
            path = f"{norm}-{name}.json"
            Path(path).write_text(json.dumps(dict(README_INSTANCE, space=space, f=f)),
                                  encoding="utf-8")
            for seed in SEEDS:
                digest(cli, f"center-{norm}-{name}-seed{seed}",
                       ["center", path, "--seed", seed])
    for norm, space in (("linf", README_INSTANCE["space"]), ("l2", L2)):
        path = f"lines-{norm}.json"
        Path(path).write_text(json.dumps(dict(LINES_INSTANCE, space=space)),
                              encoding="utf-8")
        for seed in SEEDS:
            digest(cli, f"center-lines-{norm}-seed{seed}",
                   ["center", path, "--seed", seed])
    for norm, space in TWO_POINT_SPACES.items():
        path = f"two-point-{norm}.json"
        Path(path).write_text(json.dumps(dict(
            README_INSTANCE, space=space, subspace=None,
            points=README_INSTANCE["points"][:2])), encoding="utf-8")
        for seed in SEEDS:
            digest(cli, f"center-two-point-{norm}-seed{seed}",
                   ["center", path, "--seed", seed])
    Path("ac-past-cap.json").write_text(json.dumps(AC_PAST_CAP), encoding="utf-8")
    for seed in SEEDS:
        digest(cli, f"property-almost-constrained-l1-8-seed{seed}",
               ["property", "almost-constrained", "ac-past-cap.json", "--seed", seed])
    for name, (space, kernel, x) in EXACT_REJECT.items():
        path = f"reject-{name}.json"
        Path(path).write_text(json.dumps(
            {"schema": 1, "space": space, "subspace": {"kernel": [kernel]}, "x": x}),
            encoding="utf-8")
        for seed in SEEDS:
            digest(cli, f"property-almost-constrained-reject-{name}-seed{seed}",
                   ["property", "almost-constrained", path, "--seed", seed])
    Path("l13-plane.json").write_text(json.dumps(L1_PLANE), encoding="utf-8")
    for kind in ("central", "mideal"):
        for seed in SEEDS:
            label = f"property-{kind}-l13-plane-seed{seed}"
            report = digest(cli, label, ["property", kind, "l13-plane.json",
                                         "--seed", seed, "--trials", "200"])
            if report and "counterexample" in report.get("verdicts", {}):
                digest(cli, f"replay-{label}", ["replay", f"{label}.json"])


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    cli = load_cli(src)
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        # reports echo the file names they were given: relative names keep
        # the temporary directory out of them
        os.chdir(tmp)
        try:
            run_all(cli)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
