"""Digests of centerlab's deterministic reports, one `label sha256` line each.

    python tools/report_digests.py [SRC]

Imports centerlab from SRC (default: the `src/` next to this directory) and
runs, in one process:

- every `repro` scenario at `--seed 0` and `--seed 7`;
- `property central|ac|almost-constrained|mideal` on the default instances
  at both seeds;
- `replay` of each of those property reports that carries a counterexample;
- `center` on the README instance, in json and md;
- under the Euclidean norm, where the subgradient route does the work, at
  both seeds: `center` on the README points and `property central
  --trials 3`, `property almost-constrained` and `property mideal --trials 3`
  on the README plane;
- `center` on the README points and plane under l-inf and l2, at both
  seeds, for each of SCALARIZATIONS: together they reach both LP row forms
  and the `combine` of every scalarization class;
- `center` on the README points over the union of two lines, through
  (0, 0, 1) along (1, -1, 0) and through (1, 0, 0) along (0, 1, -1), under
  l-inf and l2 at both seeds: the line loop of `solve_center` on both
  routes.

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
               "x": [-0.5, -0.5, -0.5], "inject": [README_INSTANCE["points"]]}
LINES_INSTANCE = dict(README_INSTANCE, subspace={
    "lines": {"points": [[0, 0, 1], [1, 0, 0]],
              "directions": [[1, -1, 0], [0, 1, -1]]}})
WEIGHTS = [1.0, 1.3, 0.8]
SCALARIZATIONS = {
    "weighted_sum": {"kind": "weighted_sum", "weights": WEIGHTS},
    "power_sum-p1": {"kind": "power_sum", "p": 1, "weights": WEIGHTS},
    "power_sum-p2": {"kind": "power_sum", "p": 2, "weights": WEIGHTS},
    "composite-weighted_max": {"kind": "composite", "power": 2, "scale": 0.5,
                               "inner": {"kind": "weighted_max", "weights": WEIGHTS}},
    "composite-weighted_sum": {"kind": "composite", "power": 1.5, "scale": 1,
                               "inner": {"kind": "weighted_sum", "weights": WEIGHTS}},
}
# kind -> (the instance fields it reads, its flags)
L2_KINDS = {"central": (("space", "subspace"), ["--trials", "3"]),
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
