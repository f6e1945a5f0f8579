import json
import warnings

import numpy as np
import pytest

from centerlab import centers, cli, geometry, norms, optim
from centerlab.cli import (EXIT_ASSERT, EXIT_COMPUTE, EXIT_OK, EXIT_USAGE,
                           SCENARIOS, main)
from centerlab.errors import OptimizationError


README_INSTANCE = {
    "schema": 1,
    "space": {"kind": "lp", "p": "inf", "dim": 3},
    "subspace": {"basis": [[1, 0, -1], [0, 1, -1]]},
    "points": [[-2, 1, 1], [1, 1, -2], [1, -2, 1]],
    "f": {"kind": "max"},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else None


def test_list_scenarios(capsys):
    code, report = run_json(capsys, "repro", "--list")
    assert code == EXIT_OK
    names = report["verdicts"]["scenarios"]
    assert len(names) == 9
    assert "linf3-two-lines" in names and "c0-hyperplane-criteria" in names


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_passes(capsys, name):
    code, report = run_json(capsys, "repro", name)
    assert code == EXIT_OK
    assert report["ok"]
    assert report["config"]["seed"] == 0
    assert all(c["pass"] for c in report["checks"])
    for c in report["checks"]:
        assert "oracle" in c and "tol" in c


def test_three_ball_repro_lp_count(capsys, monkeypatch):
    solved = []
    real_solve = optim.lp_solve

    def counted(lp, **kwargs):
        solved.append(lp)
        return real_solve(lp, **kwargs)

    monkeypatch.setattr(optim, "lp_solve", counted)
    code, report = run_json(capsys, "repro", "three-ball-transfer", "--seed", "0")
    assert code == EXIT_OK and report["ok"]
    # Every LP is one `optim.lp_solve` call.  The passing check's 500
    # trials are all held by the projection of their joint point onto the
    # summand, and solve none; the failing check fails at its 4th trial,
    # and of its first 4 trials the 2 that their points do not settle are
    # solved, each alone; then the 3 audited distances of the failing
    # triple.
    assert len(solved) == 0 + 2 + 3


def test_reports_are_reproducible(capsys):
    code1, r1 = run_json(capsys, "repro", "linf3-two-lines", "--seed", "7")
    code2, r2 = run_json(capsys, "repro", "linf3-two-lines", "--seed", "7")
    assert code1 == code2 == EXIT_OK
    r1.pop("wall_clock_s")
    r2.pop("wall_clock_s")
    assert r1 == r2


def test_center_command(tmp_path, capsys):
    instance = {
        "schema": 1,
        "space": {"kind": "lp", "p": "inf", "dim": 3},
        "subspace": {"ambient_dim": 3, "basis": [[1, 0, -1], [0, 1, -1]]},
        "points": [[-2, 1, 1], [1, 1, -2], [1, -2, 1]],
        "f": {"kind": "max"},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    code, report = run_json(capsys, "center", str(path))
    assert code == EXIT_OK
    assert report["verdicts"]["rad"] == pytest.approx(2.0, abs=1e-9)
    assert report["verdicts"]["method"] == "lp"
    assert report["verdicts"]["rad_subgradient"] == pytest.approx(2.0, abs=1e-4)
    excesses = [m["excess"] for m in report["verdicts"]["modulus"]]
    assert all(excesses[i] >= excesses[i + 1] - 1e-9
               for i in range(len(excesses) - 1))


def test_center_writes_its_report_when_only_the_cross_check_fails(
        tmp_path, capsys, monkeypatch):
    # The exact answer and the modulus stand; the failed cross-check is a
    # failing check with a note, and the exit code stays 2.
    def broken(problem, basis):
        raise OptimizationError("barrier bracket did not close")

    monkeypatch.setattr(centers, "_barrier_center", broken)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(README_INSTANCE))
    out = tmp_path / "report.json"
    code = main(["center", str(path), "--out", str(out)])
    assert code == EXIT_COMPUTE
    report = json.loads(out.read_text())
    assert report["verdicts"]["rad"] == pytest.approx(2.0, abs=1e-9)
    assert "rad_subgradient" not in report["verdicts"]
    assert "bracket" not in report["verdicts"]
    assert report["verdicts"]["modulus"]
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == [
        "subgradient radius agrees with the exact route"]
    assert report["notes"] == ["subgradient cross-check failed: barrier "
                               "bracket did not close"]
    assert report["ok"] is False


def test_center_two_point_instance(tmp_path, capsys):
    instance = {
        "schema": 1,
        "space": {"kind": "lp", "p": 1, "dim": 2},
        "subspace": None,
        "points": [[0, 0], [3, 1]],
        "f": {"kind": "max"},
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps(instance))
    code, report = run_json(capsys, "center", str(path))
    assert code == EXIT_OK
    assert report["verdicts"]["rad"] == pytest.approx(2.0, abs=1e-9)


def test_center_reports_the_bracket_of_a_barrier_solve(tmp_path, capsys):
    # the non-LP route writes its certified bracket, and the LP route the
    # bracket of its cross-check, which holds the exact radius
    instance = {"schema": 1, "space": {"kind": "lp", "p": 2, "dim": 3},
                "subspace": None, "points": [[0, 0, 0], [3, 1, 0], [1, 2, 2]],
                "f": {"kind": "weighted_sum", "weights": [1.0, 0.5, 2.0]}}
    path = tmp_path / "l2.json"
    path.write_text(json.dumps(instance))
    code, report = run_json(capsys, "center", str(path))
    verdicts = report["verdicts"]
    assert code == EXIT_OK and verdicts["method"] == "subgradient"
    bracket = verdicts["bracket"]
    assert bracket["lower"] <= verdicts["rad"] == bracket["upper"]
    assert bracket["upper"] - bracket["lower"] <= 1e-12 * max(1.0, bracket["upper"])
    assert bracket["steps"] > 0
    instance["space"]["p"] = "inf"
    path.write_text(json.dumps(instance))
    code, report = run_json(capsys, "center", str(path))
    verdicts = report["verdicts"]
    assert code == EXIT_OK and verdicts["method"] == "lp"
    bracket = verdicts["bracket"]
    assert bracket["upper"] == verdicts["rad_subgradient"]
    assert bracket["upper"] - bracket["lower"] <= 1e-12 * max(1.0, bracket["upper"])
    assert abs(bracket["upper"] - verdicts["rad"]) <= 1e-12 * max(1.0, verdicts["rad"])
    assert bracket["steps"] > 0


def test_center_malformed_instance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["center", str(path)]) == EXIT_USAGE
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({"schema": 1, "space": {"kind": "lp"}}))
    assert main(["center", str(path2)]) == EXIT_USAGE
    nan_point = json.loads(json.dumps(README_INSTANCE))
    nan_point["points"][1][2] = float("nan")
    nan_weight = dict(README_INSTANCE,
                      f={"kind": "weighted_max", "weights": [1.0, float("nan"), 1.0]})
    seminorm = {"schema": 1,
                "space": {"kind": "polyhedral",
                          "generators": [[1, 0, 0], [-1, 0, 0],
                                         [0, 1, 0], [0, -1, 0]]},
                "subspace": None, "points": [[0, 0, 0], [2, 0, 5]],
                "f": {"kind": "max"}}
    bad_property = tmp_path / "prop.json"
    bad_property.write_text(json.dumps(
        {"space": {"kind": "lp", "p": "inf", "dim": 3}}))
    bad_replay = tmp_path / "replay.json"
    bad_replay.write_text(json.dumps(
        {"family": {"centers": [[0, 0, 0]], "radii": [1.0]}}))
    capsys.readouterr()
    for idx, inst in enumerate((nan_point, nan_weight, seminorm)):
        bad = tmp_path / f"bad{idx + 3}.json"
        bad.write_text(json.dumps(inst))
        assert main(["center", str(bad)]) == EXIT_USAGE
    assert main(["property", "central", str(bad_property)]) == EXIT_USAGE
    assert main(["replay", str(bad_replay)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(line.startswith("centerlab: ")
               for line in captured.err.splitlines())
    assert len(captured.err.splitlines()) == 5


def test_center_refuses_degenerate_lines(tmp_path, capsys):
    linf = {"kind": "lp", "p": "inf", "dim": 2}
    l2 = {"kind": "lp", "p": 2, "dim": 2}
    cases = [(linf, [[0, 0]], [[0, 0]]),
             (l2, [[0, 0]], [[1e-320, 0]]),
             (linf, [[float("nan"), 0]], [[1, 0]]),
             (l2, [[0, 0]], [[float("inf"), 1]]),
             (linf, [[[0, 1], [3, 2]]], [[[1, 0], [0, 1]]])]
    capsys.readouterr()
    for idx, (space, points, directions) in enumerate(cases):
        path = tmp_path / f"lines{idx}.json"
        path.write_text(json.dumps(
            {"schema": 1, "space": space,
             "subspace": {"lines": {"points": points, "directions": directions}},
             "points": [[0, 0], [2, 1]], "f": {"kind": "max"}}))
        assert main(["center", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("centerlab: malformed center instance")
        assert len(captured.err.splitlines()) == 1


LINES_INSTANCE = dict(README_INSTANCE, subspace={
    "lines": {"points": [[0, 0, 1], [1, 0, 0]],
              "directions": [[1, -1, 0], [0, 1, -1]]}})


def test_center_over_lines_cross_checks_the_exact_route(tmp_path, capsys):
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(LINES_INSTANCE))
    code, report = run_json(capsys, "center", str(path))
    assert code == EXIT_OK
    verdicts = report["verdicts"]
    assert verdicts["method"] == "lp+lines"
    assert verdicts["rad_subgradient"] == pytest.approx(verdicts["rad"], abs=1e-9)
    assert "subgradient radius agrees with the exact route" in \
        [c["name"] for c in report["checks"]]
    assert "modulus" not in verdicts
    assert sorted(report["config"]) == ["instance", "seed", "tol"]


# A restricted sup-norm question (a 3-dimensional subspace of l-inf in R^4,
# three points, weighted max) on which staged subgradient descent stopped
# 2.6e-4 above the exact radius 1.11192 and failed the cross-check.
SUP_NORM_QUESTION = {
    "schema": 1, "space": {"kind": "lp", "p": "inf", "dim": 4},
    "subspace": {"ambient_dim": 4, "basis": [
        [0.14390380290572577, 2.855718914874633, 1.1266627519399368, 1.1667018477905837],
        [0.25854069618193143, 1.0995466511273868, -0.021394471613905473, -1.1606914012476668],
        [0.662475680030359, 1.2600557743013692, -0.5250640050971424, 2.048703643919919]]},
    "points": [
        [0.9528012301005595, -1.1631171882377984, 1.5657989553457785, -0.8104306668136938],
        [1.8110462076099751, 0.26230581873681524, 1.8005209912323354, 0.4627161949123373],
        [-1.3446138244260135, 0.43253252993581226, -0.13873866460931739, -1.5566850138776616]],
    "f": {"kind": "weighted_max",
          "weights": [0.9313727479977575, 0.5573325708921483, 0.5398196595752789]}}


def test_center_cross_check_closes_on_a_restricted_sup_norm_question(
        tmp_path, capsys):
    path = tmp_path / "sup.json"
    path.write_text(json.dumps(SUP_NORM_QUESTION))
    code, report = run_json(capsys, "center", str(path))
    assert code == EXIT_OK and report["ok"]
    assert all(c["pass"] for c in report["checks"])
    verdicts = report["verdicts"]
    assert verdicts["method"] == "lp"
    assert abs(verdicts["rad_subgradient"] - verdicts["rad"]) <= \
        1e-12 * abs(verdicts["rad"])


COMPOSITE_WEIGHTS = [1.0, 1.3, 0.8]


def test_center_of_a_sup_norm_composite_measures_the_modulus_on_its_center_set(
        tmp_path, capsys):
    # A Composite is solved and probed on its inner scalarization, so under
    # the sup norm it takes the exact LP route and has a CentFace: its
    # modulus rows are the vertex-exact probe of the inner weighted max at
    # the level the wrapper maps to rad + delta.
    f = {"kind": "composite", "power": 2, "scale": 0.5,
         "inner": {"kind": "weighted_max", "weights": COMPOSITE_WEIGHTS}}
    path = tmp_path / "composite-max.json"
    path.write_text(json.dumps(dict(README_INSTANCE, f=f)))
    code, report = run_json(capsys, "center", str(path))
    assert code == EXIT_OK and report["ok"]
    verdicts = report["verdicts"]
    assert verdicts["method"] == "lp"
    assert abs(verdicts["rad_subgradient"] - verdicts["rad"]) <= \
        1e-12 * abs(verdicts["rad"])
    inner = centers.problem_from_json(dict(README_INSTANCE, f=f["inner"]))
    inner_result = centers.solve_center(inner)
    rows = verdicts["modulus"]
    assert [row["delta"] for row in rows] == [0.1, 0.01, 0.001]
    for row in rows:
        level = np.sqrt((verdicts["rad"] + row["delta"]) / 0.5)
        probe = centers.delta_center_probe(inner, level - inner_result.rad,
                                           result=inner_result)
        assert probe.mode == "vertex-exact"
        assert row["samples"] == probe.samples.shape[0] == 3
        assert abs(row["excess"] - probe.excess) <= 1e-12 * probe.excess
    f = {"kind": "composite", "power": 1.5, "scale": 1,
         "inner": {"kind": "weighted_sum", "weights": COMPOSITE_WEIGHTS}}
    path.write_text(json.dumps(dict(README_INSTANCE, f=f)))
    code, report = run_json(capsys, "center", str(path))
    assert code == EXIT_OK and report["ok"]
    assert report["verdicts"]["method"] == "lp"
    assert all(row["samples"] > 1 for row in report["verdicts"]["modulus"])


def test_center_over_lines_refuses_deltas(tmp_path, capsys):
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(LINES_INSTANCE))
    assert main(["center", str(path), "--deltas", "0.1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("centerlab: ")
    # over a subspace the modulus runs, on the deltas given or the default
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps(README_INSTANCE))
    _, report = run_json(capsys, "center", str(plane), "--deltas", "0.2")
    assert report["config"]["deltas"] == [0.2]
    assert [m["delta"] for m in report["verdicts"]["modulus"]] == [0.2]
    _, report = run_json(capsys, "center", str(plane))
    assert report["config"]["deltas"] == [0.1, 0.01, 0.001]


def test_property_instance_breaking_checker_preconditions(tmp_path, capsys):
    plane = {"space": {"kind": "lp", "p": "inf", "dim": 3},
             "subspace": {"basis": [[1, 0, -1], [0, 1, -1]]}}
    cases = [
        ("ac", dict(plane, points=[[1, 0, 0]], x=[0, 0, 1])),
        ("ac", dict(plane, points=[[1, 0, -1]], x=[0, 0])),
        ("ac", dict(plane, points=[[1, -1]], x=[0, 0, 1])),
        ("ac", dict(plane, subspace={"basis": [[1, 0], [0, 1]]},
                    points=[[1, -1]], x=[0, 0])),
        ("almost-constrained", dict(plane, x=[0, 0])),
        ("almost-constrained", dict(plane, x=[1, 0, -1])),
        ("almost-constrained", dict(plane, x=[0, 0, 1], inject=[[[1, 0]]])),
        ("central", dict(plane, inject=[{"centers": [[1, 0]],
                                         "radii": [1.0]}])),
        ("central", dict(plane, within={"basis": [[1, 0]]})),
    ]
    capsys.readouterr()
    for idx, (kind, inst) in enumerate(cases):
        path = tmp_path / f"prop{idx}.json"
        path.write_text(json.dumps(inst))
        assert main(["property", kind, str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == len(cases)
    assert all(line.startswith("centerlab: malformed property instance")
               for line in lines)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(dict(plane, points=[[1, 0, -1]], x=[0, 0, 1])))
    assert main(["property", "ac", str(good)]) == EXIT_OK


def test_ignored_flags_are_gone(capsys):
    assert main(["repro", "linf3-two-lines", "--tol", "5"]) == EXIT_USAGE
    assert main(["replay", "x", "--trials", "3"]) == EXIT_USAGE
    assert main(["center", "x", "--trials", "3"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_property_defaults(capsys):
    for kind, expect in (("central", False), ("mideal", False)):
        code, report = run_json(capsys, "property", kind, "--trials", "30")
        assert code == EXIT_OK
        assert report["verdicts"]["passed"] is expect
        # the default central instance fails on its injected family
        assert (kind == "mideal") <= report["verdicts"]["trials_run"] <= 30
    code, report = run_json(capsys, "property", "ac")
    assert code == EXIT_OK
    assert report["verdicts"]["passed"] is False
    assert report["verdicts"]["decided"] == "exact"
    assert "witness" not in report["verdicts"]
    code, report = run_json(capsys, "property", "almost-constrained")
    assert code == EXIT_OK
    assert report["verdicts"]["passed"] is False
    assert report["verdicts"]["decided"] == "exact"
    assert report["verdicts"]["trials_run"] == 1


def test_almost_constrained_past_the_vertex_enumeration_cap(tmp_path, capsys):
    # the projection check of this l1 instance cannot enumerate its vertices
    # (C(256, 4) row subsets) and samples instead of failing
    instance = {"space": {"kind": "lp", "p": 1, "dim": 8},
                "subspace": {"ambient_dim": 8, "basis": np.eye(8)[:3].tolist()},
                "x": [0, 0, 0, 1, 1, 0, 0, 0]}
    path, out = tmp_path / "ac.json", tmp_path / "report.json"
    path.write_text(json.dumps(instance))
    code = main(["property", "almost-constrained", str(path), "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["ok"]
    assert report["verdicts"]["passed"] is True
    assert report["verdicts"]["decided"] == "sampled"
    assert "sampled-fallback" in report["verdicts"]["note"]
    assert len(report["verdicts"]["witness"]) == 8


def test_property_instance_file_and_replay(tmp_path, capsys):
    instance = {
        "schema": 1,
        "space": {"kind": "lp", "p": "inf", "dim": 3},
        "subspace": {"ambient_dim": 3,
                     "basis": [[1, 0, -1], [0, 1, -1]]},
        "inject": [{"centers": [[-2, 1, 1], [1, 1, -2], [1, -2, 1]],
                    "radii": [1.5, 1.5, 1.5]}],
    }
    path = tmp_path / "central.json"
    path.write_text(json.dumps(instance))
    code, report = run_json(capsys, "property", "central", str(path))
    assert code == EXIT_OK
    assert report["verdicts"]["passed"] is False
    counter = tmp_path / "counter.json"
    counter.write_text(json.dumps(report["verdicts"]["counterexample"]))
    code, replay = run_json(capsys, "replay", str(counter))
    assert code == EXIT_OK
    assert replay["verdicts"]["status"] == "infeasible"
    assert replay["verdicts"]["certificate_ok"]
    assert replay["ok"]


def _property_then_replay(tmp_path, capsys, *argv):
    """The report of `property *argv`, written to a file, and the replay of
    that file: (property report, replay exit code, replay report)."""
    code, report = run_json(capsys, "property", *argv)
    assert code == EXIT_OK
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return (report, *run_json(capsys, "replay", str(path)))


def test_a_non_polyhedral_refutation_replays_as_unresolved(tmp_path, capsys):
    # under l1.1 the enlarged triple of trial 4 misses the axis with no
    # certificate: the record must expect the status the check saw
    path = tmp_path / "l11.json"
    path.write_text(json.dumps({"space": {"kind": "lp", "p": 1.1, "dim": 2},
                                "subspace": {"basis": [[1, 0]]}}))
    report, code, replay = _property_then_replay(
        tmp_path, capsys, "mideal", str(path), "--trials", "200", "--seed", "0")
    verdicts = report["verdicts"]
    assert verdicts["passed"] is False and verdicts["trials_run"] == 4
    assert verdicts["decided"] == "unresolved"
    assert verdicts["counterexample"]["expected_status"] == "unresolved"
    assert code == EXIT_OK and replay["ok"]
    assert replay["verdicts"] == {"status": "unresolved"}


@pytest.mark.parametrize("kind", sorted(cli.PROPERTY_FLAGS))
def test_every_refutation_replays_to_its_status(tmp_path, capsys, kind):
    # every default instance refutes; its record replays to the status the
    # check saw, and the same record with radii raised until the balls meet
    # in the subspace does not
    report, code, replay = _property_then_replay(tmp_path, capsys, kind)
    assert report["verdicts"]["passed"] is False
    record = report["verdicts"]["counterexample"]
    assert code == EXIT_OK and replay["ok"]
    assert replay["verdicts"]["status"] == record["expected_status"] == "infeasible"
    assert replay["verdicts"]["certificate_ok"]

    space = norms.norm_from_json(record["space"])
    sub = norms.subspace_from_json(record["subspace"])
    centers = np.array(record["family"]["centers"])
    radii = np.array(record["family"]["radii"])
    # one at a time, each ball grows to hold the first center, which lies in
    # the subspace; one ball is enough but for `almost-constrained`, whose
    # net of 8 balls holds the 3 injected ones, which miss the plane alone
    for j in range(1, len(radii)):
        radii[j] = max(radii[j], norms.eval_norm(space, centers[0] - centers[j]))
        family = geometry.BallFamily(centers, radii)
        if geometry.balls_intersect(space, family, sub).status == geometry.FEASIBLE:
            break
    assert j == 1 or kind == "almost-constrained"
    record["family"]["radii"] = radii.tolist()
    path = tmp_path / "raised.json"
    path.write_text(json.dumps({"counterexample": record}))
    code, replay = run_json(capsys, "replay", str(path))
    assert code == EXIT_ASSERT and not replay["ok"]
    assert replay["verdicts"] == {"status": "feasible"}


def test_dump_instance(capsys):
    code, out = run(capsys, "repro", "linf3-two-lines", "--dump-instance")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["instance"]["schema"] == 1
    assert data["instance"]["radii"] == [1.5, 1.5, 1.5]


def test_formats_render(tmp_path, capsys):
    out_md = tmp_path / "r.md"
    code = main(["repro", "c0-hyperplane-criteria", "--format", "md",
                 "--out", str(out_md)])
    assert code == EXIT_OK
    text = out_md.read_text()
    assert text.startswith("# repro report")
    assert "| check |" in text
    out_csv = tmp_path / "r.csv"
    code = main(["repro", "c0-hyperplane-criteria", "--format", "csv",
                 "--out", str(out_csv)])
    assert code == EXIT_OK
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "name,value,expected,tol,oracle,pass"
    assert len(lines) > 5


def test_usage_errors(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["repro", "no-such-scenario"]) == EXIT_USAGE
    assert main(["property", "bogus-kind"]) == EXIT_USAGE


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("CENTERLAB_SEED", "123")
    code, report = run_json(capsys, "repro", "min-sum-decomposition")
    assert code == EXIT_OK
    assert report["config"]["seed"] == 123


def test_parser_built_once_and_env_seed_read_per_run(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.delenv("CENTERLAB_SEED", raising=False)
    code, report = run_json(capsys, "repro", "min-sum-decomposition")
    assert report["config"]["seed"] == 0
    monkeypatch.setenv("CENTERLAB_SEED", "41")
    code, report = run_json(capsys, "repro", "min-sum-decomposition")
    assert report["config"]["seed"] == 41
    code, report = run_json(capsys, "repro", "min-sum-decomposition",
                            "--seed", "5")
    assert report["config"]["seed"] == 5
    monkeypatch.setenv("CENTERLAB_SEED", "4.5")
    assert main(["repro", "min-sum-decomposition"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "CENTERLAB_SEED" in captured.err


@pytest.mark.parametrize("seed", ["0", "7"])
def test_nested_ball_transfer_runs_its_projection_pair(capsys, seed):
    # The Z1 witness lies outside Z2, so the transfer goes through the
    # projection pair instead of the "done" shortcut.
    code, report = run_json(capsys, "repro", "nested-ball-transfer",
                            "--seed", seed)
    assert code == EXIT_OK
    assert report["verdicts"]["stage"] == "ok"


def test_center_with_large_weights_validates(tmp_path, capsys):
    instance = {
        "schema": 1,
        "space": {"kind": "lp", "p": "inf", "dim": 2},
        "subspace": None,
        "points": [[0, 0], [2, 0]],
        "f": {"kind": "weighted_max", "weights": [1e9, 1e9]},
    }
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(instance))
    code, report = run_json(capsys, "center", str(path))
    assert code == EXIT_OK
    assert report["verdicts"]["f_validation_ok"] is True
    assert report["verdicts"]["rad"] == pytest.approx(1e9, rel=1e-12)


def test_failing_scenario_exits_3(capsys, monkeypatch):
    def broken(seed):
        report = cli.new_report("repro", {"name": "broken", "seed": seed})
        report["checks"].append(cli.check("always false", 1.0, 2.0, tol=1e-9,
                                          oracle="identity"))
        return report

    monkeypatch.setitem(SCENARIOS, "broken", broken)
    code, report = run_json(capsys, "repro", "broken")
    assert code == EXIT_ASSERT
    assert not report["ok"]
    assert any("assertion failure" in n for n in report["notes"])


@pytest.mark.parametrize("argv, env", [
    (["property", "central", "--seed", "-1"], None),
    (["center", "INSTANCE", "--seed", "-1"], None),
    (["repro", "linf3-two-lines"], "-5"),
    (["property", "mideal", "--trials", "-2"], None),
    (["center", "INSTANCE", "--deltas", "nan"], None),
    (["center", "INSTANCE", "--deltas", "0.1", "-0.5"], None),
    (["center", "INSTANCE", "--deltas", "inf"], None),
    (["center", "INSTANCE", "--tol", "nan"], None),
    (["property", "mideal", "--tol", "inf"], None),
])
def test_numeric_flags_out_of_range_are_refused(tmp_path, capsys, monkeypatch,
                                                argv, env):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(README_INSTANCE))
    if env is not None:
        monkeypatch.setenv("CENTERLAB_SEED", env)
    code = main([str(path) if a == "INSTANCE" else a for a in argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("centerlab: ")


@pytest.mark.parametrize("power, scale", [(1e308, 1.0), (400.0, 1e300)])
def test_overflowing_composite_power_is_a_computational_failure(
        tmp_path, capsys, power, scale):
    instance = {"schema": 1, "space": {"kind": "lp", "p": "inf", "dim": 2},
                "subspace": None, "points": [[0, 0], [3, 1]],
                "f": {"kind": "composite", "inner": {"kind": "max"},
                      "power": power, "scale": scale}}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(instance))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["center", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_COMPUTE
    assert captured.out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "centerlab: computational failure: objective r_f is not finite: inf")


def test_deeply_nested_input_is_a_usage_error(tmp_path, capsys):
    brackets = tmp_path / "brackets.json"
    brackets.write_text("[" * 100_000)
    # written as text: json.dumps itself would hit the recursion limit
    depth = 990
    nested_f = ('{"kind": "composite", "power": 1, "scale": 1, "inner": ' * depth
                + '{"kind": "max"}' + "}" * depth)
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps(dict(README_INSTANCE, f="F")).replace('"F"', nested_f))
    capsys.readouterr()
    for argv in (["center", str(brackets)], ["center", str(nested)],
                 ["property", "central", str(brackets)], ["replay", str(brackets)]):
        assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 4 and all(line.startswith("centerlab: ") for line in lines)


HUGE_L2 = {"kind": "lp", "p": 2, "dim": 1e12}
PLANE = {"basis": [[1, 0, -1], [0, 1, -1]]}
FAMILY = {"centers": README_INSTANCE["points"], "radii": [1.5, 1.5, 1.5]}


# 1e12 coordinates would take 8 TB: a reader that allocates anything of the
# declared dimension before checking it fails at once, without using memory
@pytest.mark.parametrize("command, doc", [
    ("center", dict(README_INSTANCE, space=HUGE_L2)),
    ("property central", {"space": HUGE_L2, "subspace": PLANE,
                          "inject": [FAMILY]}),
    ("replay", {"counterexample": {"schema": 1, "kind": "central",
                                   "space": HUGE_L2, "subspace": PLANE,
                                   "family": FAMILY,
                                   "expected_status": "infeasible"}}),
])
def test_huge_declared_dimension_is_refused(tmp_path, capsys, command, doc):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code = main(command.split() + [str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("centerlab: ")


REPLAY_DOC = {"counterexample": {"schema": 1, "kind": "central",
                                 "space": {"kind": "lp", "p": "inf", "dim": 3},
                                 "subspace": PLANE, "family": FAMILY,
                                 "expected_status": "infeasible"}}


@pytest.mark.parametrize("expected", [float("nan"), "infeasable"])
def test_replay_refuses_an_unknown_expected_status(tmp_path, capsys, expected):
    doc = json.loads(json.dumps(REPLAY_DOC))
    doc["counterexample"]["expected_status"] = expected
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("centerlab: ")


@pytest.mark.parametrize("field, index, value", [
    ("radii", 1, float("nan")), ("centers", 0, [float("inf"), 0.0, 0.0])])
def test_replay_refuses_a_non_finite_ball(tmp_path, capsys, field, index, value):
    doc = json.loads(json.dumps(REPLAY_DOC))
    doc["counterexample"]["family"][field][index] = value
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("centerlab: malformed")


def test_replay_mismatch_exits_3(tmp_path, capsys):
    doc = json.loads(json.dumps(REPLAY_DOC))
    doc["counterexample"]["expected_status"] = "feasible"
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "replay", str(path))
    assert code == EXIT_ASSERT
    assert report["verdicts"]["status"] == "infeasible"
    assert not report["ok"]


@pytest.mark.parametrize("point, code", [([3.0, 0, 0, 0], EXIT_OK),
                                         ([3.8, 0, 0, 0], EXIT_ASSERT)])
def test_transfer_check_is_containment(capsys, monkeypatch, point, code):
    # balls of radius 1.5 about (2,0,0,0) and (4,0,0,0): (3,0,0,0) lies
    # strictly inside both, (3.8,0,0,0) outside the first
    data = cli.instances.transfer_scenario()
    data["family"] = geometry.BallFamily(data["family"].centers, [1.5, 1.5])
    monkeypatch.setattr(cli.instances, "transfer_scenario", lambda: data)
    monkeypatch.setattr(cli, "locally_constrained_transfer",
                        lambda *args: geometry.TransferResult(
                            True, "ok", np.array(point), {}))
    got, report = run_json(capsys, "repro", "nested-ball-transfer")
    assert got == code
    within = next(c for c in report["checks"]
                  if c["name"] == "output point within every radius")
    assert within["pass"] == (code == EXIT_OK)
    assert report["verdicts"]["slack"] == pytest.approx(
        -0.5 if code == EXIT_OK else 0.3, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["property", "ac", "--tol", "5"],
    ["property", "almost-constrained", "--trials", "3"],
    ["property", "central", "--tol", "5"],
])
def test_property_refuses_flags_its_kind_does_not_read(capsys, argv):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("centerlab: ")


def test_property_config_echoes_what_ran(capsys):
    code, out = run(capsys, "property", "mideal", "--trials", "1", "--tol", "0")
    assert code == EXIT_OK
    assert json.loads(out)["config"]["tol"] == 1e-6
    assert '"tol": 1e-06' in out
    code, report = run_json(capsys, "property", "mideal", "--trials", "1")
    assert report["config"]["tol"] == 1e-9
    code, report = run_json(capsys, "property", "ac")
    assert code == EXIT_OK
    assert sorted(report["config"]) == ["instance", "kind", "seed"]
