"""Fuzz the JSON wire format: mutated `center`, `property` and `replay`
files must end in a documented exit code, never in a traceback."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from centerlab.cli import main

LINF3 = {"kind": "lp", "p": "inf", "dim": 3}
PLANE = {"basis": [[1, 0, -1], [0, 1, -1]]}
FAMILY = {"centers": [[-2, 1, 1], [1, 1, -2], [1, -2, 1]],
          "radii": [1.5, 1.5, 1.5]}

CENTER = {"schema": 1, "space": {"kind": "lp", "p": "inf", "dim": 2},
          "subspace": {"basis": [[1, 1]]},
          "points": [[0, 0], [2, 1]], "f": {"kind": "weighted_max",
                                            "weights": [1.0, 2.0]}}
LINES_CENTER = dict(CENTER, subspace={"lines": {"points": [[0, 1], [3, 2]],
                                                "directions": [[1, 0], [1, 1]]}})
PROPERTY = {
    "central": {"space": LINF3, "subspace": PLANE, "inject": [FAMILY]},
    "ac": {"space": LINF3, "subspace": PLANE, "points": FAMILY["centers"],
           "x": [-0.5, -0.5, -0.5]},
    "almost-constrained": {"space": LINF3, "subspace": PLANE,
                           "x": [-0.5, -0.5, -0.5],
                           "inject": [FAMILY["centers"]]},
    "mideal": {"space": {"kind": "esum",
                         "components": [{"kind": "lp", "p": 1, "dim": 1},
                                        {"kind": "lp", "p": 1, "dim": 1}],
                         "e_norm": {"kind": "weighted_lp", "p": 1,
                                    "weights": [1.0, 1.0]}},
               "subspace": {"basis": [[1, 0]]}},
}
REPLAY = {"counterexample": {"schema": 1, "kind": "central", "space": LINF3,
                             "subspace": PLANE, "family": FAMILY,
                             "expected_status": "infeasible"}}

ODD_VALUES = [None, True, "x", "inf", 0, -1, 2.5, 1e308, -1e308,
              float("nan"), float("inf"), float("-inf"), [], {}, [[]],
              [[1.0]], [1e308, float("nan")], [{"kind": "lp"}],
              {"kind": "lp", "p": 2, "dim": 2}]


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, prefix + (i,))


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutate(data, doc):
    """One to three mutations: a dropped key or element, a retyped or odd
    value, a list in place of an object, a wrapped value, a shape change."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        op = data.draw(st.sampled_from(
            ["drop", "odd", "listify", "wrap", "grow", "scale"]))
        node = _get(doc, path)
        if op == "odd" or not path:
            new = copy.deepcopy(data.draw(st.sampled_from(ODD_VALUES)))
        elif op == "drop":
            del _get(doc, path[:-1])[path[-1]]
            continue
        elif op == "listify":
            new = list(node.values()) if isinstance(node, dict) else [node]
        elif op == "wrap":
            new = [node]
        elif op == "grow":
            new = node + node[:1] if isinstance(node, list) else {"kind": node}
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            new = node * data.draw(st.sampled_from([1e300, 1e12, -1.0, 0.0, 1e-300]))
        else:
            new = node
        if path:
            _get(doc, path[:-1])[path[-1]] = new
        else:
            doc = new
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(workdir, name, doc) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
# a lines file fails fast; 300 mutations reach a zero or non-finite line
LINES_FUZZ = settings(FUZZ, max_examples=300)


@pytest.mark.filterwarnings("ignore")
@FUZZ
@given(data=st.data())
def test_fuzzed_center_files(workdir, data):
    path = _write(workdir, "center.json", _mutate(data, CENTER))
    _run(["center", path, "--deltas", "0.1", "--out", str(workdir / "out")])


@pytest.mark.filterwarnings("ignore")
@LINES_FUZZ
@given(data=st.data())
def test_fuzzed_lines_center_files(workdir, data):
    path = _write(workdir, "lines.json", _mutate(data, LINES_CENTER))
    _run(["center", path, "--out", str(workdir / "out")])


@pytest.mark.filterwarnings("ignore")
@FUZZ
@given(data=st.data())
def test_fuzzed_property_files(workdir, data):
    kind = data.draw(st.sampled_from(sorted(PROPERTY)))
    path = _write(workdir, "property.json", _mutate(data, PROPERTY[kind]))
    # only central and mideal read --trials; the other kinds refuse it
    trials = ["--trials", "2"] if kind in ("central", "mideal") else []
    _run(["property", kind, path, *trials, "--out", str(workdir / "out")])


@pytest.mark.filterwarnings("ignore")
@FUZZ
@given(data=st.data())
def test_fuzzed_replay_files(workdir, data):
    doc = REPLAY if data.draw(st.booleans()) else {"verdicts": REPLAY}
    path = _write(workdir, "replay.json", _mutate(data, doc))
    _run(["replay", path, "--out", str(workdir / "out")])
