"""Built-in instances for the reproduction scenarios and property suites.

Everything here is embedded as plain data (JSON-ready dicts) with thin
builders that produce live objects, so any scenario can be dumped via the
CLI and replayed from the dump.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import centers, geometry, norms, sequences
from .centers import CenterProblem, FiniteSet, UnionOfLines, uniform_max
from .geometry import BallFamily, ProjectionData
from .norms import subspace_from_basis

HALF = Fraction(1, 2)

# the sup-norm counterexample on R^3: two constrained lines whose sum fails
# the ball-intersection property
LINF3 = {
    "schema": 1,
    "space": {"kind": "lp", "p": "inf", "dim": 3},
    "line1": [[1.0, 0.0, -1.0]],
    "line2": [[0.0, 1.0, -1.0]],
    "point": [-0.5, -0.5, -0.5],
    "centers": [[-2.0, 1.0, 1.0], [1.0, 1.0, -2.0], [1.0, -2.0, 1.0]],
    "radii": [1.5, 1.5, 1.5],
}


def linf3_scenario() -> dict:
    space = norms.norm_from_json(LINF3["space"])
    y1 = subspace_from_basis(3, LINF3["line1"])
    y2 = subspace_from_basis(3, LINF3["line2"])
    plane = norms.sum_subspaces(y1, y2)
    family = BallFamily(LINF3["centers"], LINF3["radii"])
    problem = CenterProblem(space, None, FiniteSet(LINF3["centers"]),
                            uniform_max(3))
    return {"space": space, "y1": y1, "y2": y2, "plane": plane,
            "x": np.array(LINF3["point"]), "family": family,
            "problem": problem}


# summable functionals with geometric tails: the hyperplane/constrainedness
# criteria instance
C0_SEQS = {
    "schema": 1,
    "f": {"prefix": [], "tail": {"first": "1/2", "ratio": "1/2",
                                 "pattern": ["-1", "1"]}},
    "f1": {"prefix": [], "tail": {"first": "1/2", "ratio": "1/2",
                                  "pattern": ["0", "1"]}},
    "f2": {"prefix": [], "tail": {"first": "1/2", "ratio": "1/2",
                                  "pattern": ["1", "0"]}},
}


def c0_scenario() -> dict:
    return {name: sequences.seq_from_json(data)
            for name, data in C0_SEQS.items() if name != "schema"}


def l1_lines_scenario(n: int = 50) -> dict:
    """Shifted-basis model in the 1-norm: a minimizing sequence with no
    cluster lives on the union of lines e_m + span{e_1}."""
    model = sequences.truncated_l1_lines(n)
    lines = UnionOfLines(model["line_points"], model["line_directions"])
    problem = CenterProblem(model["space"], lines,
                            FiniteSet(np.zeros((1, n))), uniform_max(1))
    basis_tail = [np.eye(n)[m - 1] for m in range(2, n + 1)]
    return {**model, "lines": lines, "problem": problem,
            "sequence": basis_tail}


# nested transfer in l-inf(4): Z2 = span{e1} inside Z1 = span{e1, e2}, Y =
# span{e1, e3}.  The two balls touch, so within Z1 they meet in the segment
# {3} x [-1, 1] and the projection lands on the touching point (3, 0, 0, 0)
# with no slack.  Z1 is spanned along the diagonals, so neither coordinate
# axis of the feasibility LP meets that segment: every vertex the simplex can
# return is an endpoint (3, +-1), outside Z2, and the projection pair always
# runs.
TRANSFER = {
    "schema": 1,
    "space": {"kind": "lp", "p": "inf", "dim": 4},
    "z1": [[1, 1, 0, 0], [0.5, -0.5, 0, 0]],
    "y": [[1, 0, 0, 0], [0, 0, 1, 0]],
    "z2": [[1, 0, 0, 0]],
    "projection": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
    "centers": [[2.0, 0, 0, 0], [4.0, 0, 0, 0]],
    "radii": [1.0, 1.0],
}


def transfer_scenario() -> dict:
    space = norms.norm_from_json(TRANSFER["space"])
    z1 = subspace_from_basis(4, TRANSFER["z1"])
    y = subspace_from_basis(4, TRANSFER["y"])
    z2 = subspace_from_basis(4, TRANSFER["z2"])
    p_matrix = np.array(TRANSFER["projection"], dtype=float)
    family = BallFamily(TRANSFER["centers"], TRANSFER["radii"])

    def factory(z):
        return geometry.locally_constrained_from_full_projection(
            p_matrix, z, z2, y)

    return {"space": space, "z1": z1, "y": y, "z2": z2,
            "p_matrix": p_matrix, "family": family, "factory": factory}


def composition_scenario(idx: int) -> tuple:
    """Deterministic direct-sum composition instance #idx: componentwise
    norm-1 projections sharing the image of one transversal vector."""
    rng = np.random.default_rng(1000 + idx)
    k = 2 + idx % 2
    comps = []
    pairs = []
    z0_parts = []
    e1 = subspace_from_basis(2, [[1.0, 0.0]])
    for i in range(k):
        comp = norms.linf(2) if (idx + i) % 2 == 0 else norms.l1(2)
        comps.append(comp)
        if (idx + i) % 3 < 2:
            z0i = np.array([rng.normal(),
                            float(rng.choice([-1, 1])) * rng.uniform(0.5, 1.5)])
            img = np.array([z0i[0], 0.0])
            pair = (ProjectionData(e1, z0i, img), ProjectionData(e1, z0i, img))
        else:
            z0i = np.array([0.0,
                            float(rng.choice([-1, 1])) * rng.uniform(0.5, 1.5)])
            zero_img = np.zeros(2)
            pair = (ProjectionData(norms.Subspace.zero(2), z0i, zero_img),
                    ProjectionData(e1, z0i, zero_img))
        pairs.append(pair)
        z0_parts.append(z0i)
    combiner_kind = idx % 3
    if combiner_kind == 0:
        pi = norms.max_combiner(k)
    elif combiner_kind == 1:
        pi = norms.sum_combiner(k)
    else:
        pi = norms.monotone_polyhedral(rng.uniform(0.2, 1.2, size=(3, k)))
    space = norms.make_direct_sum(comps, pi)
    return space, pairs, np.concatenate(z0_parts)


def esum_scenario(idx: int) -> tuple:
    """Deterministic monotone-sum dominator instance #idx: constrained line
    components inside 2-d pieces glued by a weighted norm."""
    rng = np.random.default_rng(2000 + idx)
    k = 2 + idx % 3
    comps = [norms.linf(2) if (idx + i) % 2 == 0 else norms.l1(2)
             for i in range(k)]
    kind = idx % 3
    if kind == 0:
        e_norm = norms.weighted_lp(1, rng.uniform(0.5, 2.0, size=k))
    elif kind == 1:
        e_norm = norms.weighted_lp(np.inf, rng.uniform(0.5, 2.0, size=k))
    else:
        e_norm = norms.monotone_polyhedral(rng.uniform(0.2, 1.5, size=(3, k)))
    space = norms.make_esum(comps, e_norm)
    y_components = [subspace_from_basis(2, [[1.0, 0.0]])] * k
    x = rng.normal(size=2 * k)
    n_refs = 2 + idx % 2
    a_points = np.zeros((n_refs, 2 * k))
    for r in range(n_refs):
        for c in range(k):
            a_points[r, 2 * c] = rng.normal()
    return space, y_components, x, a_points


def mideal_scenarios() -> dict:
    comps = [norms.l1(1), norms.l1(1)]
    return {
        "max_space": norms.make_direct_sum(comps, norms.max_combiner(2)),
        "sum_space": norms.make_direct_sum(comps, norms.sum_combiner(2)),
        "first_summand": subspace_from_basis(2, [[1.0, 0.0]]),
    }


def lift_scenario() -> dict:
    return {
        "base": norms.linf(2),
        "projection": np.diag([1.0, 0.0]),
        "z1": subspace_from_basis(2, [[0.0, 1.0]]),
        "k": 3,
    }


def decomposition_scenario() -> dict:
    data = linf3_scenario()
    return {"space": data["space"], "y": data["y1"], "z": data["y2"]}


# JSON dumps for --dump-instance
def scenario_dump(name: str) -> dict:
    dumps = {
        "c0-hyperplane-criteria": C0_SEQS,
        "linf3-two-lines": LINF3,
        "l1-shifted-basis": {"schema": 1, "model": "shifted-basis lines",
                             "dimension": 50},
        "nested-ball-transfer": TRANSFER,
        "sum-projection-composition": {"schema": 1, "generator": "composition_scenario",
                                       "indices": list(range(20))},
        "esum-dominator": {"schema": 1, "generator": "esum_scenario",
                           "indices": list(range(20))},
        "three-ball-transfer": {"schema": 1,
                                "spaces": ["R (+) R with max", "R (+) R with sum"],
                                "subspace": "first summand"},
        "sup-sum-lift": {"schema": 1, "base": {"kind": "lp", "p": "inf", "dim": 2},
                         "projection": [[1, 0], [0, 0]], "z1": [[0, 1]], "k": 3},
        "min-sum-decomposition": {"schema": 1, "space": LINF3["space"],
                                  "y": LINF3["line1"], "z": LINF3["line2"]},
    }
    if name not in dumps:
        raise KeyError(name)
    return dumps[name]
