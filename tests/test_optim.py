import collections
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from centerlab import centers, norms, optim
from centerlab.optim import (
    LpBuilder,
    enumerate_vertices,
    lp_solve,
    lp_solve_lex,
    verify_farkas,
    verify_optimal,
    verify_ray,
)

from oracles import (
    farkas_multipliers_by_stack,
    sublevel_rows_by_loop,
    tight_points_by_stack,
    vertices_by_loop,
)


def make_lp(objective, a_ub=None, b_ub=None) -> optim.LinearProgram:
    """The LP min objective @ u s.t. a_ub @ u <= b_ub from array-likes, with
    no rows when a_ub is None or empty."""
    c = np.asarray(objective, dtype=float).ravel()
    n = c.shape[0]
    if a_ub is None or len(a_ub) == 0:
        return optim._finite_lp(c, np.zeros((0, n)), np.zeros(0))
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    if a_ub.shape[0] != b_ub.shape[0]:
        raise ValueError("constraint matrix and rhs row counts differ")
    return optim._finite_lp(c, a_ub, b_ub)


def brute_force_lp_2var(c, a_ub, b_ub):
    """Independent oracle: optimal value of a bounded 2-variable LP by
    intersecting all constraint pairs and keeping feasible points."""
    best = None
    m = len(b_ub)
    for i, j in itertools.combinations(range(m), 2):
        mat = np.array([a_ub[i], a_ub[j]], dtype=float)
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        v = np.linalg.solve(mat, np.array([b_ub[i], b_ub[j]], dtype=float))
        if (a_ub @ v <= b_ub + 1e-7).all():
            val = float(c @ v)
            if best is None or val < best:
                best = val
    return best


def _eq_pairs(a_eq, b_eq):
    """The equality rows a_eq u = b_eq as <= rows, each written twice:
    a u <= b and -a u <= -b."""
    a_eq, b_eq = np.asarray(a_eq, dtype=float), np.asarray(b_eq, dtype=float)
    return np.vstack([a_eq, -a_eq]), np.concatenate([b_eq, -b_eq])


def test_min_u_geq_one():
    # min u s.t. -u <= -1
    lp = make_lp([1.0], a_ub=[[-1.0]], b_ub=[-1.0])
    out = lp_solve(lp)
    assert out.status == optim.OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-12)
    assert out.x[0] == pytest.approx(1.0, abs=1e-12)
    assert verify_optimal(lp, out)


def test_unbounded_with_ray():
    lp = make_lp([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
    out = lp_solve(lp)
    assert out.status == optim.UNBOUNDED
    ray = out.ray
    assert float(lp.objective @ ray) < 0
    assert (lp.a_ub @ ray <= 1e-9).all()


def test_infeasible_box_has_verified_certificate():
    # u <= 0 and u >= 1 cannot hold together.
    lp = make_lp([0.0], a_ub=[[1.0], [-1.0]], b_ub=[0.0, -1.0])
    out = lp_solve(lp)
    assert out.status == optim.INFEASIBLE
    assert verify_farkas(lp, out.farkas_ub)


def test_rows_without_unknowns_are_decided_directly():
    # An LP with rows and no unknowns has one point, the empty one: optimal
    # with zero duals when b >= 0, and otherwise infeasible with the unit
    # vector on the most negative row as its Farkas vector, each audited.
    lp = optim.LinearProgram(np.zeros(0), np.zeros((3, 0)), np.array([0.0, 2.0, -0.0]))
    out = lp_solve(lp)
    assert out.status == optim.OPTIMAL and out.value == 0.0
    assert out.x.shape == (0,) and not out.dual_ub.any() and out.dual_ub.shape == (3,)
    assert verify_optimal(lp, out)
    lp = optim.LinearProgram(np.zeros(0), np.zeros((3, 0)), np.array([1.0, -0.5, -2.0]))
    out = lp_solve(lp)
    assert out.status == optim.INFEASIBLE
    assert out.farkas_ub.tolist() == [0.0, 0.0, 1.0]
    assert verify_farkas(lp, out.farkas_ub)
    # a negative row within the audit's tolerance proves nothing
    lp = optim.LinearProgram(np.zeros(0), np.zeros((1, 0)), np.array([-1e-12]))
    assert lp_solve(lp).status == optim.BREAKDOWN


def test_equality_constraints():
    # min x+y s.t. x+y = 2, x <= 5, y <= 5
    a_eq, b_eq = _eq_pairs([[1.0, 1.0]], [2.0])
    lp = make_lp([1.0, 1.0], a_ub=np.vstack([[[1, 0], [0, 1]], a_eq]),
                 b_ub=[5, 5, *b_eq])
    out = lp_solve(lp)
    assert out.status == optim.OPTIMAL
    assert out.value == pytest.approx(2.0, abs=1e-9)
    assert verify_optimal(lp, out)


def test_infeasible_equalities_certificate():
    # x + y = 1 and x + y = 3
    lp = make_lp([0.0, 0.0], *_eq_pairs([[1.0, 1.0], [1.0, 1.0]], [1.0, 3.0]))
    out = lp_solve(lp)
    assert out.status == optim.INFEASIBLE
    assert verify_farkas(lp, out.farkas_ub)


def test_lp_entry_checks_refuse_bad_input():
    with pytest.raises(ValueError, match="non-finite"):
        make_lp([np.nan, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        make_lp([1.0, 0.0], a_ub=[[np.inf, 1.0]], b_ub=[1.0])
    with pytest.raises(ValueError, match="non-finite"):
        make_lp([1.0, 0.0], a_ub=[[1.0, 1.0]], b_ub=[-np.inf])
    with pytest.raises(ValueError, match="row counts differ"):
        make_lp([1.0, 0.0], a_ub=[[1.0, 0.0], [0.0, 1.0]], b_ub=[1.0])
    builder = LpBuilder()
    cols = builder.new_vars(2)
    builder.set_objective(cols, [1.0, np.nan])
    with pytest.raises(ValueError, match="non-finite"):
        builder.build()
    builder = LpBuilder()
    cols = builder.new_vars(2)
    builder.add_ub(cols, np.array([[1.0, 2.0]]), np.array([np.inf]))
    with pytest.raises(ValueError, match="non-finite"):
        builder.build()


def test_random_2var_lps_match_vertex_oracle():
    rng = np.random.default_rng(20240613)
    solved = 0
    for _ in range(60):
        m = int(rng.integers(4, 9))
        a = rng.normal(size=(m, 2))
        interior = rng.normal(size=2)
        b = a @ interior + rng.uniform(0.2, 2.0, size=m)
        # box to guarantee boundedness
        a = np.vstack([a, np.eye(2), -np.eye(2)])
        b = np.concatenate([b, np.full(4, 50.0)])
        c = rng.normal(size=2)
        lp = make_lp(c, a_ub=a, b_ub=b)
        out = lp_solve(lp)
        assert out.status == optim.OPTIMAL
        oracle = brute_force_lp_2var(c, a, b)
        assert oracle is not None
        assert out.value == pytest.approx(oracle, abs=1e-8)
        assert verify_optimal(lp, out)
        solved += 1
    assert solved == 60


def test_deterministic_bit_identical():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 3))
    b = rng.uniform(1, 2, size=6)
    c = rng.normal(size=3)
    a = np.vstack([a, np.eye(3), -np.eye(3)])
    b = np.concatenate([b, np.full(6, 10.0)])
    lp = make_lp(c, a_ub=a, b_ub=b)
    out1 = lp_solve(lp)
    out2 = lp_solve(lp)
    assert out1.status == out2.status == optim.OPTIMAL
    assert out1.value == out2.value
    assert np.array_equal(out1.x, out2.x)
    assert np.array_equal(out1.dual_ub, out2.dual_ub)


def test_optimal_point_satisfies_constraints():
    rng = np.random.default_rng(99)
    for _ in range(25):
        a = rng.normal(size=(8, 3))
        x0 = rng.normal(size=3)
        b = a @ x0 + rng.uniform(0.1, 1.0, size=8)
        a = np.vstack([a, np.eye(3), -np.eye(3)])
        b = np.concatenate([b, np.full(6, 30.0)])
        lp = make_lp(rng.normal(size=3), a_ub=a, b_ub=b)
        out = lp_solve(lp)
        assert out.status == optim.OPTIMAL
        assert verify_optimal(lp, out)


def test_lex_refinement_picks_smallest_vertex():
    # min 0 over the square [0,1]^2: every vertex optimal; lex pick is (0,0).
    a = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 1.0, 0.0, 0.0])
    lp = make_lp([0.0, 0.0], a_ub=a, b_ub=b)
    out = lp_solve_lex(lp)
    assert out.status == optim.OPTIMAL
    assert np.allclose(out.x, [0.0, 0.0], atol=1e-8)


def test_enumerate_vertices_square():
    a = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    verts = enumerate_vertices(a, b)
    assert verts.shape == (4, 2)
    expected = {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}
    got = {tuple(np.round(v, 9)) for v in verts}
    assert got == expected
    assert enumerate_vertices(a, b, cap=5) is None  # C(4, 2) = 6 subsets


def _same_vertices(got, want):
    """Both None, or arrays equal byte for byte."""
    if got is None or want is None:
        return got is None and want is None
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("a, b", [
    (np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)),
    # every row twice: the subsets of a row and its copy are singular
    (np.vstack([np.eye(2), -np.eye(2)] * 2), np.ones(8)),
    # a zero-dimensional u: the one empty subset is a vertex when b >= 0
    (np.zeros((3, 0)), np.ones(3)),
    (np.zeros((3, 0)), -np.ones(3))], ids=["square", "repeated", "d0", "d0-empty"])
def test_enumerate_vertices_matches_the_subset_loop(a, b):
    assert _same_vertices(enumerate_vertices(a, b), vertices_by_loop(a, b))


def test_enumerate_vertices_ignores_the_scale_of_the_unknowns():
    # the l-inf unit ball of span{1e10 e3, e1, e2}: every row subset is badly
    # scaled but well posed, and none may be skipped as singular
    gens = norms.explicit_generators(norms.linf(3))
    a = gens @ np.column_stack([1e10 * np.eye(3)[2], np.eye(3)[0], np.eye(3)[1]])
    b = np.ones(len(gens))
    want = vertices_by_loop(a, b)
    assert want.shape[0] > 0
    assert _same_vertices(enumerate_vertices(a, b), want)


def _sweep_polyhedral(rng, n):
    gens = rng.normal(size=(2, n))
    return norms.polyhedral(np.vstack([gens, -gens, np.eye(n), -np.eye(n)]),
                            symmetrize=False)


SWEEP_SPACES = {
    "linf": lambda rng, n: norms.linf(n),
    "l1": lambda rng, n: norms.l1(n),
    "polyhedral": _sweep_polyhedral,
    "max-sum": lambda rng, n: norms.make_direct_sum(
        [norms.l1(n - 1), norms.linf(1)], norms.max_combiner(2)),
    "sum-sum": lambda rng, n: norms.make_direct_sum(
        [norms.linf(n - 1), _sweep_polyhedral(rng, 1)], norms.sum_combiner(2)),
}


def _sweep_sublevel_sets(kind, seed, scaled):
    """Three weighted points in R^2 to R^4 over bases of 1 to n columns;
    `scaled` spreads the basis columns over 10^-8 to 10^10 and the weights
    over 10^-6 to 10^10.  The per-subset loop runs each set of at most
    12,000 row subsets, and on a larger one both sides refuse a cap below
    its count.  Scaled, the loop's absolute 1e-7 residual test may leave a
    set with no vertex; both sides must still agree."""
    rng = np.random.default_rng(seed)
    for n in (2, 3, 4):
        space = SWEEP_SPACES[kind](rng, n)
        gens = norms.explicit_generators(space, cap=3000)
        for k in range(1, n + 1):
            basis = rng.normal(size=(n, k))
            points = rng.normal(size=(3, n))
            if scaled:
                basis *= 10.0 ** rng.integers(-8, 11, size=k)
                weights = 10.0 ** rng.uniform(-6.0, 10.0, size=3)
            else:
                weights = rng.uniform(0.5, 2.0, size=3)
            level = 1.2 * float(np.max(weights * norms.eval_norm_many(
                space, basis @ rng.normal(size=k) - points)))
            a, b = sublevel_rows_by_loop(gens, basis, points, weights, level)
            count = math.comb(a.shape[0], k)
            if count > 12_000:
                assert enumerate_vertices(a, b, cap=count - 1) is None
                assert vertices_by_loop(a, b, cap=count - 1) is None
                continue
            want = vertices_by_loop(a, b, cap=400_000)
            assert scaled or want.shape[0] > 0
            assert _same_vertices(enumerate_vertices(a, b, cap=400_000), want)
            assert _same_vertices(norms.sublevel_vertices(
                space, basis, points, weights, level, 3000, 400_000), want)


@pytest.mark.parametrize("kind", sorted(SWEEP_SPACES))
def test_sublevel_vertices_match_the_subset_loop(kind):
    # the weighted-max sublevel sets of the delta-center probe
    _sweep_sublevel_sets(kind, sorted(SWEEP_SPACES).index(kind), scaled=False)


@pytest.mark.parametrize("kind", sorted(SWEEP_SPACES))
def test_sublevel_vertices_match_the_subset_loop_badly_scaled(kind):
    # well-posed vertex bases are kept whatever the scale of the basis
    # columns and of the weights
    _sweep_sublevel_sets(kind, 100 + sorted(SWEEP_SPACES).index(kind), scaled=True)


def test_subgradient_euclidean_norm_to_zero():
    # the answer is the best point evaluated: its value is the oracle's at
    # that point, bit for bit, and no value the oracle returned is lower
    values = []

    def oracle(v):
        nrm = float(np.linalg.norm(v))
        grad = v / nrm if nrm > 0 else np.zeros_like(v)
        values.append(nrm)
        return nrm, grad

    res = optim.staged_subgradient(oracle, np.array([3.0, -4.0]), scale=2.0)
    assert res.value < 1e-3
    assert min(values) == res.value
    assert oracle(res.point)[0] == res.value


def test_subgradient_two_point_midpoint():
    x1 = np.array([1.0, 0.0])
    x2 = np.array([-1.0, 0.0])

    def oracle(v):
        d1, d2 = np.linalg.norm(v - x1), np.linalg.norm(v - x2)
        if d1 >= d2:
            g = (v - x1) / d1 if d1 > 0 else np.zeros(2)
            return float(d1), g
        g = (v - x2) / d2 if d2 > 0 else np.zeros(2)
        return float(d2), g

    res = optim.staged_subgradient(oracle, np.array([0.7, 0.9]), scale=1.0)
    assert res.value == pytest.approx(1.0, abs=2e-3)


def test_subgradient_agrees_with_lp_on_polyhedral_instance():
    # minimize max(|v1|, |v2|, |v1+v2-2|): LP value via epigraph.
    rows = []
    rhs = []
    gens = np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]], float)
    offs = np.array([0, 0, 0, 0, -2, 2], float)
    for g, o in zip(gens, offs):
        rows.append([g[0], g[1], -1.0])
        rhs.append(-o)
    lp = make_lp([0.0, 0.0, 1.0], a_ub=rows, b_ub=rhs)
    out = lp_solve(lp)
    assert out.status == optim.OPTIMAL

    def oracle(v):
        vals = gens @ v + offs
        j = int(np.argmax(vals))
        return float(vals[j]), gens[j]

    res = optim.staged_subgradient(oracle, np.array([2.0, -3.0]), scale=4.0)
    assert res.value == pytest.approx(out.value, abs=1e-4)


def test_breakdown_not_reported_for_good_instances():
    # smoke: a batch of random feasible LPs never reports breakdown
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=(5, 2))
        b = a @ rng.normal(size=2) + rng.uniform(0.5, 1.5, size=5)
        a = np.vstack([a, np.eye(2), -np.eye(2)])
        b = np.concatenate([b, np.full(4, 20.0)])
        out = lp_solve(make_lp(rng.normal(size=2), a_ub=a, b_ub=b))
        assert out.status in (optim.OPTIMAL, optim.UNBOUNDED)
        assert out.status == optim.OPTIMAL


def test_lex_refinement_stops_visibly_on_unbounded_face():
    # min y s.t. y >= 0, x free: the optimal face {y = 0} is unbounded in x.
    lp = make_lp([0.0, 1.0], a_ub=[[0.0, -1.0]], b_ub=[0.0])
    out = lp_solve_lex(lp)
    assert out.status == optim.OPTIMAL
    assert out.message == \
        "lexicographic refinement stopped at coordinate 0: unbounded"
    assert verify_optimal(lp, out)
    # x in [1, 2] is refined to 1 before z, free on the face, stops it.
    lp = make_lp([0.0, 0.0, 1.0],
                 a_ub=[[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
                 b_ub=[-1.0, 2.0, 0.0])
    out = lp_solve_lex(lp)
    assert out.message == \
        "lexicographic refinement stopped at coordinate 1: unbounded"
    assert out.x[0] == pytest.approx(1.0, abs=1e-12)
    assert verify_optimal(lp, out)


def test_lex_refinement_keeps_last_audited_point(monkeypatch):
    # Fail every feasibility audit after phase 2's own: the first stage's
    # point is refused and the phase-2 optimum comes back, named as stopped.
    lp = make_lp([0.0, 0.0],
                 a_ub=[[-1, -1], [1, 0], [0, 1], [-1, 0], [0, -1]],
                 b_ub=[-1, 1, 1, 0, 0])
    plain = lp_solve(lp)
    audits = []
    real = optim._primal_feasible

    def audit(a_ub, b_ub, x):
        audits.append(x)
        return real(a_ub, b_ub, x) & (len(audits) == 1)

    monkeypatch.setattr(optim, "_primal_feasible", audit)
    out = lp_solve_lex(lp)
    assert out.status == optim.OPTIMAL
    assert out.message == ("lexicographic refinement stopped at coordinate 0: "
                           "failed the optimality audit")
    assert np.array_equal(out.x, plain.x)
    assert len(audits) == 2


def test_lex_refinement_counts_its_pivots():
    # Every point of {x + y >= 1} in the unit box is optimal; phase 2 stops
    # at (1, 0), so moving to the lexicographic minimum (0, 1) takes pivots
    # of its own, while value and duals stay those of phase 2.
    lp = make_lp([0.0, 0.0],
                 a_ub=[[-1, -1], [1, 0], [0, 1], [-1, 0], [0, -1]],
                 b_ub=[-1, 1, 1, 0, 0])
    plain = lp_solve(lp)
    out = lp_solve_lex(lp)
    assert np.array_equal(plain.x, [1.0, 0.0])
    assert out.message == "lexicographic refinement"
    assert np.array_equal(out.x, [0.0, 1.0])
    assert out.value == plain.value
    assert np.array_equal(out.dual_ub, plain.dual_ub)
    assert out.iterations > plain.iterations


def _lex_by_resolving(lp, refine, slack=0.0):
    """Reference lexicographic refinement: a fresh two-phase solve per
    coordinate, each bounded by cut rows at the optima found before it.

    The solver once refined this way with slack = FEAS_TOL on every cut,
    which lets the point drift by slack over the slope of the objective
    (1e-6 on these instances); with no slack the cuts pin the same face."""
    base = lp_solve(lp)
    x = base.x
    cut_a = np.vstack([lp.a_ub, lp.objective])
    cut_b = np.append(lp.b_ub, base.value + slack * max(1.0, abs(base.value)))
    for idx in refine:
        c = np.zeros(lp.n_vars)
        c[idx] = 1.0
        out = lp_solve(optim.LinearProgram(c, cut_a, cut_b))
        if out.status != optim.OPTIMAL:
            break
        x = out.x
        cut_a = np.vstack([cut_a, c])
        cut_b = np.append(cut_b, out.value + slack * max(1.0, abs(out.value)))
    return base, x


def _random_lp_center(rng, i):
    dim = 2 + i % 3
    kind = ("linf", "l1", "poly", "dsum")[i % 4]

    def leaf(d, name):
        if name == "linf":
            return norms.linf(d)
        if name == "l1":
            return norms.l1(d)
        gens = np.vstack([np.eye(d), rng.normal(size=(2 + d, d))])
        return norms.polyhedral(np.vstack([gens, -gens]))

    if kind == "dsum":
        a = 1 + int(rng.integers(dim - 1))
        comb = norms.max_combiner(2) if i % 8 == 3 else norms.sum_combiner(2)
        space = norms.make_direct_sum([leaf(a, "poly"), leaf(dim - a, "linf")],
                                      comb)
    else:
        space = leaf(dim, kind)
    sub = None
    if (i // 5) % 2:
        sub = norms.subspace_from_basis(
            dim, rng.normal(size=(1 + int(rng.integers(dim - 1)), dim)))
    n_points = 2 + int(rng.integers(3))
    weights = rng.uniform(0.5, 2.0, size=n_points)
    f = (centers.WeightedMax(weights), centers.WeightedSum(weights),
         centers.uniform_max(n_points))[i % 3]
    pts = rng.integers(-3, 4, size=(n_points, dim)).astype(float)
    return centers.CenterProblem(space, sub, centers.FiniteSet(pts), f)


def test_lex_refinement_matches_resolving_reference(monkeypatch):
    solved = []
    real = optim.lp_solve_lex

    def capture(lp, refine=None):
        out = real(lp, refine=refine)
        solved.append((lp, list(refine), out))
        return out

    monkeypatch.setattr(optim, "lp_solve_lex", capture)
    rng = np.random.default_rng(4)
    for i in range(48):
        problem = _random_lp_center(rng, i)
        res = centers.solve_center(problem)
        lp, refine, out = solved[-1]
        assert out.message == "lexicographic refinement"
        base, x_ref = _lex_by_resolving(lp, refine)
        assert out.value == base.value
        assert np.abs(out.x[refine] - x_ref[refine]).max() <= 1e-7
        basis = (np.eye(problem.points.dim) if problem.feasible is None
                 else np.array(problem.feasible.basis))
        assert np.abs(res.minimizer - basis @ x_ref[refine]).max() <= 1e-7


def test_lex_minimizer_attains_radius_on_readme_instance():
    problem = centers.problem_from_json({
        "schema": 1, "space": {"kind": "lp", "p": "inf", "dim": 3},
        "subspace": {"basis": [[1, 0, -1], [0, 1, -1]]},
        "points": [[-2, 1, 1], [1, 1, -2], [1, -2, 1]], "f": {"kind": "max"}})
    res = centers.solve_center(problem)
    check = centers.eval_rf(problem.space, res.minimizer, problem.points,
                            problem.f)
    assert abs(check - res.rad) <= 1e-12
    assert np.abs(res.minimizer).max() <= 1e-12


def _random_lp(rng, kind):
    """A seeded LP of the given kind for the HiGHS comparison."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(n, 2 * n + 3))
    a = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    b = a @ x0 + rng.uniform(0.1, 1.0, size=m)
    a_eq = b_eq = None
    c = rng.normal(size=n)
    if kind == "degenerate":
        # several rows tight at x0, repeated rows, an objective parallel to
        # a constraint, and an equality through x0
        b[: n + 1] = a[: n + 1] @ x0
        a = np.vstack([a, a[:2]])
        b = np.concatenate([b, b[:2]])
        c = -a[0].copy()
        a_eq = rng.integers(-2, 3, size=(1, n)).astype(float)
        b_eq = a_eq @ x0
    elif kind == "infeasible":
        row = rng.normal(size=n)
        a = np.vstack([a, row, -row])
        b = np.concatenate([b, [1.0, -1.5]])
    elif kind == "infeasible-eq":
        a_eq = rng.normal(size=(2, n))
        a_eq = np.vstack([a_eq, a_eq[0] + a_eq[1]])
        b_eq = np.array([1.0, 1.0, 2.5])
    elif kind == "unbounded":
        # only rows that the direction d never worsens, and c improves along d
        d = rng.normal(size=n)
        keep = a @ d <= 0
        a, b = a[keep], np.abs(b[keep]) + 0.1
        c = -d + 0.01 * rng.normal(size=n)
        return make_lp(c, a_ub=a, b_ub=b), n
    a = np.vstack([a, np.eye(n), -np.eye(n)])
    b = np.concatenate([b, np.full(2 * n, 10.0 + np.abs(x0).max())])
    if a_eq is not None:
        a_eq, b_eq = _eq_pairs(a_eq, b_eq)
        a, b = np.vstack([a, a_eq]), np.concatenate([b, b_eq])
    return make_lp(c, a_ub=a, b_ub=b), n


def test_lp_solve_agrees_with_highs():
    pytest.importorskip("scipy")
    from scipy.optimize import linprog

    status_of = {0: optim.OPTIMAL, 2: optim.INFEASIBLE, 3: optim.UNBOUNDED}
    rng = np.random.default_rng(2024)
    seen = set()
    kinds = ("bounded", "degenerate", "infeasible", "infeasible-eq",
             "unbounded")
    for trial in range(150):
        kind = kinds[trial % len(kinds)]
        lp, n = _random_lp(rng, kind)
        ref = linprog(
            lp.objective,
            A_ub=lp.a_ub if lp.a_ub.shape[0] else None,
            b_ub=lp.b_ub if lp.a_ub.shape[0] else None,
            bounds=[(None, None)] * n, method="highs")
        want = status_of[ref.status]
        seen.add(want)
        for out in (lp_solve(lp), lp_solve_lex(lp)):
            assert out.status == want, (trial, kind)
            if want == optim.OPTIMAL:
                tol = 1e-7 * max(1.0, abs(ref.fun))
                assert abs(out.value - ref.fun) <= tol
                assert abs(float(lp.objective @ out.x) - ref.fun) <= tol
                assert verify_optimal(lp, out)
            elif want == optim.INFEASIBLE:
                assert verify_farkas(lp, out.farkas_ub)
            else:
                assert float(lp.objective @ out.ray) < 0
                assert (lp.a_ub @ out.ray <= 1e-9).all()
                assert verify_ray(lp, out.ray)
    assert seen == {optim.OPTIMAL, optim.INFEASIBLE, optim.UNBOUNDED}


def test_read_out_matches_the_stacked_reference(monkeypatch):
    # The read-out of one tableau does the float operations of the stacked
    # read-out (`oracles.tight_points_by_stack` and
    # `farkas_multipliers_by_stack` on a stack of one), byte for byte, on
    # every tableau read out after phase 2 and on every tableau of a
    # lexicographic stage.
    real_read, real_point = optim._read_outcome, optim._tight_point
    seen = collections.Counter()

    def stacked(dual):
        return dual.t[None], dual.basis[None], dual.costs[None], dual.scale[None]

    def point(dual):
        got = real_point(dual)
        want = tight_points_by_stack(dual, *stacked(dual))[0]
        assert got.tobytes() == want.tobytes()
        seen["point"] += 1
        return got

    def read(lp, dual, status, pivots, enter):
        seen[status] += 1
        if status == optim.UNBOUNDED:
            t, basis, _, scale = stacked(dual)
            want = farkas_multipliers_by_stack(dual, t, basis, np.array([enter]),
                                               scale)[0]
            assert optim._farkas_vector(dual, enter).tobytes() == want.tobytes()
        return real_read(lp, dual, status, pivots, enter)

    monkeypatch.setattr(optim, "_tight_point", point)
    monkeypatch.setattr(optim, "_read_outcome", read)
    rng = np.random.default_rng(40)
    kinds = ("bounded", "degenerate", "infeasible", "infeasible-eq",
             "unbounded")
    for trial in range(100):
        lp, _ = _random_lp(rng, kinds[trial % len(kinds)])
        lp_solve(lp)
        lp_solve_lex(lp)
    for i in range(16):
        centers.solve_center(_random_lp_center(rng, i), method="lp")
    read_outs = sum(seen[s] for s in (optim.OPTIMAL, optim.UNBOUNDED))
    # an LP with rows and no unknowns is decided without a tableau
    empty = optim.LinearProgram(np.zeros(0), np.zeros((2, 0)), np.array([1.0, -1.0]))
    assert lp_solve(empty).status == optim.INFEASIBLE
    assert sum(seen[s] for s in (optim.OPTIMAL, optim.UNBOUNDED)) == read_outs
    assert seen[optim.OPTIMAL] and seen[optim.UNBOUNDED]
    assert seen["point"] > seen[optim.OPTIMAL]  # lexicographic stages too


def _highs(lp):
    """(status, value) of the LP by HiGHS."""
    from scipy.optimize import linprog

    ref = linprog(
        lp.objective,
        A_ub=lp.a_ub if lp.a_ub.shape[0] else None,
        b_ub=lp.b_ub if lp.a_ub.shape[0] else None,
        bounds=[(None, None)] * lp.n_vars, method="highs")
    status = {0: optim.OPTIMAL, 2: optim.INFEASIBLE, 3: optim.UNBOUNDED}
    return status[ref.status], ref.fun


def _near_parallel_lp(rng, trial):
    """Clusters of rows whose normals differ by 1e-6 to 1e-10, over a box;
    every third LP adds the cluster again, reversed and shifted, which
    leaves it empty."""
    n = int(rng.integers(2, 5))
    spread = 10.0 ** -float(rng.choice([6, 8, 10]))
    rows, rhs = [], []
    for _ in range(int(rng.integers(1, 4))):
        base = rng.normal(size=n)
        size = (int(rng.integers(4, 12)), n)
        cluster = base + spread * rng.normal(size=size)
        cluster /= np.linalg.norm(cluster, axis=1, keepdims=True)
        level = 1.0 + spread * rng.normal(size=cluster.shape[0])
        rows.append(cluster)
        rhs.append(level)
        if trial % 3 == 2:
            rows.append(-cluster)
            rhs.append(-level - 0.5)
    a = np.vstack(rows + [np.eye(n), -np.eye(n)])
    b = np.concatenate(rhs + [np.full(2 * n, 10.0)])
    return make_lp(rng.normal(size=n), a_ub=a, b_ub=b)


def _heavy_epigraph_lp(rng, trial):
    """min s over x in R^d with rows +-(x - p_i) <= t_i and w t_i <= s, the
    rows with b = 0 carrying the weight w = 1e9 (integer points keep the
    optimum representable); every third LP adds s <= -w / 2, which leaves
    it empty."""
    d = int(rng.integers(1, 4))
    k = int(rng.integers(2, 5))
    points = rng.integers(-3, 4, size=(k, d)).astype(float)
    w = 1e9
    n = d + k + 1
    rows, rhs = [], []
    for i, p in enumerate(points):
        for sign in (1.0, -1.0):
            block = np.zeros((d, n))
            block[:, :d] = sign * np.eye(d)
            block[:, d + i] = -1.0
            rows.append(block)
            rhs.append(sign * p)
        row = np.zeros((1, n))
        row[0, d + i] = w
        row[0, -1] = -1.0
        rows.append(row)
        rhs.append([0.0])
    if trial % 3 == 2:
        row = np.zeros((1, n))
        row[0, -1] = 1.0
        rows.append(row)
        rhs.append([-w / 2])
    c = np.zeros(n)
    c[-1] = 1.0
    return make_lp(c, a_ub=np.vstack(rows), b_ub=np.concatenate(rhs))


@pytest.mark.parametrize("family", [_near_parallel_lp, _heavy_epigraph_lp])
def test_lp_solve_agrees_with_highs_on_ill_conditioned_rows(family):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(15)
    seen = set()
    for trial in range(60):
        lp = family(rng, trial)
        want, fun = _highs(lp)
        seen.add(want)
        out = lp_solve(lp)
        assert out.status == want, trial
        if want == optim.OPTIMAL:
            assert abs(out.value - fun) <= 1e-7 * max(1.0, abs(fun)), trial
            assert verify_optimal(lp, out)
        else:
            assert verify_farkas(lp, out.farkas_ub)
    assert seen == {optim.OPTIMAL, optim.INFEASIBLE}


def _degenerate_vertex_lp(rng):
    """20 to 40 rows with entries in {-1, 0, 1} in R^3..R^5, all tight at one
    integer vertex, and c = -lam @ a_ub for random lam >= 0 on fewer rows
    than variables: the vertex is optimal, and many of the bases that hold
    it have duals at zero."""
    n, m = int(rng.integers(3, 6)), int(rng.integers(20, 41))
    a = rng.integers(-1, 2, size=(m, n)).astype(float)
    b = a @ rng.integers(-2, 3, size=n).astype(float)
    lam = np.zeros(m)
    support = rng.choice(m, size=int(rng.integers(1, n)), replace=False)
    lam[support] = rng.uniform(0.5, 2.0, size=support.size)
    return make_lp(-(lam @ a), a_ub=a, b_ub=b)


def test_degenerate_pivots_fall_back_to_blands_rule(monkeypatch):
    # With a degenerate run of 2, pricing falls back to Bland's rule on some
    # of these LPs: their entering columns differ from pure Dantzig
    # pricing's.  Either way the optimum is HiGHS's.
    pytest.importorskip("scipy")
    real_pivot = optim._pivot
    entering = []

    def spy(t, row, col):
        entering.append(col)
        real_pivot(t, row, col)

    monkeypatch.setattr(optim, "_pivot", spy)

    def solve(lp, run):
        monkeypatch.setattr(optim, "_DEGENERATE_RUN", run)
        entering.clear()
        return lp_solve(lp), list(entering)

    rng = np.random.default_rng(0)
    fell_back = 0
    for trial in range(20):
        lp = _degenerate_vertex_lp(rng)
        want, fun = _highs(lp)
        assert want == optim.OPTIMAL
        out, with_fallback = solve(lp, 2)
        _, dantzig_only = solve(lp, 10 ** 9)
        fell_back += with_fallback != dantzig_only
        assert out.status == optim.OPTIMAL, trial
        assert abs(out.value - fun) <= 1e-9 * max(1.0, abs(fun)), trial
    assert fell_back


def test_crash_pivots_only_zero_level_artificials_of_a_phase_1(monkeypatch):
    # min u_0 over the box |u_i| <= 1 in R^3: the rows of u_1 and u_2 have
    # c_i = 0, and their artificials are crashed out before phase 1; with
    # c = 0 there is no phase 1, no crash and not a single pivot.
    real_crash = optim._crash
    crashed = []

    def spy(t, basis, n_struct):
        crashed.append(real_crash(t, basis, n_struct))
        return crashed[-1]

    monkeypatch.setattr(optim, "_crash", spy)
    box = np.vstack([np.eye(3), -np.eye(3)])
    out = lp_solve(make_lp([1.0, 0.0, 0.0], a_ub=box, b_ub=np.ones(6)))
    assert out.status == optim.OPTIMAL and out.value == -1.0
    assert crashed == [2] and out.iterations >= 2
    crashed.clear()
    out = lp_solve(make_lp(np.zeros(3), a_ub=box, b_ub=np.ones(6)))
    assert out.status == optim.OPTIMAL and out.iterations == 0
    assert crashed == []


POLYGON_SWEEP =[((2, 16), 20), ((2, 64), 20), ((3, 32), 20), ((3, 64), 10),
                 ((2, 128), 6), ((4, 64), 6), ((2, 256), 6)]


def test_polygon_norm_centers_agree_with_highs(monkeypatch):
    """Centers under symmetric polygon norms with many near-parallel
    generators: k normalized Gaussian generators and their negations, three
    points uniform in [-2, 2]^dim, weighted max on even trials and weighted
    sum on odd ones.  The simplex once broke down on 15 of the first 82."""
    pytest.importorskip("scipy")
    solved = []
    real = optim.lp_solve_lex

    def capture(lp, refine=None):
        solved.append(lp)
        return real(lp, refine=refine)

    monkeypatch.setattr(optim, "lp_solve_lex", capture)
    rng = np.random.default_rng(0)
    for (dim, k), trials in POLYGON_SWEEP:
        for trial in range(trials):
            gens = rng.normal(size=(k, dim))
            gens /= np.linalg.norm(gens, axis=1, keepdims=True)
            space = norms.polyhedral(np.vstack([gens, -gens]))
            points = centers.FiniteSet(rng.uniform(-2, 2, size=(3, dim)))
            f = (centers.WeightedMax if trial % 2 == 0
                 else centers.WeightedSum)([1.0, 1.0, 1.0])
            res = centers.solve_center(
                centers.CenterProblem(space, None, points, f), method="lp")
            want, fun = _highs(solved[-1])
            assert want == optim.OPTIMAL
            assert abs(res.rad - fun) <= 1e-9, (dim, k, trial)


def test_verify_ray_accepts_solver_ray_and_rejects_corrupted_ones():
    # min -x - y s.t. x - y <= 1, -x <= 0, x + y - 2z = 0: improves along
    # (1, 1, 1) forever.
    a_eq, b_eq = _eq_pairs([[1.0, 1.0, -2.0]], [0.0])
    lp = make_lp([-1.0, -1.0, 0.0],
                 a_ub=np.vstack([[[1.0, -1.0, 0.0], [-1.0, 0.0, 0.0]], a_eq]),
                 b_ub=[1.0, 0.0, *b_eq])
    out = lp_solve(lp)
    assert out.status == optim.UNBOUNDED
    assert verify_ray(lp, out.ray)
    assert verify_ray(lp, 1e6 * out.ray)
    assert not verify_ray(lp, -out.ray)                  # worsens the objective
    assert not verify_ray(lp, np.array([1.0, 0.0, 0.5]))   # leaves a <= row
    assert not verify_ray(lp, np.array([1.0, 1.0, 0.0]))   # breaks the equality
    assert not verify_ray(lp, np.zeros(3))
    assert not verify_ray(lp, np.array([np.nan, 1.0, 1.0]))


def test_optimal_and_farkas_audits_reject_corrupted_certificates():
    # min -x - 2y s.t. x <= 1, y <= 1, x + y <= 1.5, x, y >= 0: optimal at
    # (0.5, 1), where y <= 1 and x + y <= 1.5 are tight with dual 1 each.
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    lp = make_lp([-1.0, -2.0], a_ub=a, b_ub=[1.0, 1.0, 1.5, 0.0, 0.0])
    out = lp_solve(lp)
    assert out.status == optim.OPTIMAL
    assert verify_optimal(lp, out)
    tight = int(out.dual_ub.argmax())
    assert out.dual_ub[tight] > 0.5
    negative = out.dual_ub.copy()
    negative[tight] = -1e-3
    with_nan = out.x.copy()
    with_nan[0] = np.nan
    for bad in (replace(out, x=out.x + 1e-3 * a[tight]),         # leaves a row
                replace(out, dual_ub=negative),                   # dual sign
                replace(out, dual_ub=2.0 * out.dual_ub),          # stationarity
                replace(out, value=out.value + 1e-3),             # duality gap
                replace(out, x=with_nan, value=float(lp.objective @ with_nan))):
        assert not verify_optimal(lp, bad)
    # x + y <= 1 and x, y >= 1 cannot hold together
    lp = make_lp([0.0, 0.0], a_ub=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                 b_ub=[1.0, -1.0, -1.0])
    out = lp_solve(lp)
    assert out.status == optim.INFEASIBLE
    lam = out.farkas_ub
    assert verify_farkas(lp, lam)
    assert (lam > 0).all()
    negative, zeroed = lam.copy(), lam.copy()
    negative[0], zeroed[1] = -lam[0], 0.0
    assert not verify_farkas(lp, negative)                  # a negative entry
    assert not verify_farkas(lp, zeroed)                    # lam A != 0
    small = lam * (0.5e-9 / -float(lam @ lp.b_ub))
    assert float(small @ lp.b_ub) > -1e-9
    assert not verify_farkas(lp, small)                     # lam b too close to 0


def test_verify_ray_scales_each_row_by_its_own_products():
    # min s s.t. +-(x - p_i) <= t_i and w_i t_i - s <= 0 (an l-inf weighted
    # max center, 3 points in R^3) is bounded below by 0.  The ray lowering s
    # alone breaks each w_i t_i - s <= 0 row by 1 at unit size, which a slack
    # scaled by the largest coefficient (1e9 here) would let through.
    points = np.array([[0.0, 1.0, 2.0], [1.0, -1.0, 0.5], [-2.0, 0.0, 1.0]])
    weights = np.array([2.44e9, 1.69e9, 1.91e9])
    a_ub, b_ub = [], []
    for i, p in enumerate(points):
        for k in range(3):
            for sign in (1.0, -1.0):
                row = np.zeros(7)
                row[k], row[3 + i] = sign, -1.0
                a_ub.append(row)
                b_ub.append(sign * p[k])
        row = np.zeros(7)
        row[3 + i], row[6] = weights[i], -1.0
        a_ub.append(row)
        b_ub.append(0.0)
    lp = make_lp(np.eye(7)[6], a_ub=a_ub, b_ub=b_ub)
    ray = np.zeros(7)
    ray[6] = -1.1e-7
    assert float(lp.objective @ ray) < 0.0
    assert not verify_ray(lp, ray)


def test_failed_audits_become_breakdowns(monkeypatch):
    bounded = make_lp([1.0], a_ub=[[-1.0]], b_ub=[-1.0])
    unbounded = make_lp([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
    empty = optim.LinearProgram(np.zeros(0), np.zeros((1, 0)), np.array([1.0]))
    monkeypatch.setattr(optim, "verify_optimal", lambda lp, out: False)
    monkeypatch.setattr(optim, "verify_ray", lambda lp, ray: False)
    out = lp_solve(bounded)
    assert out.status == optim.BREAKDOWN
    assert out.message == "optimal claim failed the optimality audit"
    out = lp_solve(unbounded)
    assert out.status == optim.BREAKDOWN
    assert out.message == "unbounded claim failed the ray audit"
    out = lp_solve(empty)
    assert out.status == optim.BREAKDOWN
    assert out.message == "optimal claim failed the optimality audit"


def test_failed_farkas_audits_become_breakdowns(monkeypatch):
    # An infeasible verdict leaves `lp_solve` only through `verify_farkas`,
    # from a tableau's dual ray and from an LP with rows and no unknowns.
    box = make_lp([0.0], a_ub=[[1.0], [-1.0]], b_ub=[0.0, -1.0])
    empty = optim.LinearProgram(np.zeros(0), np.zeros((2, 0)), np.array([1.0, -0.5]))
    plain = lp_solve(box)
    assert plain.status == lp_solve(empty).status == optim.INFEASIBLE
    monkeypatch.setattr(optim, "verify_farkas", lambda lp, lam: False)
    for lp, pivots in ((box, plain.iterations), (empty, 0)):
        out = lp_solve(lp)
        assert out.status == optim.BREAKDOWN
        assert out.message == "infeasible claim failed the Farkas audit"
        assert out.iterations == pivots


def test_singular_optimal_basis_is_a_breakdown(monkeypatch):
    # A basis whose tight rows cannot be solved for gives no point to audit.
    lp = make_lp([1.0, 1.0], a_ub=[[-1.0, 0.0], [0.0, -1.0]], b_ub=[-1.0, -2.0])
    plain = lp_solve(lp)
    assert plain.status == optim.OPTIMAL

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    out = lp_solve(lp)
    assert out.status == optim.BREAKDOWN
    assert out.message == "optimal basis is singular"
    assert out.iterations == plain.iterations


def test_phase_2_breakdown_is_reported(monkeypatch):
    # Phase 2 ending in a breakdown is neither optimal nor a dual ray.
    real = optim._run_simplex
    phases = []

    def stalled(t, basis, n_struct, max_iter, phase_1=False):
        phases.append(phase_1)
        if phase_1:
            return real(t, basis, n_struct, max_iter, phase_1=True)
        return optim.BREAKDOWN, 3, -1

    monkeypatch.setattr(optim, "_run_simplex", stalled)
    for c in ([1.0], [0.0]):  # with and without phase 1
        phases.clear()
        out = lp_solve(make_lp(c, a_ub=[[-1.0], [1.0]], b_ub=[-1.0, 2.0]))
        assert out.status == optim.BREAKDOWN
        assert out.message == "phase 2 did not terminate"
        assert phases[-1] is False and out.iterations >= 3


def test_slack_start_basis_needs_no_pivots():
    # Every <= row has b >= 0, so the slacks form a feasible start basis at
    # x = 0: no artificial, no phase 1, and a zero objective is optimal there.
    rng = np.random.default_rng(5)
    a = rng.normal(size=(7, 3))
    lp = make_lp(np.zeros(3), a_ub=a, b_ub=rng.uniform(0.0, 2.0, size=7))
    out = lp_solve(lp)
    assert out.status == optim.OPTIMAL
    assert out.iterations == 0
    assert np.array_equal(out.x, np.zeros(3))
    assert np.array_equal(out.dual_ub, np.zeros(7))
    assert verify_optimal(lp, out)

