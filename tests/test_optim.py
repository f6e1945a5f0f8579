import itertools

import numpy as np
import pytest

from centerlab import centers, norms, optim
from centerlab.optim import (
    LpBuilder,
    SubgradientConfig,
    enumerate_vertices,
    lp_solve,
    lp_solve_lex,
    make_lp,
    subgradient_minimize,
    verify_farkas,
    verify_optimal,
    verify_ray,
)


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
    assert verify_farkas(lp, out.farkas_ub, out.farkas_eq)


def test_equality_constraints():
    # min x+y s.t. x+y = 2, x <= 5, y <= 5
    lp = make_lp([1.0, 1.0], a_ub=[[1, 0], [0, 1]], b_ub=[5, 5],
                 a_eq=[[1.0, 1.0]], b_eq=[2.0])
    out = lp_solve(lp)
    assert out.status == optim.OPTIMAL
    assert out.value == pytest.approx(2.0, abs=1e-9)
    assert verify_optimal(lp, out)


def test_infeasible_equalities_certificate():
    lp = make_lp([0.0, 0.0], a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 3.0])
    out = lp_solve(lp)
    assert out.status == optim.INFEASIBLE
    assert verify_farkas(lp, out.farkas_ub, out.farkas_eq)


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


def test_enumerate_vertices_with_equality():
    a = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    verts = enumerate_vertices(a, b, a_eq=[[1.0, 1.0]], b_eq=[0.0])
    got = {tuple(np.round(v, 9)) for v in verts}
    assert got == {(-1.0, 1.0), (1.0, -1.0)}


def test_subgradient_euclidean_norm_to_zero():
    def oracle(v):
        nrm = float(np.linalg.norm(v))
        grad = v / nrm if nrm > 0 else np.zeros_like(v)
        return nrm, grad

    res = subgradient_minimize(oracle, None, np.array([3.0, -4.0]),
                               SubgradientConfig(max_iter=4000, step_a=2.0))
    assert res.value < 1e-3
    running = np.minimum.accumulate(res.trace)
    assert (np.diff(running) <= 0).all()


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

    res = subgradient_minimize(oracle, None, np.array([0.7, 0.9]),
                               SubgradientConfig(max_iter=6000))
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

    res = optim.staged_subgradient(oracle, None, np.array([2.0, -3.0]), scale=4.0)
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

    def audit(lp_, x, tol=optim.FEAS_TOL):
        audits.append(x)
        return real(lp_, x, tol) and len(audits) == 1

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
        out = lp_solve(optim.LinearProgram(c, cut_a, cut_b, lp.a_eq, lp.b_eq))
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
    return make_lp(c, a_ub=a, b_ub=b, a_eq=a_eq, b_eq=b_eq), n


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
            A_eq=lp.a_eq if lp.a_eq.shape[0] else None,
            b_eq=lp.b_eq if lp.a_eq.shape[0] else None,
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
                assert verify_farkas(lp, out.farkas_ub, out.farkas_eq)
            else:
                assert float(lp.objective @ out.ray) < 0
                assert (lp.a_ub @ out.ray <= 1e-9).all()
                assert verify_ray(lp, out.ray)
    assert seen == {optim.OPTIMAL, optim.INFEASIBLE, optim.UNBOUNDED}


def test_verify_ray_accepts_solver_ray_and_rejects_corrupted_ones():
    # min -x - y s.t. x - y <= 1, -x <= 0, x + y - 2z = 0: improves along
    # (1, 1, 1) forever.
    lp = make_lp([-1.0, -1.0, 0.0], a_ub=[[1.0, -1.0, 0.0], [-1.0, 0.0, 0.0]],
                 b_ub=[1.0, 0.0], a_eq=[[1.0, 1.0, -2.0]], b_eq=[0.0])
    out = lp_solve(lp)
    assert out.status == optim.UNBOUNDED
    assert verify_ray(lp, out.ray)
    assert verify_ray(lp, 1e6 * out.ray)
    assert not verify_ray(lp, -out.ray)                  # worsens the objective
    assert not verify_ray(lp, np.array([1.0, 0.0, 0.5]))   # leaves a <= row
    assert not verify_ray(lp, np.array([1.0, 1.0, 0.0]))   # breaks the equality
    assert not verify_ray(lp, np.zeros(3))
    assert not verify_ray(lp, np.array([np.nan, 1.0, 1.0]))


def test_failed_audits_become_breakdowns(monkeypatch):
    bounded = make_lp([1.0], a_ub=[[-1.0]], b_ub=[-1.0])
    unbounded = make_lp([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
    monkeypatch.setattr(optim, "verify_optimal", lambda lp, out: False)
    monkeypatch.setattr(optim, "verify_ray", lambda lp, ray: False)
    out = lp_solve(bounded)
    assert out.status == optim.BREAKDOWN
    assert out.message == "optimal claim failed the optimality audit"
    out = lp_solve(unbounded)
    assert out.status == optim.BREAKDOWN
    assert out.message == "unbounded claim failed the ray audit"


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
