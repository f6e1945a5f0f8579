import itertools

import numpy as np
import pytest

from centerlab import optim
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
