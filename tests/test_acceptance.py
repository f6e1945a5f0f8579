"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Criteria 3, 6, 7 and 10 are finite-dimensional surrogates of
statements about infinite-dimensional spaces; they check the defining
inequalities at desk scale and their printed lines say so.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from centerlab import centers, geometry, instances, norms, optim, sequences
from centerlab.centers import (
    CenterProblem,
    FiniteSet,
    WeightedMax,
    WeightedSum,
    p1_modulus,
    sacp_experiment,
    solve_center,
    uniform_max,
)
from centerlab.geometry import (
    BallFamily,
    balls_intersect,
    central_subspace_check,
    compose_direct_sum_projections,
    decompose_min_sum,
    esum_dominator,
    gamma_estimate,
    mideal_three_ball_check,
)
from centerlab.norms import (
    dist_to_subspace,
    eval_norm,
    eval_norm_many,
    l1,
    l2,
    linf,
    lp_norm,
    make_direct_sum,
    make_esum,
    max_combiner,
    polyhedral,
    subspace_from_basis,
    weighted_lp,
)


def report_line(number: int, ok: bool, text: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def random_polyhedral(rng, dim, n_gens=4):
    gens = rng.normal(size=(n_gens, dim))
    gens = np.vstack([gens, 0.3 * np.eye(dim), -0.3 * np.eye(dim), -gens])
    return polyhedral(gens, symmetrize=False)


def _grid_values(space, pts, f, grid):
    t_cols = np.column_stack([eval_norm_many(space, grid - p) for p in pts])
    return f.value_many(t_cols)


def vector_grid_min(space, pts, f, center, halfwidth, steps=17,
                    refinements=14, starts=8):
    """Vectorized brute-force grid refinement over the whole space.

    The coarse pass keeps several well-separated low cells and refines each
    independently, which avoids getting trapped in one narrow valley of a
    skewed polyhedral norm."""
    dim = center.shape[0]
    axes = [np.linspace(center[i] - halfwidth, center[i] + halfwidth, 2 * steps)
            for i in range(dim)]
    coarse = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    vals = _grid_values(space, pts, f, coarse)
    order = np.argsort(vals)
    seeds = []
    min_sep = halfwidth / 4.0
    for j in order:
        if len(seeds) >= starts:
            break
        cand = coarse[j]
        if all(np.abs(cand - s).max() > min_sep for s in seeds):
            seeds.append(cand)
    best_v, best_x = np.inf, np.array(center, dtype=float)
    for seed_pt in seeds:
        x = np.array(seed_pt)
        v = np.inf
        width = 2.0 * halfwidth / (2 * steps - 1) * (steps // 2)
        for _ in range(refinements):
            axes = [np.linspace(x[i] - width, x[i] + width, steps)
                    for i in range(dim)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"),
                            axis=-1).reshape(-1, dim)
            gv = _grid_values(space, pts, f, grid)
            j = int(np.argmin(gv))
            if gv[j] < v:
                v = float(gv[j])
                x = grid[j]
            width *= 0.5
        if v < best_v:
            best_v, best_x = v, x
    return best_v, best_x


def test_criterion_01_sup_norm_counterexample_reproduction():
    started = time.monotonic()
    data = instances.linf3_scenario()
    space, x, family, plane = data["space"], data["x"], data["family"], data["plane"]
    dists = eval_norm_many(space, x[None, :] - family.centers)
    norms_ok = bool(np.abs(dists - 1.5).max() <= 1e-12)
    res_full = balls_intersect(space, family)
    witness_ok = res_full.status == geometry.FEASIBLE and bool(
        (eval_norm_many(space, res_full.witness[None, :] - family.centers)
         <= family.radii + 1e-9).all())
    res_plane = balls_intersect(space, family, plane)
    cert_ok = res_plane.status == geometry.INFEASIBLE and optim.verify_farkas(
        res_plane.lp, res_plane.outcome.farkas_ub, res_plane.outcome.farkas_eq)
    elapsed = time.monotonic() - started
    report_line(1, norms_ok and witness_ok and cert_ok and elapsed < 1.0,
                f"three distances 3/2 (1e-12), feasible in R^3, certified "
                f"infeasible over the line sum, {elapsed:.3f}s < 1s")


def test_criterion_02_sequence_criteria_exact():
    data = instances.c0_scenario()
    f, f1, f2 = data["f"], data["f1"], data["f2"]
    sn = sequences.seq_norms(f)
    exact = (sn.linf == Fraction(1, 2) and sn.l1 == 2
             and 2 * sn.linf < sn.l1 and not sn.support_finite)
    gc = sequences.c0_hyperplane_gc(f)
    sn1, sn2 = sequences.seq_norms(f1), sequences.seq_norms(f2)
    attain = (sn1.l1 == 1 and 2 * abs(f1.coordinate(2)) == sn1.l1
              and sn2.l1 == 1 and 2 * abs(f2.coordinate(1)) == sn2.l1)
    crit = sequences.c0_constrained_criterion([f1, f2])
    ok = exact and not gc.holds and attain and crit.satisfied
    report_line(2, ok, "exact rational values, hyperplane criterion false, "
                       "constrainedness criterion true (zero tolerance)")


def test_criterion_03_l1_minimizing_sequence_without_cluster():
    model = instances.l1_lines_scenario(50)
    space = model["space"]
    dist_dev = 0.0
    for n in range(1, 11):
        sub = subspace_from_basis(50, np.eye(50)[:n])
        d, _ = dist_to_subspace(space, np.eye(50)[n], sub)
        dist_dev = max(dist_dev, abs(d - 1.0))
    result = solve_center(model["problem"])
    verdict = sacp_experiment(model["problem"], model["sequence"], horizon=49,
                              cluster_tol=0.5, result=result)
    values_dev = float(np.abs(verdict.values - 1.0).max())
    ok = (dist_dev <= 1e-9 and verdict.minimizing and values_dev <= 1e-12
          and abs(verdict.min_pairwise - 2.0) <= 1e-12
          and verdict.verdict == "no cluster within horizon")
    report_line(3, ok, "truncated 1-norm model: unit distances (1e-9), "
                       "minimizing values all 1, pairwise gap 2 (1e-12), "
                       "no cluster [finite-dimensional surrogate]")


def test_criterion_04_center_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(4242)
    worst_grid = 0.0
    worst_sub = 0.0
    for i in range(50):
        dim = 2 + i % 2
        kind = i % 3
        if kind == 0:
            space = linf(dim)
        elif kind == 1:
            space = l1(dim)
        else:
            space = random_polyhedral(rng, dim)
        n_pts = 2 + i % 2
        pts = rng.uniform(-1.5, 1.5, size=(n_pts, dim))
        f_kind = i % 3
        if f_kind == 0:
            f = uniform_max(n_pts)
        elif f_kind == 1:
            f = WeightedMax(rng.uniform(0.6, 1.5, size=n_pts))
        else:
            f = WeightedSum(rng.uniform(0.6, 1.5, size=n_pts))
        problem = CenterProblem(space, None, FiniteSet(pts), f)
        lp_res = solve_center(problem, method="lp")
        grid_val, _ = vector_grid_min(space, pts, f, pts.mean(axis=0), 3.0)
        worst_grid = max(worst_grid, abs(lp_res.rad - grid_val))
        sg_res = solve_center(problem, method="subgradient")
        worst_sub = max(worst_sub, abs(sg_res.rad - lp_res.rad))
    elapsed = time.monotonic() - started
    ok = worst_grid <= 1e-3 and worst_sub <= 1e-4 and elapsed < 30.0
    report_line(4, ok, f"50 instances: |lp - grid| <= {worst_grid:.2e} (1e-3), "
                       f"|subgradient - lp| <= {worst_sub:.2e} (1e-4), "
                       f"{elapsed:.1f}s < 30s")


def test_criterion_05_two_point_identity_all_norms():
    rng = np.random.default_rng(55)
    worst = 0.0
    for i in range(100):
        dim = 2 + i % 3
        pool = [
            linf(dim), l1(dim), l2(dim), lp_norm(2.5, dim),
            random_polyhedral(rng, dim),
            make_direct_sum([l1(dim - 1), linf(1)], max_combiner(2)),
            make_esum([l1(dim - 1), l2(1)], weighted_lp(1, [1.0, 2.0])),
            make_esum([linf(dim - 1), l2(1)], weighted_lp(2, [1.0, 1.5])),
        ]
        space = pool[i % len(pool)]
        x1 = rng.uniform(-2, 2, size=dim)
        x2 = rng.uniform(-2, 2, size=dim)
        problem = CenterProblem(space, None, FiniteSet([x1, x2]),
                                uniform_max(2))
        res = solve_center(problem)
        half = 0.5 * eval_norm(space, x1 - x2)
        mid = 0.5 * (x1 + x2)
        mid_val = centers.eval_rf(space, mid, problem.points, problem.f)
        worst = max(worst, abs(res.rad - half), max(0.0, mid_val - res.rad))
    ok = worst <= 1e-9
    report_line(5, ok, f"100 cases over every norm variant: "
                       f"|rad - half-distance| and midpoint slack <= "
                       f"{worst:.2e} (1e-9)")


def test_criterion_06_direct_sum_projection_composition():
    worst_ratio = 0.0
    all_exact = True
    for idx in range(20):
        space, pairs, z0 = instances.composition_scenario(idx)
        _, _, report = compose_direct_sum_projections(space, pairs, z0,
                                                      samples=10_000, seed=idx)
        all_exact = all_exact and report["image_bitexact"]
        worst_ratio = max(worst_ratio, report["max_contraction_ratio"])
    ok = all_exact and worst_ratio <= 1.0 + 1e-9
    report_line(6, ok, f"20 direct-sum instances: images bit-exact, sampled "
                       f"contraction ratio <= {worst_ratio:.12f} on 1e4 "
                       f"samples each [finite-dimensional surrogate]")


def test_criterion_07_monotone_sum_dominator_assembly():
    ok = True
    for idx in range(20):
        space, y_components, x, a_points = instances.esum_scenario(idx)
        y, report = esum_dominator(space, y_components, x, a_points)
        lhs = eval_norm_many(space, y[None, :] - a_points)
        rhs = eval_norm_many(space, x[None, :] - a_points)
        ok = ok and bool((lhs <= rhs * (1 + 1e-9) + 1e-12).all())
        ok = ok and report["component_bound_ok"]
    report_line(7, ok, "20 weighted-sum instances: assembled dominator and "
                       "zero-augmentation component bounds hold (1 + 1e-9) "
                       "[finite-dimensional surrogate]")


def test_criterion_08_three_ball_summands():
    data = instances.mideal_scenarios()
    good = mideal_three_ball_check(data["max_space"], data["first_summand"],
                                   trials=500, eps=1e-6, seed=0)
    bad = mideal_three_ball_check(data["sum_space"], data["first_summand"],
                                  trials=500, eps=1e-6, seed=0)
    cert_ok = (not bad.passed and bad.result.status == geometry.INFEASIBLE
               and optim.verify_farkas(bad.result.lp,
                                       bad.result.outcome.farkas_ub,
                                       bad.result.outcome.farkas_eq))
    ok = good.passed and cert_ok and bad.witness_family is not None
    report_line(8, ok, f"sup-summand passes 500 trials at eps=1e-6; "
                       f"sum-summand fails at trial {bad.trials_run} with a "
                       f"verified certificate")


def test_criterion_09_minimal_sum_decomposition():
    space = linf(3)
    y = subspace_from_basis(3, [[1.0, 0.0, -1.0]])
    z = subspace_from_basis(3, [[0.0, 1.0, -1.0]])
    rng = np.random.default_rng(9)
    ok = True
    # ratio exactly one on either summand
    for sub in (y, z):
        dec = decompose_min_sum(space, sub.embed(rng.normal(size=1)), y, z)
        ok = ok and abs(dec.ratio - 1.0) <= 1e-9
    gamma = gamma_estimate(space, y, z, samples=40, seed=9)
    ok = ok and gamma >= 1.0 - 1e-9
    # grid cross-check where the decomposition has a degree of freedom
    y2 = subspace_from_basis(3, [[1, 0, 0], [0, 1, 0.0]])
    z2 = subspace_from_basis(3, [[0, 1, 0], [0, 0, 1.0]])
    worst = 0.0
    for space2 in (linf(3), l1(3)):
        for _ in range(5):
            x = rng.normal(size=3)
            dec = decompose_min_sum(space2, x, y2, z2)

            def fun(s):
                yv = np.array([x[0], s[0], 0.0])
                return eval_norm(space2, yv) + eval_norm(space2, x - yv)

            best = np.inf
            center, width = 0.0, 6.0
            for _ in range(8):
                grid = np.linspace(center - width, center + width, 41)
                vals = [fun(np.array([s])) for s in grid]
                j = int(np.argmin(vals))
                if vals[j] < best:
                    best, center = vals[j], grid[j]
                width *= 2.5 / 40
            worst = max(worst, abs(dec.value - best))
    ok = ok and worst <= 1e-3
    report_line(9, ok, f"ratios >= 1 - 1e-9, ratio 1 inside either summand, "
                       f"grid agreement {worst:.2e} (1e-3)")


def test_criterion_10_delta_center_collapse_modulus():
    rng = np.random.default_rng(10)
    deltas = [0.1, 0.01, 0.001, 1e-4]
    instances_list = [
        CenterProblem(linf(2), None, FiniteSet([[-1.0, 0.0], [1.0, 0.0]]),
                      uniform_max(2)),
        CenterProblem(l1(2), None,
                      FiniteSet([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]),
                      uniform_max(3)),
        CenterProblem(random_polyhedral(rng, 2), None,
                      FiniteSet(rng.uniform(-1, 1, size=(3, 2))),
                      WeightedMax(np.array([1.0, 1.3, 0.8]))),
    ]
    ok = True
    tails = []
    for problem in instances_list:
        curve = p1_modulus(problem, deltas)
        excesses = [row[1] for row in curve]
        ok = ok and all(excesses[i] >= excesses[i + 1] - 1e-9
                        for i in range(len(excesses) - 1))
        tails.append(excesses[-1])
        ok = ok and excesses[-1] < 1e-2
    report_line(10, ok, f"modulus nonincreasing along delta down; excess at "
                        f"delta=1e-4: {max(tails):.2e} < 1e-2 "
                        f"[finite-dimensional surrogate]")


def test_criterion_11_central_subspace_suite():
    data = instances.linf3_scenario()
    space = data["space"]
    v1 = central_subspace_check(space, data["y1"], trials=200, seed=11)
    v2 = central_subspace_check(space, data["y2"], trials=200, seed=12)
    v_sum = central_subspace_check(space, data["plane"], trials=0, seed=13,
                                   inject=[data["family"]])
    v_full = central_subspace_check(space, norms.Subspace.full(3), trials=60,
                                    seed=14)
    ok = (v1.passed and v2.passed and (not v_sum.passed)
          and v_sum.result.status == geometry.INFEASIBLE and v_full.passed)
    report_line(11, ok, "both lines pass 200 trials, the sum fails on the "
                        "injected family with certificate, whole space passes")
