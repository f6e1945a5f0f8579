import numpy as np
import pytest

from centerlab import geometry, instances, norms, optim
from centerlab.errors import DimensionMismatchError, OptimizationError
from centerlab.geometry import (
    BallFamily,
    LocallyConstrainedData,
    ProjectionData,
    ac_dominator,
    almost_constrained_probe,
    balls_intersect,
    central_subspace_check,
    compose_direct_sum_projections,
    decompose_min_sum,
    esum_dominator,
    family_from_json,
    family_to_json,
    gamma_estimate,
    lift_projection_linf_sum,
    locally_constrained_from_full_projection,
    locally_constrained_transfer,
    locally_constrained_verify,
    mideal_three_ball_check,
    verify_norm1_projection,
)
from centerlab.norms import (
    Subspace,
    l1,
    l2,
    linf,
    make_direct_sum,
    max_combiner,
    subspace_from_basis,
    sum_combiner,
    sum_subspaces,
    weighted_lp,
)

from oracles import grid_minimize

Y_CENTERS = np.array([[-2.0, 1.0, 1.0], [1.0, 1.0, -2.0], [1.0, -2.0, 1.0]])
RADII = np.array([1.5, 1.5, 1.5])


def plane():
    return sum_subspaces(subspace_from_basis(3, [[1.0, 0.0, -1.0]]),
                         subspace_from_basis(3, [[0.0, 1.0, -1.0]]))


def reference_family():
    return BallFamily.from_arrays(Y_CENTERS, RADII)


def test_reference_family_feasible_in_whole_space():
    res = balls_intersect(linf(3), reference_family())
    assert res.status == geometry.FEASIBLE
    gaps = norms.eval_norm_many(linf(3), res.witness[None, :] - Y_CENTERS) - RADII
    assert gaps.max() <= 1e-9
    # the known witness works too
    x = np.array([-0.5, -0.5, -0.5])
    assert (norms.eval_norm_many(linf(3), x[None, :] - Y_CENTERS) <= RADII + 1e-12).all()


def test_reference_family_infeasible_on_plane_with_certificate():
    res = balls_intersect(linf(3), reference_family(), plane())
    assert res.status == geometry.INFEASIBLE
    assert optim.verify_farkas(res.lp, res.outcome.farkas_ub, res.outcome.farkas_eq)


def test_single_ball_witness_is_center():
    fam = BallFamily.from_arrays([[1.0, 2.0]], [0.0])
    res = balls_intersect(l1(2), fam)
    assert res.status == geometry.FEASIBLE
    assert np.allclose(res.witness, [1.0, 2.0], atol=1e-9)


def test_balls_intersect_monotone_in_feasible_set():
    rng = np.random.default_rng(2)
    space = linf(3)
    small = subspace_from_basis(3, [[1.0, 0.0, -1.0]])
    big = plane()
    for _ in range(15):
        w = small.embed(rng.normal(size=1))
        centers = small.embed(rng.normal(size=(1, 4)).T).T \
            if False else (small.basis @ rng.normal(size=(1, 4)) * 2).T
        radii = norms.eval_norm_many(space, w[None, :] - centers) * \
            (1 + rng.uniform(0, 0.2, 4))
        fam = BallFamily.from_arrays(centers, radii)
        if balls_intersect(space, fam, small).status == geometry.FEASIBLE:
            assert balls_intersect(space, fam, big).status == geometry.FEASIBLE
            assert balls_intersect(space, fam).status == geometry.FEASIBLE


def test_l2_intersection_semi_decision():
    fam = BallFamily.from_arrays([[0.0, 0.0], [2.0, 0.0]], [1.0, 1.0])
    res = balls_intersect(l2(2), fam)
    assert res.status == geometry.FEASIBLE
    assert np.allclose(res.witness, [1.0, 0.0], atol=1e-4)
    tight = BallFamily.from_arrays([[0.0, 0.0], [2.0, 0.0]], [0.8, 0.8])
    res2 = balls_intersect(l2(2), tight)
    assert res2.status == geometry.UNRESOLVED  # never certified infeasible


def test_central_check_whole_space_passes():
    verdict = central_subspace_check(linf(3), Subspace.full(3), trials=40, seed=1)
    assert verdict.passed


def test_central_check_constrained_line_passes():
    y1 = subspace_from_basis(3, [[1.0, 0.0, -1.0]])
    verdict = central_subspace_check(linf(3), y1, trials=200, seed=3)
    assert verdict.passed
    assert "200" in verdict.note


def test_central_check_plane_fails_with_injected_family():
    verdict = central_subspace_check(linf(3), plane(), trials=0, seed=0,
                                     inject=[reference_family()])
    assert not verdict.passed
    assert verdict.injected
    assert verdict.counterexample is reference_family() or \
        np.allclose(verdict.counterexample.centers, Y_CENTERS)
    assert verdict.result.status == geometry.INFEASIBLE


def test_ac_dominator_singleton_and_self():
    space = linf(3)
    y = plane()
    a = y.embed(np.array([0.3, -0.7]))
    res = ac_dominator(space, y, [a], np.array([2.0, 1.0, 0.0]))
    assert res.status == geometry.FEASIBLE
    cap = norms.eval_norm(space, np.array([2.0, 1.0, 0.0]) - a)
    assert norms.eval_norm(space, res.witness - a) <= cap + 1e-9


def test_ac_dominator_reference_counterexample():
    res = ac_dominator(linf(3), plane(), Y_CENTERS,
                       np.array([-0.5, -0.5, -0.5]))
    assert res.status == geometry.INFEASIBLE
    assert optim.verify_farkas(res.lp, res.outcome.farkas_ub,
                               res.outcome.farkas_eq)


def test_ac_dominator_from_projection_image():
    # Y constrained by the coordinate projection: its image dominates
    space = linf(3)
    y = subspace_from_basis(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rng = np.random.default_rng(4)
    x = rng.normal(size=3)
    a_pts = (y.basis @ rng.normal(size=(2, 4)) * 2).T
    px = np.array([x[0], x[1], 0.0])
    caps = norms.eval_norm_many(space, x[None, :] - a_pts)
    assert (norms.eval_norm_many(space, px[None, :] - a_pts) <= caps + 1e-12).all()
    res = ac_dominator(space, y, a_pts, x)
    assert res.status == geometry.FEASIBLE


def test_projection_data_validation():
    y = subspace_from_basis(3, [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        ProjectionData(y, np.array([2.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        ProjectionData(y, np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0]))


def test_verify_projection_exact_accepts_coordinate_projection():
    space = linf(3)
    y = subspace_from_basis(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x = np.array([0.4, -0.2, 1.0])
    pd = ProjectionData(y, x, np.array([0.4, -0.2, 0.0]))
    verdict = verify_norm1_projection(space, pd)
    assert verdict.accepted
    assert verdict.mode == "exact"


def test_verify_projection_rejects_bad_image_with_witness():
    space = linf(3)
    y = subspace_from_basis(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x = np.array([0.0, 0.0, 1.0])
    pd = ProjectionData(y, x, np.array([5.0, 0.0, 0.0]))
    verdict = verify_norm1_projection(space, pd)
    assert not verdict.accepted
    assert verdict.max_violation > 1.0
    if verdict.witness is not None:
        yw = verdict.witness
        assert norms.eval_norm(space, pd.image + yw) > \
            norms.eval_norm(space, x + yw) + 1e-9


def test_verify_projection_zero_subspace():
    space = l1(2)
    z = Subspace.zero(2)
    pd = ProjectionData(z, np.array([1.0, 1.0]), np.zeros(2))
    assert verify_norm1_projection(space, pd).accepted


def test_verify_projection_sampled_mode_flags():
    space = l2(3)
    y = subspace_from_basis(3, [[1.0, 0.0, 0.0]])
    x = np.array([0.0, 0.0, 1.0])
    pd = ProjectionData(y, x, np.zeros(3))
    verdict = verify_norm1_projection(space, pd)
    assert verdict.accepted
    assert verdict.mode == "sampled"  # no polyhedral generators for l2


def test_almost_constrained_probe_finds_candidate():
    space = linf(3)
    y = subspace_from_basis(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    out = almost_constrained_probe(space, y, np.array([0.3, 0.4, 2.0]), seed=5)
    assert out.status == "candidate"
    assert out.verdict.accepted


def test_almost_constrained_probe_falsifies_plane():
    out = almost_constrained_probe(linf(3), plane(),
                                   np.array([-0.5, -0.5, -0.5]),
                                   inject=[Y_CENTERS])
    assert out.status == "falsified"
    assert out.net.shape[0] >= 3


def test_almost_constrained_probe_random_hyperplanes_cross_checked():
    # candidates must verify; falsifying nets must defeat a brute-force
    # dominator search as well
    rng = np.random.default_rng(21)
    space = linf(3)
    for trial in range(4):
        normal = rng.normal(size=3)
        y = norms.subspace_from_kernel(3, [normal])
        x = rng.normal(size=3)
        if y.contains(x, tol=1e-6):
            continue
        out = almost_constrained_probe(space, y, x, seed=trial)
        if out.status == "candidate":
            pd = ProjectionData(y, x, out.image)
            assert verify_norm1_projection(space, pd).accepted
        elif out.status == "falsified":
            caps = norms.eval_norm_many(space, x[None, :] - out.net)
            found = False
            for alpha in np.random.default_rng(99).normal(size=(4000, 2)) * 3:
                cand = y.embed(alpha)
                if (norms.eval_norm_many(space, cand[None, :] - out.net)
                        <= caps + 1e-9).all():
                    found = True
                    break
            assert not found


def test_locally_constrained_verify_and_mismatch():
    space = linf(4)
    y = subspace_from_basis(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    z2 = subspace_from_basis(4, [[1.0, 0.0, 0.0, 0.0]])
    p_matrix = np.diag([1.0, 0.0, 1.0, 0.0])
    z = np.array([0.5, 1.0, 0.0, 0.0])
    data = locally_constrained_from_full_projection(p_matrix, z, z2, y)
    verdict = locally_constrained_verify(space, data)
    assert verdict.accepted
    # mismatched images must be rejected
    bad = LocallyConstrainedData(
        z, ProjectionData(z2, z, np.array([0.5, 0, 0, 0.0])),
        ProjectionData(y, z, np.array([0.0, 0, 0, 0.0])))
    out = locally_constrained_verify(space, bad)
    assert not out.accepted
    assert "differ" in out.reason


def test_locally_constrained_verify_rejects_norm_violation():
    space = linf(4)
    y = subspace_from_basis(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    z2 = subspace_from_basis(4, [[1.0, 0.0, 0.0, 0.0]])
    z = np.array([0.1, 1.0, 0.0, 0.0])
    big = np.array([4.0, 0.0, 0.0, 0.0])
    data = LocallyConstrainedData(z, ProjectionData(z2, z, big),
                                  ProjectionData(y, z, big))
    out = locally_constrained_verify(space, data)
    assert not out.accepted


def test_transfer_pipeline_full_run():
    space = linf(4)
    z1 = subspace_from_basis(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    y = subspace_from_basis(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    z2 = subspace_from_basis(4, [[1.0, 0.0, 0.0, 0.0]])
    p_matrix = np.diag([1.0, 0.0, 1.0, 0.0])
    family = BallFamily.from_arrays([[-1.0, 0, 0, 0], [1.0, 0, 0, 0]],
                                    [1.2, 1.2])

    def factory(z):
        return locally_constrained_from_full_projection(p_matrix, z, z2, y)

    res = locally_constrained_transfer(space, z1, y, z2, family, factory)
    assert res.ok
    assert z2.contains(res.point)
    dists = norms.eval_norm_many(space, res.point[None, :] - family.centers)
    assert (dists <= family.radii + 1e-9).all()


def test_transfer_scenario_witness_never_in_target():
    # Whatever vertex of the Z1 feasibility LP the simplex stops at, it lies
    # outside Z2 and projects onto the touching point with no slack: sweep
    # vertices with random objectives over the scenario's own LP.
    data = instances.transfer_scenario()
    lp = balls_intersect(data["space"], data["family"], data["z1"]).lp
    basis = np.array(data["z1"].basis)
    rng = np.random.default_rng(0)
    vertices = set()
    for _ in range(60):
        out = optim.lp_solve(optim.LinearProgram(
            rng.normal(size=lp.n_vars), lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq))
        assert out.status == optim.OPTIMAL
        z = basis @ out.x[:basis.shape[1]]
        assert not data["z2"].contains(z)
        image = data["p_matrix"] @ z
        gaps = norms.eval_norm_many(data["space"],
                                    image[None, :] - data["family"].centers)
        assert np.abs(gaps - data["family"].radii).max() <= 1e-12
        vertices.add(tuple(np.round(z, 9)))
    assert vertices == {(3.0, 1.0, 0.0, 0.0), (3.0, -1.0, 0.0, 0.0)}


def test_transfer_trivial_nesting_returns_witness():
    space = linf(2)
    whole = Subspace.full(2)
    fam = BallFamily.from_arrays([[0.0, 0.0]], [1.0])
    res = locally_constrained_transfer(space, whole, whole, whole, fam,
                                       lambda z: None)
    assert res.ok and res.stage == "done"


def test_transfer_reports_infeasible_stage():
    space = linf(4)
    z1 = subspace_from_basis(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    y = subspace_from_basis(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    z2 = subspace_from_basis(4, [[1.0, 0.0, 0.0, 0.0]])
    family = BallFamily.from_arrays([[-1.0, 0, 0, 0], [1.0, 0, 0, 0]],
                                    [0.4, 0.4])
    res = locally_constrained_transfer(space, z1, y, z2, family, lambda z: None)
    assert not res.ok
    assert res.stage == "family-in-Y"


def test_compose_direct_sum_projections():
    comp = linf(2)
    space = make_direct_sum([comp, comp], max_combiner(2))
    y_i = subspace_from_basis(2, [[1.0, 0.0]])
    z01 = np.array([0.3, 1.0])
    z02 = np.array([-0.4, 0.7])
    pairs = []
    for z0i in (z01, z02):
        img = np.array([z0i[0], 0.0])
        pairs.append((ProjectionData(y_i, z0i, img),
                      ProjectionData(y_i, z0i, img)))
    z0 = np.concatenate([z01, z02])
    p, q, report = compose_direct_sum_projections(space, pairs, z0, samples=2000)
    assert report["image_bitexact"]
    assert report["ok"]
    assert np.array_equal(p.apply(z0), q.apply(z0))
    # identity-on-Y behaviour
    w = np.array([2.0, 0.0, -1.0, 0.0])
    assert np.allclose(q.apply(w), w)


def test_compose_rejects_mismatched_images():
    comp = linf(2)
    space = make_direct_sum([comp, comp], max_combiner(2))
    y_i = subspace_from_basis(2, [[1.0, 0.0]])
    z0i = np.array([0.3, 1.0])
    good = ProjectionData(y_i, z0i, np.array([0.3, 0.0]))
    bad = ProjectionData(y_i, z0i, np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="agree"):
        compose_direct_sum_projections(space, [(good, bad), (good, good)],
                                       np.concatenate([z0i, z0i]))


def test_esum_dominator_componentwise():
    comp = linf(2)
    space = norms.make_esum([comp, comp, comp], weighted_lp(1, [1.0, 2.0, 0.5]))
    y_i = subspace_from_basis(2, [[1.0, 0.0]])
    rng = np.random.default_rng(9)
    x = rng.normal(size=6)
    a_pts = np.zeros((3, 6))
    for i in range(3):
        for c in range(3):
            a_pts[i, 2 * c] = rng.normal()
    y, report = esum_dominator(space, [y_i, y_i, y_i], x, a_pts)
    assert report["domination_ok"]
    assert report["component_bound_ok"]
    lhs = norms.eval_norm_many(space, y[None, :] - a_pts)
    rhs = norms.eval_norm_many(space, x[None, :] - a_pts)
    assert (lhs <= rhs * (1 + 1e-9) + 1e-12).all()


def test_esum_dominator_x_already_in_y():
    comp = l1(2)
    space = norms.make_esum([comp, comp], weighted_lp(1, [1.0, 1.0]))
    y_i = subspace_from_basis(2, [[1.0, 0.0]])
    x = np.array([1.0, 0.0, -2.0, 0.0])
    a_pts = x[None, :]
    y, report = esum_dominator(space, [y_i, y_i], x, a_pts)
    assert report["domination_ok"]
    assert norms.eval_norm(space, y - x) <= 1e-9


def test_lift_projection_k1_equals_base():
    base = linf(2)
    p = np.diag([1.0, 0.0])
    z1 = Subspace.full(2)
    res = lift_projection_linf_sum(base, p, z1, k=1, trials=50, seed=2)
    assert res.checks["lift_idempotent_bitexact"]
    assert np.array_equal(res.matrix, p)
    assert res.checks["central_preserved"]


def test_lift_projection_k3_coordinate():
    base = linf(2)
    p = np.diag([1.0, 0.0])
    z1 = subspace_from_basis(2, [[0.0, 1.0]])
    res = lift_projection_linf_sum(base, p, z1, k=3, trials=60, seed=7)
    assert all(res.checks.values())
    assert res.matrix.shape == (6, 6)


def test_lift_projection_reports_hypothesis_violation():
    base = linf(2)
    bad = np.array([[1.0, 1.0], [0.0, 1.0]])  # not idempotent
    res = lift_projection_linf_sum(base, bad, Subspace.full(2), k=2)
    assert not res.checks["idempotent"]
    assert res.central is None


def test_three_ball_whole_space_passes():
    space = make_direct_sum([l1(1), l1(1)], max_combiner(2))
    verdict = mideal_three_ball_check(space, Subspace.full(2), trials=50, seed=0)
    assert verdict.passed


def test_three_ball_max_summand_passes():
    space = make_direct_sum([l1(1), l1(1)], max_combiner(2))
    z = subspace_from_basis(2, [[1.0, 0.0]])
    verdict = mideal_three_ball_check(space, z, trials=500, eps=1e-6, seed=0)
    assert verdict.passed
    assert "500" in verdict.note


def test_three_ball_sum_summand_fails_with_certificate():
    space = make_direct_sum([l1(1), l1(1)], sum_combiner(2))
    z = subspace_from_basis(2, [[1.0, 0.0]])
    verdict = mideal_three_ball_check(space, z, trials=500, eps=1e-6, seed=0)
    assert not verdict.passed
    assert verdict.witness_family is not None
    res = verdict.result
    assert res.status == geometry.INFEASIBLE
    assert optim.verify_farkas(res.lp, res.outcome.farkas_ub,
                               res.outcome.farkas_eq)


def test_three_ball_audit_refuses_a_wrong_distance():
    space = make_direct_sum([l1(1), l1(1)], sum_combiner(2))
    z = subspace_from_basis(2, [[1.0, 0.0]])
    verts = norms._annihilator_vertices(space, z)
    # without its maximizing vertex (0, 1) the set gives 0 for every point
    # above the axis
    z._dual_vertices[space] = np.delete(verts, verts[:, 1].argmax(), axis=0)
    with pytest.raises(OptimizationError):
        mideal_three_ball_check(space, z, trials=500, eps=1e-6, seed=0)


def test_three_ball_handcrafted_l1_counterexample():
    # independent witness: balls at (0,1),(2,1),(1,0) with radius 1 pairwise
    # meet the x-axis and share (1,1), but the enlarged triple misses the axis
    space = l1(2)
    z = subspace_from_basis(2, [[1.0, 0.0]])
    centers = np.array([[0.0, 1.0], [2.0, 1.0], [1.0, 0.0]])
    radii = np.array([1.0, 1.0, 1.0])
    w = np.array([1.0, 1.0])
    assert (norms.eval_norm_many(space, w[None, :] - centers) <= radii + 1e-12).all()
    for c, r in zip(centers, radii):
        d, _ = norms.dist_to_subspace(space, c, z)
        assert d <= r + 1e-12
    enlarged = BallFamily.from_arrays(centers, radii + 1e-6)
    res = balls_intersect(space, enlarged, z)
    assert res.status == geometry.INFEASIBLE


def test_decompose_min_sum_member_of_y():
    space = linf(3)
    y = subspace_from_basis(3, [[1.0, 0.0, -1.0]])
    z = subspace_from_basis(3, [[0.0, 1.0, -1.0]])
    x = y.embed(np.array([2.0]))
    dec = decompose_min_sum(space, x, y, z)
    assert dec.ratio == pytest.approx(1.0, abs=1e-9)
    assert norms.eval_norm(space, dec.z) <= 1e-9


def test_decompose_value_at_least_norm():
    rng = np.random.default_rng(10)
    space = linf(3)
    y = subspace_from_basis(3, [[1.0, 0.0, -1.0]])
    z = subspace_from_basis(3, [[0.0, 1.0, -1.0]])
    for _ in range(20):
        x = y.embed(rng.normal(size=1)) + z.embed(rng.normal(size=1))
        dec = decompose_min_sum(space, x, y, z)
        assert dec.value >= norms.eval_norm(space, x) - 1e-9
        assert np.allclose(dec.y + dec.z, x, atol=1e-8)


def test_decompose_matches_grid_oracle():
    # Y and Z overlap in span{e2}, so decompositions have one degree of
    # freedom: y = (x1, s, 0), z = (0, x2 - s, x3).
    rng = np.random.default_rng(20)
    for space in (linf(3), l1(3)):
        y = subspace_from_basis(3, [[1, 0, 0], [0, 1, 0.0]])
        z = subspace_from_basis(3, [[0, 1, 0], [0, 0, 1.0]])
        for _ in range(5):
            x = rng.normal(size=3)
            dec = decompose_min_sum(space, x, y, z)

            def fun(s):
                yv = np.array([x[0], s[0], 0.0])
                zv = x - yv
                return norms.eval_norm(space, yv) + norms.eval_norm(space, zv)

            oracle, _ = grid_minimize(fun, np.zeros(1), 6.0, steps=41,
                                      refinements=6)
            assert dec.value == pytest.approx(oracle, abs=1e-3)


def test_decompose_non_polyhedral_matches_scalar_minimum():
    # the subgradient route of solve_center; Y ∩ Z = span{e2}, so the
    # decompositions are y = (x1, s, 0), z = x - y, one scalar s each
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(21)
    y = subspace_from_basis(3, [[1, 0, 0], [0, 1, 0.0]])
    z = subspace_from_basis(3, [[0, 1, 0], [0, 0, 1.0]])
    for space in (l2(3), norms.lp_norm(2.5, 3),
                  norms.make_esum([linf(1), l2(2)], weighted_lp(2, [1.0, 1.5]))):
        for _ in range(5):
            x = rng.normal(size=3)
            dec = decompose_min_sum(space, x, y, z)

            def fun(s):
                yv = np.array([x[0], s, 0.0])
                return norms.eval_norm(space, yv) + norms.eval_norm(space, x - yv)

            ref = optimize.minimize_scalar(fun, bounds=(-10.0, 10.0), method="bounded",
                                           options={"xatol": 1e-12}).fun
            assert dec.value == pytest.approx(ref, rel=1e-9)
            assert y.contains(dec.y) and z.contains(dec.z)
            assert np.allclose(dec.y + dec.z, x, rtol=0.0, atol=1e-12)


def test_decompose_checks_dimensions():
    space = linf(3)
    y = subspace_from_basis(3, [[1.0, 0.0, -1.0]])
    z = subspace_from_basis(3, [[0.0, 1.0, -1.0]])
    off = subspace_from_basis(2, [[1.0, 0.0]])
    with pytest.raises(DimensionMismatchError, match="x of shape \\(2,\\)"):
        decompose_min_sum(space, np.zeros(2), y, z)
    with pytest.raises(DimensionMismatchError, match="Y in dim 2 and Z in dim 3"):
        decompose_min_sum(space, np.zeros(3), off, z)
    with pytest.raises(DimensionMismatchError, match="Y in dim 3 and Z in dim 2"):
        decompose_min_sum(space, np.zeros(3), y, off)


def test_decompose_rejects_x_outside_sum():
    space = linf(3)
    y = subspace_from_basis(3, [[1.0, 0.0, -1.0]])
    z = subspace_from_basis(3, [[0.0, 1.0, -1.0]])
    with pytest.raises(ValueError, match="Y \\+ Z"):
        decompose_min_sum(space, np.array([1.0, 1.0, 1.0]), y, z)


def test_gamma_estimate_at_least_one():
    space = linf(3)
    y = subspace_from_basis(3, [[1.0, 0.0, -1.0]])
    z = subspace_from_basis(3, [[0.0, 1.0, -1.0]])
    gamma = gamma_estimate(space, y, z, samples=30, seed=3)
    assert gamma >= 1.0 - 1e-9


def test_family_json_roundtrip():
    fam = reference_family()
    back = family_from_json(family_to_json(fam))
    assert np.array_equal(back.centers, fam.centers)
    assert np.array_equal(back.radii, fam.radii)
