import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

import oracles
from oracles import grid_minimize

Y_CENTERS = np.array([[-2.0, 1.0, 1.0], [1.0, 1.0, -2.0], [1.0, -2.0, 1.0]])
RADII = np.array([1.5, 1.5, 1.5])


def plane():
    return sum_subspaces(subspace_from_basis(3, [[1.0, 0.0, -1.0]]),
                         subspace_from_basis(3, [[0.0, 1.0, -1.0]]))


def reference_family():
    return BallFamily(Y_CENTERS, RADII)


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
    assert optim.verify_farkas(res.lp, res.outcome.farkas_ub)


def test_single_ball_witness_is_center():
    fam = BallFamily([[1.0, 2.0]], [0.0])
    res = balls_intersect(l1(2), fam)
    assert res.status == geometry.FEASIBLE
    assert np.allclose(res.witness, [1.0, 2.0], atol=1e-9)


@pytest.mark.parametrize("center, radius, message", [
    (np.zeros(2), np.nan, "must be finite"),
    ([np.inf, 0.0], 1.0, "must be finite"),
    (np.zeros(2), np.inf, "must be finite"),
    ([np.nan, 0.0], 1.0, "must be finite"),
    (np.zeros(2), -1.0, "nonnegative")])
def test_balls_refuse_malformed_centers_and_radii(center, radius, message):
    with pytest.raises(ValueError, match=message):
        BallFamily([center], [radius])


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
        fam = BallFamily(centers, radii)
        if balls_intersect(space, fam, small).status == geometry.FEASIBLE:
            assert balls_intersect(space, fam, big).status == geometry.FEASIBLE
            assert balls_intersect(space, fam).status == geometry.FEASIBLE


def test_l2_intersection_semi_decision():
    fam = BallFamily([[0.0, 0.0], [2.0, 0.0]], [1.0, 1.0])
    res = balls_intersect(l2(2), fam)
    assert res.status == geometry.FEASIBLE
    assert np.allclose(res.witness, [1.0, 0.0], atol=1e-4)
    tight = BallFamily([[0.0, 0.0], [2.0, 0.0]], [0.8, 0.8])
    res2 = balls_intersect(l2(2), tight)
    assert res2.status == geometry.UNRESOLVED  # never certified infeasible


def test_l2_zero_radius_ball_in_the_whole_space_is_feasible():
    fam = BallFamily([[0.0, 0.0], [1.0, 0.0]], [0.0, 1.0])
    res = balls_intersect(l2(2), fam)
    assert res.status == geometry.FEASIBLE
    assert np.allclose(res.witness, [0.0, 0.0], atol=1e-8)


def test_l2_zero_radius_ball_off_the_subspace_is_never_feasible():
    # the point ball (1, 0) lies off span{e2}, so no witness on the line may
    # be reported, its center least of all
    line = subspace_from_basis(2, [[0.0, 1.0]])
    fam = BallFamily([[1.0, 0.0], [1.0, 1.0]], [0.0, 1.0])
    res = balls_intersect(l2(2), fam, line)
    assert res.status == geometry.UNRESOLVED
    assert line.contains(res.witness)


def test_balls_in_the_zero_subspace_are_decided_without_unknowns():
    # With each radius folded into its rows, the sup-norm ball LP over the
    # zero subspace has rows and no unknowns: the balls meet there when
    # every one holds the origin, and otherwise a single row proves they
    # do not.
    zero = Subspace.zero(3)
    res = balls_intersect(linf(3), reference_family(), zero)
    assert res.lp.n_vars == 0
    assert res.status == geometry.INFEASIBLE and res.certified
    res = balls_intersect(linf(3), BallFamily(Y_CENTERS, [2.0, 2.0, 2.0]), zero)
    assert res.status == geometry.FEASIBLE
    assert res.witness.tolist() == [0.0, 0.0, 0.0]


NON_POLYHEDRAL = (l2, lambda n: norms.lp_norm(2.5, n),
                  lambda n: norms.make_esum([linf(1), l2(n - 1)],
                                            weighted_lp(2, [1.0, 1.5])))


@pytest.mark.parametrize("make_space", NON_POLYHEDRAL, ids=["l2", "l2.5", "esum"])
def test_inflated_witness_first_families_are_feasible(make_space):
    rng = np.random.default_rng(23)
    for trial in range(4):
        n = 2 + trial % 2
        space = make_space(n)
        within = (None if trial == 0
                  else subspace_from_basis(n, rng.normal(size=(n - 1, n))))
        basis = np.eye(n) if within is None else within.basis
        w = basis @ rng.normal(size=basis.shape[1])
        centers = rng.normal(size=(3, n)) * 2.0
        radii = norms.eval_norm_many(space, w[None, :] - centers) * \
            (1.0 + rng.uniform(1e-3, 0.2, size=3))
        res = balls_intersect(space, BallFamily(centers, radii), within)
        assert res.status == geometry.FEASIBLE
        assert within is None or within.contains(res.witness)


@pytest.mark.parametrize("make_space", NON_POLYHEDRAL, ids=["l2", "l2.5", "esum"])
def test_separated_balls_are_unresolved(make_space):
    space = make_space(2)
    far = np.array([3.0, 1.0])
    gap = norms.eval_norm(space, far)
    fam = BallFamily([np.zeros(2), far], [0.4 * gap, 0.6 * gap - 2e-3])
    assert balls_intersect(space, fam).status == geometry.UNRESOLVED


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
    assert not verdict.passed and verdict.decided == "exact"
    assert verdict.trials_run == 0 and "injected" in verdict.note
    assert np.allclose(verdict.family.centers, Y_CENTERS)
    assert verdict.result.status == geometry.INFEASIBLE


def test_ac_dominator_singleton_and_self():
    space = linf(3)
    y = plane()
    a = y.embed(np.array([0.3, -0.7]))
    res = ac_dominator(space, y, [a], np.array([2.0, 1.0, 0.0]))
    assert res.passed and res.decided == "exact" and res.family is None
    cap = norms.eval_norm(space, np.array([2.0, 1.0, 0.0]) - a)
    assert norms.eval_norm(space, res.witness - a) <= cap + 1e-9


def test_ac_dominator_reference_counterexample():
    x = np.array([-0.5, -0.5, -0.5])
    res = ac_dominator(linf(3), plane(), Y_CENTERS, x)
    assert res.passed is False and res.decided == "exact"
    assert res.result.certified
    # the refuting balls are B(a, ||x - a||), which meet at x
    assert res.family.centers.tobytes() == np.asarray(Y_CENTERS, dtype=float).tobytes()
    assert (res.family.radii == norms.eval_norm_many(linf(3), x - Y_CENTERS)).all()


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
    assert res.passed


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


def test_verify_projection_samples_past_the_vertex_enumeration_cap():
    # l1 on R^8 over a coordinate 3-space: the span has dimension 4, but its
    # 256 generators give C(256, 4) ~ 1.7e8 row subsets, past the cap of
    # optim.enumerate_vertices, so the check is sampled
    space = l1(8)
    y = subspace_from_basis(8, np.eye(8)[:3])
    pd = ProjectionData(y, np.eye(8)[3] + np.eye(8)[4], np.zeros(8))
    verdict = verify_norm1_projection(space, pd)
    assert verdict.mode == "sampled-fallback"
    assert verdict.accepted


def test_verify_projection_past_the_generator_cap_is_a_fallback():
    # l1 on R^16 has 2^16 generators, past the check's cap of 20,000, so the
    # check is sampled; the norm is polyhedral, so it is a fallback
    # ("sampled" is for norms that are not polyhedral)
    space = l1(16)
    y = subspace_from_basis(16, np.eye(16)[:1])
    x = np.eye(16)[1]
    verdict = verify_norm1_projection(space, ProjectionData(y, x, np.zeros(16)))
    assert verdict.mode == "sampled-fallback"
    assert verdict.accepted
    out = almost_constrained_probe(space, y, x)
    assert out.passed and out.decided == "sampled"
    assert out.note == "the image passed a sampled-fallback norm-one projection check"


def test_verify_projection_exact_at_a_transversal_of_scale_1e10():
    # the unit ball of span{x, Y} has a well-posed vertex basis however large
    # x is, so the check stays exact and rejects an image of norm 5 ||x||
    space = linf(3)
    y = subspace_from_basis(3, np.eye(3)[:2])
    x = 1e10 * np.eye(3)[2]
    good = verify_norm1_projection(space, ProjectionData(y, x, np.zeros(3)))
    assert good.accepted and good.mode == "exact"
    bad = verify_norm1_projection(space, ProjectionData(y, x, 5e10 * np.eye(3)[0]))
    assert not bad.accepted and bad.mode == "exact"
    assert bad.max_violation == pytest.approx(5.0)


def test_verify_projection_without_vertices_is_a_fallback(monkeypatch):
    # an enumeration that finds no vertex of the unit ball checks nothing:
    # the check samples, and still rejects an image of norm 5 ||x||
    monkeypatch.setattr(norms, "sublevel_vertices", lambda *args: np.zeros((0, 3)))
    y = subspace_from_basis(3, np.eye(3)[:2])
    pd = ProjectionData(y, np.eye(3)[2], 5.0 * np.eye(3)[0])
    verdict = verify_norm1_projection(linf(3), pd)
    assert verdict.mode == "sampled-fallback" and not verdict.accepted


def test_almost_constrained_probe_finds_candidate():
    space = linf(3)
    y = subspace_from_basis(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x = np.array([0.3, 0.4, 2.0])
    out = almost_constrained_probe(space, y, x, seed=5)
    assert out.passed and out.decided == "exact"
    assert out.note == "the image passed an exact norm-one projection check"
    assert verify_norm1_projection(space, ProjectionData(y, x, out.witness)).accepted


def test_almost_constrained_probe_falsifies_plane():
    out = almost_constrained_probe(linf(3), plane(),
                                   np.array([-0.5, -0.5, -0.5]),
                                   inject=[Y_CENTERS])
    assert out.passed is False and out.decided == "exact"
    assert out.trials_run == 1 and out.family.size >= 3


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
        if out.passed:
            pd = ProjectionData(y, x, out.witness)
            assert verify_norm1_projection(space, pd).accepted
        elif out.passed is False:
            net = out.family.centers
            caps = norms.eval_norm_many(space, x[None, :] - net)
            assert (caps == out.family.radii).all()
            found = False
            for alpha in np.random.default_rng(99).normal(size=(4000, 2)) * 3:
                cand = y.embed(alpha)
                if (norms.eval_norm_many(space, cand[None, :] - net)
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
    family = BallFamily([[-1.0, 0, 0, 0], [1.0, 0, 0, 0]], [1.2, 1.2])

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
            rng.normal(size=lp.n_vars), lp.a_ub, lp.b_ub))
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
    fam = BallFamily([[0.0, 0.0]], [1.0])
    res = locally_constrained_transfer(space, whole, whole, whole, fam,
                                       lambda z: None)
    assert res.ok and res.stage == "done"


def test_transfer_reports_infeasible_stage():
    space = linf(4)
    z1 = subspace_from_basis(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    y = subspace_from_basis(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    z2 = subspace_from_basis(4, [[1.0, 0.0, 0.0, 0.0]])
    family = BallFamily([[-1.0, 0, 0, 0], [1.0, 0, 0, 0]], [0.4, 0.4])
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
    p, q, report = compose_direct_sum_projections(space, pairs, z0)
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


def test_lift_projection_of_rank_two():
    # the range of a rank-2 projection is spanned by its two column-space
    # rows; read as columns they would make a dependent pair
    base = linf(3)
    p = np.diag([1.0, 1.0, 0.0])
    res = lift_projection_linf_sum(base, p, Subspace.full(3), k=2, trials=20,
                                   seed=1)
    assert all(res.checks.values())
    assert res.central.passed


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
    assert not verdict.passed and verdict.decided == "exact"
    assert verdict.family.size == 3
    assert verdict.result.certified


def test_non_polyhedral_three_ball_check_draws_no_trial_ahead(monkeypatch):
    # Under l2 the trials are not batched, so a failing check computes the
    # distances of its trials up to the failing one and of none after it.
    real = geometry.dist_to_subspace_many
    drawn = []

    def spy(space, xs, z):
        drawn.append(len(xs))
        return real(space, xs, z)

    monkeypatch.setattr(geometry, "dist_to_subspace_many", spy)
    verdict = mideal_three_ball_check(l2(3), subspace_from_basis(3, [[1.0, 0.0, 0.0]]),
                                      trials=200, eps=1e-6, seed=0)
    assert not verdict.passed and 1 < verdict.trials_run < geometry._DRAW_AHEAD
    assert drawn == [3] * verdict.trials_run


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
    enlarged = BallFamily(centers, radii + 1e-6)
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


def _solve_spy(monkeypatch):
    """Record (lp, outcome) of each `optim.lp_solve` call, in order."""
    real = optim.lp_solve
    calls = []

    def capture(lp, *args, **kwargs):
        out = real(lp, *args, **kwargs)
        calls.append((lp, out))
        return out

    monkeypatch.setattr(optim, "lp_solve", capture)
    return calls


def _same_lp(lp, other) -> bool:
    """Whether two LPs have the same objective, rows and b, byte for byte."""
    return all(getattr(lp, a).tobytes() == getattr(other, a).tobytes()
               for a in ("objective", "a_ub", "b_ub"))


def _chain_space(kind, n, rng):
    def poly(m):
        gens = rng.normal(size=(m + 1, m))
        return norms.polyhedral(np.vstack([gens, -gens]))
    if kind in ("linf", "l1"):
        return (linf, l1)[kind == "l1"](n)
    if kind == "poly":
        return poly(n)
    if kind == "wide-sum":
        # 16-40 coordinates, where BLAS sums a row over the whole offset in
        # another order than over its component's slice
        total, dims = int(rng.integers(16, 41)), []
        while total - sum(dims) > 11:
            dims.append(int(rng.integers(2, 10)))
        dims.append(total - sum(dims))
        combiner = (max_combiner, sum_combiner)[int(rng.integers(2))]
        return make_direct_sum([poly(d) for d in dims], combiner(len(dims)))
    split = int(rng.integers(1, n))
    combiner = (max_combiner, sum_combiner)[kind == "sum-sum"]
    return make_direct_sum([linf(split), (l1, poly)[int(rng.integers(2))](n - split)],
                           combiner(2))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6), k=st.integers(1, 4),
       kind=st.sampled_from(["linf", "l1", "poly", "max-sum", "sum-sum",
                             "wide-sum"]),
       within=st.sampled_from(["whole", "random", "coordinate"]))
def test_ball_lp_chain_matches_fresh_builds(seed, n, k, kind, within):
    # The LP a family is intersected by, in a query or a checker's trial
    # alike (`geometry._intersect`, through `_ball_lp`), is the family's
    # fresh build, unpadded: its rows and its b, with b from the norm's
    # `epigraph_rhs` and each ball's radius folded in, are those of
    # `oracles.ball_lp_by_rows`, which builds ball by ball and folds row by
    # row, byte for byte, the sign of a zero included, so it solves to the
    # same bytes, also in sum norms of 16-40 coordinates.  Centers in a
    # coordinate subspace put exact (signed) zeros into the offsets.  The
    # solver is a stub that finds every LP infeasible: each result's `lp`
    # is the LP it was given.
    rng = np.random.default_rng(seed)
    space = _chain_space(kind, n, rng)
    n = norms.space_dim(space)
    sub = None
    if within == "random":
        sub = subspace_from_basis(n, rng.normal(size=(int(rng.integers(1, n)), n)))
    elif within == "coordinate":
        picked = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        sub = subspace_from_basis(n, np.eye(n)[picked])
    basis = np.eye(n) if sub is None else sub.basis
    families = []
    stub = optim.LpOutcome(optim.INFEASIBLE)
    real, optim.lp_solve = optim.lp_solve, lambda lp: stub
    try:
        for trial in range(4):
            w = basis @ rng.normal(size=basis.shape[1])
            centers = rng.normal(size=(k, n)) * 1.5
            if trial % 2:
                centers = (basis @ rng.normal(size=(basis.shape[1], k))).T
            radii = norms.eval_norm_many(space, w[None, :] - centers) * \
                rng.uniform(0.7, 1.2, size=k)
            families.append((geometry._intersect(space, sub, centers, radii).lp,
                             centers, radii))
    finally:
        optim.lp_solve = real
    for lp, centers, radii in families:
        assert _same_lp(lp, oracles.ball_lp_by_rows(space, basis, centers, radii))

    def no_solve(*args, **kwargs):
        raise AssertionError("a non-finite ball reached the solver")

    bad_centers, bad_radii = centers.copy(), radii.copy()
    bad_centers[0, -1], bad_radii[-1] = np.nan, np.inf
    real, optim.lp_solve = optim.lp_solve, no_solve
    try:
        for c, r in ((bad_centers, radii), (centers, bad_radii)):
            with pytest.raises(ValueError):
                geometry._intersect(space, sub, c, r)
    finally:
        optim.lp_solve = real


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6), k=st.integers(1, 4),
       kind=st.sampled_from(["linf", "l1", "poly", "max-sum", "sum-sum",
                             "wide-sum"]),
       within=st.sampled_from(["whole", "random", "coordinate"]))
def test_folded_ball_lps_decide_as_unfolded_ones(seed, n, k, kind, within):
    # Folding t_i = r_i into each ball's epigraph rows leaves the set where
    # the balls meet as it is: over families that meet and families that
    # miss, the folded LP, over the coordinates and the norm's auxiliaries
    # alone, ends as the unfolded one, with a column t_i and a row
    # t_i <= r_i a ball, does; every Farkas vector verifies on the folded
    # LP and every witness passes the ball audit.  On the wide sums alone
    # either may end in a breakdown, the simplex's known stall on those
    # LPs; everywhere else neither does.
    rng = np.random.default_rng(seed)
    space = _chain_space(kind, n, rng)
    n = norms.space_dim(space)
    basis = np.eye(n)
    if within == "random":
        basis = subspace_from_basis(n, rng.normal(size=(int(rng.integers(1, n)), n))).basis
    elif within == "coordinate":
        picked = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        basis = subspace_from_basis(n, np.eye(n)[picked]).basis
    for trial in range(2):
        w = basis @ rng.normal(size=basis.shape[1])
        centers = rng.normal(size=(k, n)) * 1.5
        if trial % 2:
            centers = (basis @ rng.normal(size=(basis.shape[1], k))).T
        radii = norms.eval_norm_many(space, w[None, :] - centers) * \
            rng.uniform(0.7, 1.2, size=k)
        lp = geometry._ball_lp(space, basis, centers, radii)
        unfolded = oracles.ball_lp_by_rows(space, basis, centers, radii, fold=False)
        assert lp.n_vars == unfolded.n_vars - k
        # the t columns: +1 in the k rows t_i <= r_i, and 0 or -1 elsewhere
        d = basis.shape[1]
        t_cols = unfolded.a_ub[:, d:d + k]
        bounds = (t_cols > 0).any(axis=1)
        assert bounds.sum() == k
        assert set(t_cols[~bounds].ravel().tolist()) <= {0.0, -1.0}
        out, ref = optim.lp_solve(lp), optim.lp_solve(unfolded)
        if optim.BREAKDOWN in (out.status, ref.status):
            assert kind == "wide-sum"
            continue
        assert out.status == ref.status
        if out.status == optim.INFEASIBLE:
            assert optim.verify_farkas(lp, out.farkas_ub)
        else:
            assert out.status == optim.OPTIMAL
            witness = basis @ out.x[:basis.shape[1]]
            gaps = norms.eval_norm_many(space, witness[None, :] - centers) - radii
            geometry._audit_gap(gaps.max(), radii)


def _draw_cases():
    data = instances.mideal_scenarios()
    gens = np.random.default_rng(5).normal(size=(4, 3))
    return [("linf", linf(3), plane()), ("l1", l1(3), plane()),
            ("poly", norms.polyhedral(np.vstack([gens, -gens])),
             subspace_from_basis(3, [[1.0, -0.5, 0.25]])),
            ("max-sum", data["max_space"], data["first_summand"]),
            ("sum-sum", data["sum_space"], data["first_summand"]),
            ("l2", l2(3), plane())]


@pytest.mark.parametrize("name,space,sub",
                         [pytest.param(*case, id=case[0]) for case in _draw_cases()])
def test_chunk_draws_are_the_draws_of_one_trial_at_a_time(name, space, sub):
    # Both checkers draw a chunk of trials per call, with one trial's random
    # calls after another's, then take the radii, the distances to the
    # subspace and the points of the whole chunk in one array call each:
    # every trial's centers, radii and point are those of the draws made
    # one trial at a time, byte for byte, over chunks of 64, 64 and 9 (of
    # 2 and 1 under l2, whose distances are barrier solves).
    chunks = (2, 1) if name == "l2" else (64, 64, 9)
    for make, reference in (
            (lambda rng: geometry._central_draw(space, sub, None, rng),
             lambda trials: oracles.central_trials(space, sub, trials, 3)),
            (lambda rng: geometry._three_ball_draw(space, sub, 1e-6, rng),
             lambda trials: oracles.three_ball_trials(space, sub, trials, 1e-6, 3))):
        draw = make(np.random.default_rng(3))
        drawn = []
        for count in chunks:
            centers, radii, starts, points, *_ = draw(count)
            assert len(starts) == len(points) == count
            ends = np.append(starts[1:], len(radii))
            drawn += [(centers[s:e], radii[s:e], p)
                      for s, e, p in zip(starts, ends, points)]
        ref = list(reference(sum(chunks)))
        assert len(drawn) == len(ref)
        for got, want in zip(drawn, ref):
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


def _trial_spy(monkeypatch):
    """Record [(trial, its balls' rows, result), ...] of the trials of each
    check that `geometry._solved_ahead` yields, those their points do not
    hold."""
    real = geometry._solved_ahead
    runs = []

    def capture(space, within, trials, draw):
        runs.append([])
        for trial, item, res in real(space, within, trials, draw):
            runs[-1].append((trial, item, res))
            yield trial, item, res

    monkeypatch.setattr(geometry, "_solved_ahead", capture)
    return runs


def _checker_cases():
    data = instances.mideal_scenarios()
    rng = np.random.default_rng(5)
    gens = rng.normal(size=(4, 3))
    plane = subspace_from_basis(3, [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
    return [
        ("max-sum", data["max_space"], data["first_summand"]),
        ("sum-sum", data["sum_space"], data["first_summand"]),
        ("linf-axes", linf(4), subspace_from_basis(4, [[0, 1, 0, 0], [0, 0, 0, 1]])),
        ("poly-line", norms.polyhedral(np.vstack([gens, -gens])),
         subspace_from_basis(3, [[1.0, -0.5, 0.25]])),
        ("linf-plane", linf(3), plane),
        ("l1-plane", l1(3), plane),
    ]


@pytest.mark.parametrize("name,space,sub",
                         [pytest.param(*case, id=case[0]) for case in _checker_cases()])
def test_checkers_match_a_fresh_build_of_every_trial(monkeypatch, name, space, sub):
    # Each trial of both checkers, up to their verdict, is either held by
    # the point of the reference's draw (a point of the subspace that every
    # ball of the reference's family holds, and the fresh LP of its family
    # is feasible) and not yielded, or yielded with the reference's family
    # and solved alone as the LP of a fresh build of that family, unpadded
    # and folded (`oracles.ball_lp_by_rows`), byte for byte, by one
    # `optim.lp_solve` with a fresh solve's outcome.  The checkers solve
    # those LPs in seed order and no other, but for the three distances a
    # failing three-ball check audits, and up to the verdict the reference
    # search's LP, padded by repeated balls, has the unpadded LP's status,
    # folded or not.  Verdicts, notes, trials run and failing families are
    # those of that trial-by-trial reference.
    # The three-ball check fails on the sum summand, the polyhedral line and
    # the sup-norm plane, the central check on the two planes.
    calls = _solve_spy(monkeypatch)
    runs = _trial_spy(monkeypatch)
    central = central_subspace_check(space, sub, trials=400, seed=0)
    solved = {"central": list(calls)}
    calls.clear()
    three = mideal_three_ball_check(space, sub, trials=200, eps=1e-6, seed=0)
    solved["mideal"] = list(calls)
    monkeypatch.undo()
    basis = np.array(sub.basis)
    for kind, verdict, run, families, size, trials in (
            ("central", central, runs[0], oracles.central_trials(space, sub, 400, 0), 4, 400),
            ("mideal", three, runs[1], oracles.three_ball_trials(space, sub, 200, 1e-6, 0),
             3, 200)):
        yielded = {trial: (item, res) for trial, item, res in run}
        assert max(yielded, default=0) <= verdict.trials_run
        if not verdict.passed:
            assert max(yielded) == verdict.trials_run
        fresh_lps = []
        for trial, (centers, radii, point) in enumerate(
                itertools.islice(families, verdict.trials_run), 1):
            pad = np.arange(size) % len(radii)
            fresh = oracles.ball_lp_by_rows(space, basis, centers, radii)
            status = optim.lp_solve(fresh).status
            assert optim.lp_solve(oracles.ball_lp_by_rows(
                space, basis, centers[pad], radii[pad])).status == status
            assert optim.lp_solve(oracles.ball_lp_by_rows(
                space, basis, centers[pad], radii[pad], fold=False)).status == status
            held = (norms.eval_norm_many(space, point - centers) <= radii).all()
            assert held == (trial not in yielded)
            if held:
                assert sub.contains(point, tol=1e-12)
                assert status == optim.OPTIMAL
            else:
                (got_centers, got_radii, *_), res = yielded[trial]
                assert got_centers.tobytes() == centers.tobytes()
                assert got_radii.tobytes() == radii.tobytes()
                assert res.status == (geometry.FEASIBLE if status == optim.OPTIMAL
                                      else geometry.INFEASIBLE)
                assert _same_lp(res.lp, fresh)
                fresh_lps.append(fresh)
        audited = 3 if kind == "mideal" and not verdict.passed else 0
        assert len(solved[kind]) == len(fresh_lps) + audited
        for (lp, out), fresh in zip(solved[kind], fresh_lps):
            ref = optim.lp_solve(fresh)
            assert _same_lp(lp, fresh)
            assert (out.status, out.iterations) == (ref.status, ref.iterations)
            for got, want in ((out.x, ref.x), (out.farkas_ub, ref.farkas_ub)):
                assert (got is None and want is None) or got.tobytes() == want.tobytes()
        passed, decided, runs_ref, note, family = oracles.verdict_by_trials(
            kind, space, sub, trials, 0)
        assert (verdict.passed, verdict.decided, verdict.trials_run, verdict.note) == \
            (passed, decided, runs_ref, note)
        if family is not None:
            assert verdict.family.centers.tobytes() == family[0].tobytes()
            assert verdict.family.radii.tobytes() == family[1].tobytes()
            assert verdict.result.certified
    assert (name in ("linf-plane", "l1-plane")) == (not central.passed)
    assert (name in ("sum-sum", "poly-line", "linf-plane")) == (not three.passed)


# a random plane of l1(R^3), the rows of default_rng(4).normal(size=(2, 3))
# to three decimals, where some trials' points miss a ball
L1_PLANE = [[-0.652, -0.175, 1.664], [0.659, -1.641, -0.005]]


def test_a_three_ball_check_builds_its_rows_once(monkeypatch):
    # Each trial that its point does not settle builds its rows once and is
    # solved once, by one `optim.lp_solve` of its own LP, when its turn
    # comes; a check whose every trial its point holds builds and solves
    # nothing.  A one-shot query builds once and solves once too.
    data = instances.mideal_scenarios()
    real_build = optim.LpBuilder.build
    builds = []

    def counted(self):
        builds.append(1)
        return real_build(self)

    monkeypatch.setattr(optim.LpBuilder, "build", counted)
    solves = _solve_spy(monkeypatch)
    runs = _trial_spy(monkeypatch)
    verdict = mideal_three_ball_check(data["max_space"], data["first_summand"],
                                      trials=200, eps=1e-6, seed=0)
    assert verdict.passed and verdict.trials_run == 200
    assert not builds and not solves
    verdict = mideal_three_ball_check(data["sum_space"], data["first_summand"],
                                      trials=200, eps=1e-6, seed=0)
    assert not verdict.passed
    # 2 unheld trials up to the failing 4th, and the distance audit of the
    # failing triple: 3 LPs, each built and solved
    assert [trial for trial, *_ in runs[1]] == [3, verdict.trials_run] == [3, 4]
    assert len(builds) == len(solves) == 2 + 3
    builds.clear()
    solves.clear()
    # the passing `property central` instance of the benchmark's cli workload
    central = central_subspace_check(linf(5), subspace_from_basis(5, np.eye(5)[[1, 3]]),
                                     trials=25, seed=0)
    assert central.passed and central.trials_run == 25
    assert not builds and not solves
    central = central_subspace_check(l1(3), subspace_from_basis(3, L1_PLANE),
                                     trials=200, seed=0)
    assert central.passed and central.trials_run == 200
    assert 0 < len(builds) == len(solves) == len(runs[3]) < 200
    builds.clear()
    solves.clear()
    balls_intersect(linf(3), reference_family(), plane())
    assert len(builds) == len(solves) == 1


def test_an_l2_central_check_runs_no_center_solve(monkeypatch):
    # Under the Euclidean norm the orthogonal projection has norm one, so
    # the projection of every trial's witness is in all its balls: no trial
    # reaches the barrier's ball search.
    real = geometry.solve_center
    problems = []

    def counted(problem):
        problems.append(problem)
        return real(problem)

    monkeypatch.setattr(geometry, "solve_center", counted)
    verdict = central_subspace_check(l2(3), plane(), trials=50, seed=0)
    assert verdict.passed and verdict.decided == "sampled"
    assert verdict.trials_run == 50
    assert problems == []


def test_trials_whose_points_miss_reach_the_lockstep(monkeypatch):
    # On a plane of l1(R^3) the projection of a witness misses some balls:
    # exactly those trials are solved, each alone and in seed order by one
    # `optim.lp_solve` of the LP its result holds, and each is feasible.  A
    # check that fails solves the unheld trials up to its `trials_run` and
    # none after: the three-ball check on the sum summand, whose failing
    # triple's three distances are then audited as LPs.
    calls = _solve_spy(monkeypatch)
    runs = _trial_spy(monkeypatch)
    verdict = central_subspace_check(l1(3), subspace_from_basis(3, L1_PLANE),
                                     trials=200, seed=0)
    assert verdict.passed
    missed = [res for _, _, res in runs[0]]
    assert 0 < len(missed) == len(calls) < 200
    assert all(res.lp is lp for res, (lp, _) in zip(missed, calls))
    assert all(out.status == optim.OPTIMAL for _, out in calls)
    calls.clear()
    data = instances.mideal_scenarios()
    three = mideal_three_ball_check(data["sum_space"], data["first_summand"],
                                    trials=200, eps=1e-6, seed=0)
    monkeypatch.undo()
    assert not three.passed
    missed = [res for _, _, res in runs[1]]
    assert runs[1][-1][0] == three.trials_run
    assert len(calls) == len(missed) + 3
    assert all(res.lp is lp for res, (lp, _) in zip(missed, calls))
    assert [out.status for _, out in calls[:len(missed)]] == \
        [optim.OPTIMAL] * (len(missed) - 1) + [optim.INFEASIBLE]


def test_checkers_refuse_subspaces_of_another_dimension():
    # Both checkers check their subspaces at their entry, as
    # `balls_intersect` does: a `sub`, `z` or `within` in R^4 for a norm on
    # R^3 is a DimensionMismatchError, not a broadcast error from a draw.
    r4 = subspace_from_basis(4, np.eye(4)[:2])
    for check in (lambda: central_subspace_check(linf(3), r4, 5, 0),
                  lambda: central_subspace_check(linf(3), plane(), 5, 0, within=r4),
                  lambda: mideal_three_ball_check(linf(3), r4, 5, seed=0),
                  lambda: balls_intersect(linf(3), reference_family(), r4)):
        with pytest.raises(DimensionMismatchError, match="subspace ambient dim mismatch"):
            check()


def _parity_cases():
    rng = np.random.default_rng(36)
    cases = []
    for name, space in (("linf", linf(3)), ("l1", l1(3)), ("l2", l2(3))):
        for i in range(3):
            cases.append((f"{name}-plane{i}", space,
                          subspace_from_basis(3, rng.normal(size=(2, 3)))))
    cases += [("linf-axes", linf(4), subspace_from_basis(4, np.eye(4)[[0, 2]])),
              ("l1-axis", l1(3), subspace_from_basis(3, np.eye(3)[[1]])),
              ("l2-axes", l2(3), subspace_from_basis(3, np.eye(3)[[0, 1]]))]
    return cases


@pytest.mark.parametrize("name,space,sub",
                         [pytest.param(*case, id=case[0]) for case in _parity_cases()])
def test_checkers_give_the_trial_by_trial_verdicts(name, space, sub):
    # Settling a trial by its point changes no verdict: both checkers give
    # the `passed`, `decided`, trials run, note and failing family of the
    # search that decides every trial by its own `balls_intersect`.
    trials = 30 if name.startswith("l2") else 200
    for seed in (0, 7):
        for kind, check in (("central", lambda: central_subspace_check(
                space, sub, trials=trials, seed=seed)),
                            ("mideal", lambda: mideal_three_ball_check(
                                space, sub, trials=trials, eps=1e-6, seed=seed))):
            verdict = check()
            passed, decided, run, note, family = oracles.verdict_by_trials(
                kind, space, sub, trials, seed)
            assert (verdict.passed, verdict.decided, verdict.trials_run, verdict.note) == \
                (passed, decided, run, note)
            assert (verdict.family is None) == (family is None)
            if family is not None:
                assert verdict.family.centers.tobytes() == family[0].tobytes()
                assert verdict.family.radii.tobytes() == family[1].tobytes()
