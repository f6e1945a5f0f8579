import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerlab import barrier, centers, norms, optim
from centerlab.centers import (
    CenterProblem,
    Composite,
    FiniteSet,
    PowerSum,
    UnionOfLines,
    WeightedMax,
    WeightedSum,
    delta_center_probe,
    eval_rf,
    p1_modulus,
    problem_from_json,
    problem_to_json,
    sacp_experiment,
    solve_center,
    uniform_max,
    validate_fcmc,
)
from centerlab.errors import OptimizationError
from centerlab.norms import l1, l2, linf, lp_norm, subspace_from_basis

from oracles import grid_minimize

Y_POINTS = np.array([[-2.0, 1.0, 1.0], [1.0, 1.0, -2.0], [1.0, -2.0, 1.0]])


def plane_sum_zero():
    return subspace_from_basis(3, [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])


def test_eval_rf_reference_value():
    v = np.array([-0.5, -0.5, -0.5])
    assert eval_rf(linf(3), v, FiniteSet(Y_POINTS), uniform_max(3)) == 1.5


def test_eval_rf_at_member_is_zero():
    x = np.array([2.0, -1.0])
    assert eval_rf(linf(2), x, FiniteSet([x]), uniform_max(1)) == 0.0


def test_eval_rf_weighted_sum_recomposition():
    rng = np.random.default_rng(17)
    space = l1(3)
    pts = FiniteSet(rng.normal(size=(4, 3)))
    w = rng.uniform(0.5, 2.0, size=4)
    f = WeightedSum(w)
    for _ in range(20):
        v = rng.normal(size=3)
        manual = sum(wi * norms.eval_norm(space, v - p)
                     for wi, p in zip(w, pts.points))
        assert eval_rf(space, v, pts, f) == pytest.approx(manual, abs=1e-12)


def test_two_point_center_is_midpoint():
    rng = np.random.default_rng(23)
    for space in (linf(3), l1(3)):
        x1, x2 = rng.normal(size=3), rng.normal(size=3)
        prob = CenterProblem(space, None, FiniteSet([x1, x2]), uniform_max(2))
        res = solve_center(prob)
        half = 0.5 * norms.eval_norm(space, x1 - x2)
        assert res.rad == pytest.approx(half, abs=1e-9)
        mid_val = eval_rf(space, 0.5 * (x1 + x2), prob.points, prob.f)
        assert mid_val <= res.rad + 1e-9


def test_reference_instance_whole_space():
    prob = CenterProblem(linf(3), None, FiniteSet(Y_POINTS), uniform_max(3))
    res = solve_center(prob)
    # the witness (-1/2,-1/2,-1/2) gives 3/2, and two points are 3 apart
    assert res.rad == pytest.approx(1.5, abs=1e-9)

    def fun(v):
        return eval_rf(linf(3), v, prob.points, prob.f)

    oracle, _ = grid_minimize(fun, np.zeros(3), 3.0, steps=13, refinements=6)
    assert res.rad == pytest.approx(oracle, abs=1e-3)


def test_reference_instance_restricted_to_plane():
    prob = CenterProblem(linf(3), plane_sum_zero(), FiniteSet(Y_POINTS),
                         uniform_max(3))
    res = solve_center(prob)
    assert res.rad > 1.5 + 0.4
    assert res.rad == pytest.approx(2.0, abs=1e-9)
    assert plane_sum_zero().contains(res.minimizer)

    sub = plane_sum_zero()

    def fun(alpha):
        return eval_rf(linf(3), sub.embed(alpha), prob.points, prob.f)

    oracle, _ = grid_minimize(fun, np.zeros(2), 3.0, steps=13, refinements=6)
    assert res.rad == pytest.approx(oracle, abs=1e-3)


def test_lp_and_subgradient_paths_agree():
    rng = np.random.default_rng(31)
    for trial in range(6):
        dim = int(rng.integers(2, 4))
        space = [linf(dim), l1(dim)][trial % 2]
        pts = FiniteSet(rng.normal(size=(3, dim)))
        f = [uniform_max(3), WeightedSum(rng.uniform(0.5, 1.5, size=3))][trial % 2]
        prob = CenterProblem(space, None, pts, f)
        lp_res = solve_center(prob, method="lp")
        sg_res = solve_center(prob, method="subgradient")
        assert sg_res.rad == pytest.approx(lp_res.rad, abs=1e-4)
        assert sg_res.rad >= lp_res.rad - 1e-9


def test_subgradient_handles_smooth_norms():
    rng = np.random.default_rng(41)
    x1, x2 = rng.normal(size=3), rng.normal(size=3)
    prob = CenterProblem(l2(3), None, FiniteSet([x1, x2]), uniform_max(2))
    res = solve_center(prob)
    assert res.method == "subgradient"
    assert res.rad == pytest.approx(0.5 * np.linalg.norm(x1 - x2), abs=1e-9)


def test_rad_is_lower_bound_on_sampled_values():
    rng = np.random.default_rng(3)
    sub = plane_sum_zero()
    prob = CenterProblem(linf(3), sub, FiniteSet(Y_POINTS), uniform_max(3))
    res = solve_center(prob)
    for _ in range(200):
        v = sub.embed(rng.uniform(-4, 4, size=2))
        assert res.rad <= eval_rf(linf(3), v, prob.points, prob.f) + 1e-9


def test_scaling_invariance_of_minimizers():
    rng = np.random.default_rng(13)
    pts = FiniteSet(rng.normal(size=(3, 2)))
    space = linf(2)
    f1 = WeightedMax(np.array([1.0, 1.0, 1.0]))
    f2 = WeightedMax(np.array([2.5, 2.5, 2.5]))
    p1_ = CenterProblem(space, None, pts, f1)
    p2_ = CenterProblem(space, None, pts, f2)
    r1, r2 = solve_center(p1_), solve_center(p2_)
    assert r2.rad == pytest.approx(2.5 * r1.rad, rel=1e-9)
    # cross-feasibility of minimizers
    assert eval_rf(space, r2.minimizer, pts, f1) <= r1.rad + 1e-8
    assert eval_rf(space, r1.minimizer, pts, f2) <= r2.rad + 1e-8


def test_delta_probe_zero_delta_zero_excess():
    prob = CenterProblem(linf(3), plane_sum_zero(), FiniteSet(Y_POINTS),
                         uniform_max(3))
    res = solve_center(prob)
    probe = delta_center_probe(prob, delta=0.0, result=res)
    assert probe.excess <= 1e-6


def test_delta_probe_segment_center_set():
    # Cent of {(-1,0),(1,0)} under the max norm is the segment {0} x [-1,1]
    space = linf(2)
    prob = CenterProblem(space, None, FiniteSet([[-1.0, 0.0], [1.0, 0.0]]),
                         uniform_max(2))
    res = solve_center(prob)
    assert res.rad == pytest.approx(1.0, abs=1e-12)
    probe = delta_center_probe(prob, delta=0.25, result=res)
    assert probe.samples.shape[0] >= 4
    for v in probe.samples:
        a, b = v
        closed_form = max(abs(a), max(0.0, abs(b) - 1.0))
        assert res.cent_face.distance_to(v) == pytest.approx(closed_form, abs=1e-7)
    assert probe.excess == pytest.approx(0.25, abs=1e-7)


def test_delta_probe_samples_stay_in_sublevel():
    rng = np.random.default_rng(8)
    pts = FiniteSet(rng.normal(size=(3, 2)))
    prob = CenterProblem(l1(2), None, pts, uniform_max(3))
    res = solve_center(prob)
    for delta in (0.5, 0.05):
        probe = delta_center_probe(prob, delta, result=res)
        vals = centers.eval_rf_many(l1(2), probe.samples, pts, prob.f)
        assert (vals <= res.rad + delta + 1e-6).all()


def test_modulus_curve_monotone_and_vanishing():
    prob = CenterProblem(linf(2), None,
                         FiniteSet([[-1.0, 0.0], [1.0, 0.0]]), uniform_max(2))
    res = solve_center(prob)
    deltas = [0.3, 0.1, 0.01, 0.001, 0.0]
    curve = p1_modulus(prob, deltas, result=res)
    excesses = [row[1] for row in curve]
    assert all(excesses[i] >= excesses[i + 1] - 1e-9 for i in range(len(curve) - 1))
    assert excesses[-1] <= 1e-7


def test_sacp_constant_sequence_single_cluster():
    prob = CenterProblem(linf(3), plane_sum_zero(), FiniteSet(Y_POINTS),
                         uniform_max(3))
    res = solve_center(prob)
    seq = [res.minimizer.copy() for _ in range(20)]
    verdict = sacp_experiment(prob, seq, horizon=20, cluster_tol=1e-6, result=res)
    assert verdict.minimizing
    assert len(verdict.clusters) == 1
    assert verdict.verdict == "clusters found"
    assert verdict.topology == centers.TOPOLOGY_NOTE


def test_sacp_random_minimizing_sequence_clusters():
    rng = np.random.default_rng(5)
    sub = subspace_from_basis(3, np.eye(3))
    pts = FiniteSet(rng.normal(size=(2, 3)))
    prob = CenterProblem(l1(3), sub, pts, uniform_max(2))
    res = solve_center(prob)
    seq = [res.minimizer + rng.normal(size=3) * 0.5 / (k + 1)
           for k in range(60)]
    verdict = sacp_experiment(prob, seq, horizon=60, cluster_tol=0.25,
                              result=res, value_tol=0.2)
    assert verdict.clusters


def test_sacp_rejects_points_outside_feasible_set():
    sub = subspace_from_basis(2, [[1.0, 0.0]])
    prob = CenterProblem(l1(2), sub, FiniteSet([[0.0, 0.0]]), uniform_max(1))
    with pytest.raises(ValueError, match="element 1"):
        sacp_experiment(prob, [np.zeros(2), np.array([0.0, 1.0])],
                        horizon=5, cluster_tol=0.1)


def test_union_of_lines_center():
    lines = UnionOfLines(points=[[0.0, 1.0], [3.0, 2.0]],
                         directions=[[1.0, 0.0], [1.0, 0.0]])
    prob = CenterProblem(l1(2), lines, FiniteSet([[0.0, 0.0]]), uniform_max(1))
    res = solve_center(prob)
    assert res.rad == pytest.approx(1.0, abs=1e-9)
    assert lines.contains(res.minimizer)
    assert res.cent_face is None


def test_center_over_zero_subspace_is_the_origin():
    # both routes; a decomposition with Y ∩ Z = {0} takes this path
    pts = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    for space, method in ((linf(3), "lp"), (l1(3), "lp"), (l2(3), "subgradient")):
        for f in (WeightedSum(np.array([1.0, 2.0])), WeightedMax(np.array([1.0, 2.0]))):
            res = solve_center(CenterProblem(space, norms.Subspace.zero(3),
                                             FiniteSet(pts), f))
            assert res.method == method
            expected = f.value_many(norms.eval_norm_many(space, pts)[None])[0]
            assert res.rad == pytest.approx(expected, rel=1e-12)
            assert not res.minimizer.any()


def test_validate_fcmc_families():
    assert validate_fcmc(uniform_max(3))["ok"]
    assert validate_fcmc(WeightedSum(np.array([0.5, 2.0])))["ok"]
    assert validate_fcmc(PowerSum(2.0, np.array([1.0, 1.0])))["ok"]
    comp = Composite(uniform_max(2), power=2.0, scale=0.5)
    assert validate_fcmc(comp)["ok"]
    assert solve_center(CenterProblem(
        l2(2), None, FiniteSet([[1.0, 0.0], [-1.0, 0.0]]), comp)).rad == \
        pytest.approx(0.5, abs=1e-6)


def _validate_fcmc_by_loop(f, samples, seed):
    """Sampled scalar reference for validate_fcmc: one sample per iteration,
    drawn with rng.uniform, stopping at the first failure of each property;
    an inequality fails by more than 1e-9 relative to max(1, |f|)."""
    def exceeds(lhs, rhs):
        return lhs > rhs + 1e-9 * max(1.0, abs(lhs), abs(rhs))

    def f_value(t):
        return f.value_many(t[None])[0]

    n = f.arity
    rng = np.random.default_rng(seed)
    failures = []
    for _ in range(samples):
        t1 = rng.uniform(0, 5, size=n)
        t2 = t1 + rng.uniform(0, 3, size=n)
        if exceeds(f_value(t1), f_value(t2)):
            failures.append(("monotone", t1, t2))
            break
    for _ in range(samples):
        t1 = rng.uniform(0, 5, size=n)
        t2 = rng.uniform(0, 5, size=n)
        mid = f_value(0.5 * (t1 + t2))
        if exceeds(mid, 0.5 * (f_value(t1) + f_value(t2))):
            failures.append(("convex", t1, t2))
            break
    for _ in range(max(10, samples // 10)):
        u = rng.uniform(0, 1, size=n)
        u[int(rng.integers(n))] = 1.0
        base = f_value(u)
        if not (base > 0 and f_value(1e6 * u) >= 100 * base):
            failures.append(("coercive", u))
            break
    return {"ok": not failures, "failures": failures}


class _ConcavePowerSum(PowerSum):
    """sum_i w_i t_i^p with p < 1, which the constructor refuses: a concave
    function that validate_fcmc must refuse by its type and whose sampled
    convexity check fails."""

    def __post_init__(self):
        pass


def test_validate_fcmc_is_structural():
    built = [WeightedMax(np.array([1.0, 2.0, 0.5])),
             WeightedSum(np.array([0.5, 2.0])),
             PowerSum(2.5, np.array([1.0, 0.3, 2.0])),
             WeightedMax(np.array([1e16, 3e16])),
             WeightedSum(np.array([1e16, 2e16])),
             Composite(Composite(uniform_max(2), power=2.0, scale=0.5),
                       power=1.5, scale=3.0)]
    for f in built:
        assert validate_fcmc(f) == {"ok": True, "failures": []}
    concave = _ConcavePowerSum(0.5, np.array([1.0, 2.0]))
    for f in (concave, Composite(concave, power=2.0, scale=1.0)):
        assert validate_fcmc(f) == {
            "ok": False,
            "failures": [("not a built-in scalarization", "_ConcavePowerSum")]}


def test_validate_fcmc_matches_scalar_loop():
    # The verdict by type agrees with a sampled scalar check of monotonicity,
    # convexity and coercivity: built scalarizations pass both, and the
    # concave power sum fails the sampled convexity check as well.
    families = [WeightedMax(np.array([1.0, 2.0, 0.5])),
                WeightedSum(np.array([0.5, 2.0])),
                PowerSum(2.5, np.array([1.0, 0.3, 2.0])),
                Composite(uniform_max(2), power=2.0, scale=0.5),
                WeightedMax(np.array([1e16, 3e16])),
                _ConcavePowerSum(0.5, np.array([1.0, 2.0]))]
    for f in families:
        for seed in (0, 3):
            for samples in (10, 120):
                want = _validate_fcmc_by_loop(f, samples, seed)
                assert validate_fcmc(f)["ok"] == want["ok"]
    assert [name for name, *_ in
            _validate_fcmc_by_loop(families[-1], 120, 0)["failures"]] == \
        ["convex"]


def test_validate_fcmc_large_weights_pass():
    for f in (WeightedMax(np.array([1e8, 2e8])),
              WeightedSum(np.array([1e8, 2e8]))):
        report = validate_fcmc(f)
        assert report["ok"], report["failures"]


# A center LP on which the simplex once claimed an optimum that failed its
# feasibility audit: a max-combined direct sum of a 1-dim sup norm and a
# polyhedral norm on R^4, three points in R^5.  HiGHS gives radius 4.916.
BREAKDOWN_INSTANCE = {
    "schema": 1,
    "space": {"kind": "direct_sum", "components": [
        {"kind": "lp", "p": "inf", "dim": 1},
        {"kind": "polyhedral", "generators": [
            [-0.689428354319475, 1.2375058673431771, -0.8566896338247137,
             1.8947883398106646],
            [-0.08642271583120979, -0.23261435215535475, 1.4627751369691202,
             -1.9286944600610507],
            [0.9759436303172669, 0.8105038656000378, 1.5706627628175966,
             0.3693925600002923],
            [0.4334412575653684, 0.4415067722966075, -1.445394544358909,
             0.5836224610133662],
            [0.1886769617697303, -0.5047608299664044, -1.234679257132643,
             0.4548158923669755],
            [1.048479454242903, -2.6048952218351955, -0.061608880595610135,
             0.8651372035244128]]}],
        "pi": {"kind": "monotone_polyhedral",
               "generators": [[1.0, 0.0], [0.0, 1.0]]}},
    "subspace": None,
    "points": [
        [0.7575230998601974, -0.11969124722119906, -1.5704404476743372,
         0.26209743156889465, -1.9104182402952739],
        [1.5414686769929609, -1.7910927818800593, -1.16613521051034,
         -1.7600746039588344, 1.4922169835016246],
        [-0.7017291012874276, -0.24696036743734373, 1.148125240949331,
         -0.2894996883380254, 0.18044190197618315]],
    "f": {"kind": "max"},
}


@pytest.mark.filterwarnings("ignore:generator set was not symmetric")
def test_center_lp_that_broke_down_is_solved():
    problem = problem_from_json(BREAKDOWN_INSTANCE)
    res = solve_center(problem)
    assert res.method == "lp"
    assert res.rad == pytest.approx(4.916144539980734, rel=1e-12)
    check = eval_rf(problem.space, res.minimizer, problem.points, problem.f)
    assert abs(check - res.rad) <= 1e-9 * res.rad



def test_power_sum_lp_when_p_equals_one():
    pts = FiniteSet([[0.0, 0.0], [2.0, 0.0]])
    prob = CenterProblem(l1(2), None, pts, PowerSum(1.0, np.array([1.0, 1.0])))
    res = solve_center(prob)
    assert res.method == "lp"
    assert res.rad == pytest.approx(2.0, abs=1e-9)


def test_problem_json_roundtrip():
    prob = CenterProblem(linf(3), plane_sum_zero(), FiniteSet(Y_POINTS),
                         WeightedMax(np.array([1.0, 2.0, 0.5])))
    back = problem_from_json(problem_to_json(prob))
    assert solve_center(back).rad == pytest.approx(solve_center(prob).rad, abs=1e-12)
    lines_prob = CenterProblem(
        l1(2), UnionOfLines([[0.0, 1.0]], [[1.0, 0.0]]),
        FiniteSet([[0.0, 0.0]]), uniform_max(1))
    back2 = problem_from_json(problem_to_json(lines_prob))
    assert isinstance(back2.feasible, UnionOfLines)


def test_solve_center_deterministic_minimizer():
    # the optimal set is a segment; the lexicographic tie-break pins one point
    prob = CenterProblem(linf(2), None, FiniteSet([[-1.0, 0.0], [1.0, 0.0]]),
                         uniform_max(2))
    first = solve_center(prob)
    second = solve_center(prob)
    assert first.rad == second.rad
    assert np.array_equal(first.minimizer, second.minimizer)
    # lexicographically smallest point of the center segment {0} x [-1, 1]
    assert first.minimizer[1] == pytest.approx(-1.0, abs=1e-7)


def test_f_value_composite_chain():
    f = Composite(WeightedSum(np.array([1.0, 1.0])), power=2.0, scale=3.0)
    assert f.value_many(np.array([[1.0, 2.0]]))[0] == pytest.approx(27.0)


def _rejection_by_loop(problem, basis, level, rng, alpha_star, width):
    """The probe's rejection sampler as one draw per iteration."""
    kept = []
    draws = 0
    while len(kept) < centers.N_REJECTION and draws < centers.BUDGET:
        draws += 1
        alpha = alpha_star + rng.uniform(-width, width, size=basis.shape[1])
        if eval_rf(problem.space, basis @ alpha, problem.points, problem.f) <= level:
            kept.append(alpha)
    return np.array(kept).reshape(-1, basis.shape[1])


@pytest.mark.parametrize("case", ["accepting", "starving", "lp-encodable", "wide"])
def test_block_sampler_matches_scalar_loop(case, monkeypatch):
    rng = np.random.default_rng(5)
    if case == "accepting":
        # needs more than one block: 300 hits at a rate well below 1/4
        prob = CenterProblem(l2(3), None, FiniteSet(rng.normal(size=(3, 3))),
                             WeightedSum(np.array([1.0, 0.5, 2.0])))
        delta, cutoffs = 3.0, (300, 4000)
    elif case == "starving":
        prob = CenterProblem(lp_norm(2.5, 2), None,
                             FiniteSet(rng.normal(size=(2, 2))), uniform_max(2))
        delta, cutoffs = 1e-6, (200, 2500)
    elif case == "lp-encodable":
        prob = CenterProblem(l1(3), plane_sum_zero(), FiniteSet(Y_POINTS),
                             WeightedSum(np.ones(3)))
        delta, cutoffs = 0.3, (centers.N_REJECTION, centers.BUDGET)
    else:
        # |F| * n = 4,800 differences per draw: blocks of 13 draws
        prob = CenterProblem(l2(40), None, FiniteSet(rng.normal(size=(120, 40))),
                             WeightedSum(np.full(120, 1.0 / 120)))
        delta, cutoffs = 3.0, (100, 600)
    monkeypatch.setattr(centers, "N_REJECTION", cutoffs[0])
    monkeypatch.setattr(centers, "BUDGET", cutoffs[1])
    res = solve_center(prob)
    basis = prob.feasible.basis
    alpha_star = basis.T @ res.minimizer
    width = 2.0
    level = res.rad + delta
    blocks, loop = np.random.default_rng(11), np.random.default_rng(11)
    got = centers._rejection_samples(prob, basis, level, blocks, alpha_star,
                                     width)
    want = _rejection_by_loop(prob, basis, level, loop, alpha_star, width)
    assert np.array_equal(got, want)
    assert blocks.bit_generator.state == loop.bit_generator.state
    if case in ("accepting", "wide"):
        assert len(want) == cutoffs[0]
    elif case == "starving":
        assert len(want) < cutoffs[0]
    else:
        assert 0 < len(want) <= cutoffs[0]


def test_radius_audit_refuses_an_inflated_radius(monkeypatch):
    exact = centers._lp_center

    def inflated(problem, basis):
        rad, minimizer, out = exact(problem, basis)
        return rad + 1.0, minimizer, out

    monkeypatch.setattr(centers, "_lp_center", inflated)
    prob = CenterProblem(linf(2), None, FiniteSet([[-1.0, 0.0], [1.0, 0.0]]),
                         uniform_max(2))
    with pytest.raises(OptimizationError, match="radius audit"):
        solve_center(prob)


def test_probe_of_a_max_sum_enumerates_its_vertices(monkeypatch):
    # the max combiner's product construction gives 48 generator rows, of
    # which 10 are distinct; with the repeats kept, three points make 144
    # sublevel rows and C(144, 3) supports, past the enumeration cap
    space = norms.make_direct_sum([l1(2), linf(3)], norms.max_combiner(2))
    assert norms.explicit_generators(space).shape == (10, 5)
    rng = np.random.default_rng(0)
    sub = subspace_from_basis(5, rng.normal(size=(3, 5)))
    prob = CenterProblem(space, sub, FiniteSet(rng.normal(size=(3, 5))),
                         uniform_max(3))
    res = solve_center(prob)
    exact = delta_center_probe(prob, 0.1, result=res)
    assert exact.mode == "vertex-exact"
    # the vertices carry the maximum of the convex distance, so no sampled
    # point of the sublevel set lies farther out
    monkeypatch.setattr(norms, "sublevel_vertices", lambda *args: None)
    sampled = delta_center_probe(prob, 0.1, result=res)
    assert sampled.mode == "sampled"
    assert sampled.excess <= exact.excess + 1e-9


@pytest.mark.parametrize("space", [linf(3), l2(3)], ids=["linf", "l2"])
def test_whole_space_as_none_and_as_full_subspace_agree(space):
    # both spellings of the whole space take one code path: bit-identical
    # radii, minimizers, center-face distances, moduli and sequence verdicts
    pts = FiniteSet(Y_POINTS + np.array([0.5, 0.0, -0.25]))
    f = WeightedMax(np.array([1.0, 2.0, 0.5]))
    as_none = CenterProblem(space, None, pts, f)
    as_full = CenterProblem(space, norms.Subspace.full(3), pts, f)
    a, b = solve_center(as_none), solve_center(as_full)
    assert a.rad == b.rad and a.method == b.method
    assert a.minimizer.tobytes() == b.minimizer.tobytes()
    if a.cent_face is not None:
        for v in (np.zeros(3), np.array([1.0, -2.0, 0.5])):
            assert a.cent_face.distance_to(v) == b.cent_face.distance_to(v)
    deltas = [0.3, 0.01]
    assert p1_modulus(as_none, deltas, seed=3, result=a) == \
        p1_modulus(as_full, deltas, seed=3, result=b)
    seq = [a.minimizer + np.array([1.0, 0.5, -1.0]) / (k + 1) for k in range(8)]
    va = sacp_experiment(as_none, seq, horizon=8, cluster_tol=0.3, result=a)
    vb = sacp_experiment(as_full, seq, horizon=8, cluster_tol=0.3, result=b)
    assert va.values.tobytes() == vb.values.tobytes()
    assert (va.minimizing, va.min_pairwise, va.verdict) == \
        (vb.minimizing, vb.min_pairwise, vb.verdict)
    assert problem_to_json(as_none)["subspace"] is None
    assert problem_to_json(as_full) == problem_to_json(as_none)


# A sum-combined direct sum of two polyhedral components, whose
# generators are drawn without their negations.
ONE_SIDED_SUM_QUESTION = {
    "schema": 1,
    "space": {"kind": "direct_sum", "components": [
        {"kind": "polyhedral", "generators": [
            [-0.9349762618687502, -0.7296952681832494, 0.5642394331680308],
            [0.9864998861106795, 0.7532546907537343, 1.2089702496885697],
            [0.7144889121895972, 0.02846183335685169, 0.8365259894445134],
            [0.5936032404079788, -0.10057526654145102, 0.726072718540168],
            [1.285697394529069, 0.2345713239341999, -0.35620509743082307]]},
        {"kind": "polyhedral", "generators": [
            [0.7187113729613218], [1.9007217378325845], [-0.2105620431624384]]}],
        "pi": {"kind": "monotone_polyhedral", "generators": [[1.0, 1.0]]}},
    "subspace": None,
    "points": [
        [-1.14987927108908, 1.4708192668327253, -0.027680228388623274, 0.6309113353115516],
        [1.1100897600296435, 0.5463902357834849, 0.9355797778105885, 0.18256888002182992],
        [-1.082689591965769, -1.2516227934007604, 1.9741545493558847, -1.9579711400813617],
        [0.763648631687289, 1.5226169015818773, -1.0743671739986742, -1.8058392565740973],
        [-0.40301272205084127, -0.6801651612446036, -0.1536426759775824, -0.2903366622895698]],
    "f": {"kind": "weighted_sum", "weights": [
        0.8835203933302729, 1.0098869655687766, 1.3292926338282425,
        1.2467434606177825, 0.5641192984094314]}}


def _lp_encodable_sweep():
    """Seeded LP-encodable questions: l-inf, l1, polyhedral and max- and
    sum-combined direct sums in R^2..R^6, on the whole space and on random
    subspaces, under every LP-encodable scalarization and Composite
    wrappers of them."""
    rng = np.random.default_rng(1818)

    def leaf(kind, dim):
        if kind == 2:
            gens = rng.normal(size=(dim + 2, dim))
            return norms.polyhedral(np.vstack([gens, -gens]))
        return (linf, l1)[kind](dim)

    problems = []
    for i in range(40):
        dim, kind, size = 2 + i % 5, i % 5, 2 + i % 3
        if kind < 3:
            space = leaf(kind, dim)
        else:
            a = 1 + int(rng.integers(dim - 1))
            space = norms.make_direct_sum(
                [leaf(int(rng.integers(3)), a), leaf(int(rng.integers(3)), dim - a)],
                (norms.max_combiner, norms.sum_combiner)[kind - 3](2))
        sub = None
        if i // 5 % 2:
            sub = subspace_from_basis(dim, rng.normal(size=(int(rng.integers(1, dim)), dim)))
        w = rng.uniform(0.5, 1.5, size=size)
        f = (uniform_max(size), WeightedMax(w), WeightedSum(w),
             PowerSum(1.0, w))[i % 4]
        if i % 3 == 0:
            f = Composite(f, float(rng.uniform(1.0, 3.0)),
                          float(rng.uniform(0.5, 2.0)))
        pts = FiniteSet(rng.uniform(-2, 2, size=(size, dim)))
        problems.append(CenterProblem(space, sub, pts, f))
    # its generators are drawn as they are, without their negations
    with pytest.warns(UserWarning, match="not symmetric"):
        problems.append(problem_from_json(ONE_SIDED_SUM_QUESTION))
    return problems


def test_barrier_closes_on_lp_encodable_questions(monkeypatch):
    # A forced subgradient solve of an LP-encodable norm and scalarization
    # (under Composite wrappers) is one barrier solve and no simplex solve:
    # its bracket closes to 1e-12 * max(1, upper) and holds the LP route's
    # radius, and its radius is the LP route's to 1e-12 relative.
    real_barrier, real_solve = barrier.barrier_solve, optim.lp_solve
    solves, lp_solves = [], []

    def counted_barrier(*args, **kwargs):
        solves.append(args)
        return real_barrier(*args, **kwargs)

    def counted_solve(lp, **kwargs):
        lp_solves.append(lp)
        return real_solve(lp, **kwargs)

    monkeypatch.setattr(barrier, "barrier_solve", counted_barrier)
    for prob in _lp_encodable_sweep():
        f, wrappers = _inner_and_wrappers(prob.f)
        inner_exact = exact = solve_center(CenterProblem(
            prob.space, prob.feasible, prob.points, f), method="lp").rad
        for w in reversed(wrappers):
            exact = w.scale * exact ** w.power
        solves.clear()
        monkeypatch.setattr(optim, "lp_solve", counted_solve)
        res = solve_center(prob, method="subgradient")
        monkeypatch.setattr(optim, "lp_solve", real_solve)
        cert = res.certificate
        assert res.method == "subgradient" and len(solves) == 1 and not lp_solves
        assert isinstance(cert, centers.BarrierCertificate) and cert.converged
        assert cert.upper - cert.lower <= 1e-12 * max(1.0, cert.upper)
        assert abs(res.rad - exact) <= 1e-12 * max(1.0, exact)
        # the bracket is in the units of the scalarization under the wrappers
        slack = 1e-14 * max(1.0, inner_exact)
        assert cert.lower <= inner_exact + slack and inner_exact <= cert.upper + slack


@pytest.mark.parametrize("draw", [0, 1], ids=["l1-r16", "l1-r24"])
def test_forced_route_agrees_with_the_lp_route_on_l1(draw):
    # Unit-weight sums over the first and second draws of default_rng(3),
    # eight points in R^16 and four in R^24: Kelley's cutting planes on
    # these questions once ran the simplex on 400-row LPs past its pivot
    # limit, and on the second never converged
    rng = np.random.default_rng(3)
    pts = [rng.uniform(-2, 2, (8, 16)), rng.uniform(-2, 2, (4, 24))][draw]
    size, dim = pts.shape
    prob = CenterProblem(l1(dim), None, FiniteSet(pts), WeightedSum(np.ones(size)))
    res = solve_center(prob, method="subgradient")
    exact = solve_center(prob, method="lp").rad
    assert res.method == "subgradient" and res.certificate.converged
    assert abs(res.rad - exact) <= 1e-15 * exact


def _inner_and_wrappers(f):
    """The scalarization under f's Composite wrappers, and the wrappers,
    outermost first."""
    wrappers = []
    while isinstance(f, Composite):
        wrappers.append(f)
        f = f.inner
    return f, wrappers


def test_lp_route_solves_a_composite_on_its_inner_scalarization():
    # A Composite of an LP-encodable scalarization under a polyhedral norm
    # takes the exact LP route on the scalarization under its wrappers: the
    # radius is the inner LP radius taken through the wrappers, the
    # minimizer is the inner LP minimizer, and the CentFace is the inner one.
    composites = [p for p in _lp_encodable_sweep() if isinstance(p.f, Composite)]
    assert len(composites) == 14
    for prob in composites:
        f, wrappers = _inner_and_wrappers(prob.f)
        inner = solve_center(CenterProblem(prob.space, prob.feasible,
                                           prob.points, f), method="lp")
        for method in ("lp", "auto"):
            res = solve_center(prob, method=method)
            assert res.method == "lp"
            assert res.rad == centers._through(wrappers, inner.rad)
            assert res.minimizer.tobytes() == inner.minimizer.tobytes()
            assert res.cent_face.problem.f is f
            assert res.cent_face.rad == inner.rad


def test_barrier_of_a_composite_runs_on_its_inner_scalarization(monkeypatch):
    inner_f = WeightedSum(np.array([1.0, 0.5, 2.0]))
    f = Composite(Composite(inner_f, power=1.5, scale=2.0), power=2.0, scale=0.25)
    fs = FiniteSet(Y_POINTS)
    prob = CenterProblem(l2(3), None, fs, f)
    real_barrier, starts = barrier.barrier_solve, []

    def spy(lp, cones, alpha, value, *args):
        starts.append((value(alpha), alpha))
        return real_barrier(lp, cones, alpha, value, *args)

    monkeypatch.setattr(barrier, "barrier_solve", spy)
    res = solve_center(prob)
    # the model is centred on the projected centroid, its start
    [(value, start)] = starts
    v = prob.feasible.basis @ (prob.feasible.basis.T @ Y_POINTS.mean(axis=0))
    assert not start.any()
    assert value == pytest.approx(eval_rf(l2(3), v, fs, inner_f), rel=1e-12)
    assert value != pytest.approx(eval_rf(l2(3), v, fs, f), rel=1e-3)
    assert res.method == "subgradient"
    assert res.rad == centers._through([f, f.inner], res.certificate.upper)


def test_lp_route_refuses_a_composite_of_a_smooth_scalarization():
    f = Composite(PowerSum(2.0, np.ones(3)), power=1.5, scale=2.0)
    prob = CenterProblem(linf(3), None, FiniteSet(Y_POINTS), f)
    with pytest.raises(OptimizationError, match="no exact LP formulation"):
        solve_center(prob, method="lp")


def test_through_inverse_round_trips_nested_wrappers():
    rng = np.random.default_rng(19)
    for depth in (1, 2, 3):
        for _ in range(200):
            f = uniform_max(2)
            for _ in range(depth):
                f = Composite(f, float(rng.uniform(1.0, 3.0)),
                              float(rng.uniform(0.5, 2.0)))
            _, wrappers = _inner_and_wrappers(f)
            v = float(rng.uniform(0.1, 10.0))
            there = centers._through(wrappers, v)
            assert there == pytest.approx(f.value_many(np.array([[v, 0.0]]))[0],
                                          rel=1e-14)
            assert centers._through_inverse(wrappers, there) == \
                pytest.approx(v, rel=1e-15)


def _two_point_questions():
    """Two-point max questions whose projected centroid is the center: the
    midpoint, under l2, l2.5 and criterion 05's two E-sums in the whole
    space, and under l2 in a coordinate plane through the midpoint."""
    rng = np.random.default_rng(20)
    x1, x2 = rng.uniform(-2, 2, size=(2, 3))
    spaces = [l2(3), lp_norm(2.5, 3),
              norms.make_esum([l1(2), l2(1)], norms.weighted_lp(1, [1.0, 2.0])),
              norms.make_esum([linf(2), l2(1)], norms.weighted_lp(2, [1.0, 1.5]))]
    questions = [CenterProblem(s, None, FiniteSet([x1, x2]), uniform_max(2))
                 for s in spaces]
    plane = subspace_from_basis(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mirrored = x2 * np.array([1.0, 1.0, 0.0]) - x1 * np.array([0.0, 0.0, 1.0])
    questions.append(CenterProblem(l2(3), plane, FiniteSet([x1, mirrored]),
                                   uniform_max(2)))
    return questions


def _centroid_value(prob):
    """r_f at the projected centroid of the question's points."""
    basis, pts = prob.feasible.basis, prob.points.points
    return eval_rf(prob.space, basis @ (basis.T @ pts.mean(axis=0)), prob.points, prob.f)


def test_subgradient_route_stops_at_a_centroid_that_is_the_center():
    # The barrier's bracket closes on the centroid's value, which is the
    # radius.  The first E-sum is LP-encodable, so solve_center takes the LP
    # route on it; the barrier route is called directly on every question.
    for prob in _two_point_questions():
        rad, minimizer, cert = centers._barrier_center(prob, prob.feasible.basis)
        assert isinstance(cert, centers.BarrierCertificate) and cert.converged
        assert cert.upper - cert.lower <= 1e-12 * max(1.0, cert.upper)
        assert cert.upper == rad == eval_rf(prob.space, minimizer, prob.points, prob.f)
        value = _centroid_value(prob)
        assert abs(rad - value) <= 1e-12 * max(1.0, rad)
        assert cert.lower <= value + 1e-15 * max(1.0, value)
        if not norms.is_lp_encodable(prob.space):
            assert vars(solve_center(prob).certificate) == vars(cert)


def test_stop_at_the_centroid_of_an_oblique_plane_is_within_the_bracket():
    # In a plane that is not a coordinate plane the projected midpoint is
    # rounded; the barrier's answer stays within the bracket's width of the
    # midpoint's value, which the bracket holds.
    rng = np.random.default_rng(20)
    x1, x2 = rng.uniform(-2, 2, size=(2, 3))
    for seed in range(4):
        plane = subspace_from_basis(3, [0.5 * (x1 + x2),
                                        np.random.default_rng(seed).normal(size=3)])
        prob = CenterProblem(l2(3), plane, FiniteSet([x1, x2]), uniform_max(2))
        res = solve_center(prob)
        cert, value = res.certificate, _centroid_value(prob)
        assert cert.converged and abs(res.rad - value) <= 1e-12 * max(1.0, res.rad)
        assert cert.lower <= value + 1e-15 * max(1.0, value)


def _polyhedral_question(seed: int) -> CenterProblem:
    """A seeded LP-encodable question: l-inf, l1 or a random polyhedral norm
    in R^2..R^4, two to four points, max, weighted-max or weighted-sum, in
    the whole space or a random subspace."""
    rng = np.random.default_rng(seed)
    dim, size = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    kind = int(rng.integers(3))
    if kind == 2:
        gens = rng.normal(size=(dim + 2, dim))
        space = norms.polyhedral(np.vstack([gens, -gens]))
    else:
        space = (linf, l1)[kind](dim)
    w = rng.uniform(0.5, 1.5, size=size)
    f = (uniform_max(size), WeightedMax(w), WeightedSum(w))[int(rng.integers(3))]
    sub = None
    if rng.integers(2):
        sub = subspace_from_basis(dim, rng.normal(size=(int(rng.integers(1, dim)), dim)))
    return CenterProblem(space, sub, FiniteSet(rng.uniform(-2, 2, size=(size, dim))), f)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
def test_minorant_bracket_lower_bound_is_sound(seed, spread):
    # The barrier's lower end, a Lagrangian dual bound (an affine minorant of
    # r_f on the subspace), stays below the exact radius up to rounding on
    # polyhedral questions, where the LP route gives that radius exactly, and
    # the bracket closes.  `spread` moves the points by that much times a
    # seeded draw, which makes ties at the center likely for small spreads.
    prob = _polyhedral_question(seed)
    pts = prob.points.points
    pts = pts + spread * np.random.default_rng(seed).normal(size=pts.shape)
    prob = CenterProblem(prob.space, prob.feasible, FiniteSet(pts), prob.f)
    exact = solve_center(prob, method="lp").rad
    _, _, cert = centers._barrier_center(prob, prob.feasible.basis)
    assert cert.converged and cert.upper - cert.lower <= 1e-12 * max(1.0, cert.upper)
    assert cert.lower <= exact + 1e-12 * max(1.0, exact)
    assert exact <= cert.upper + 1e-12 * max(1.0, exact)


def _weiszfeld_radius(pts: np.ndarray, w: np.ndarray) -> float:
    """The weighted Euclidean Fermat-Weber radius: at a data point when
    Kuhn's vertex test holds there, else Weiszfeld's iteration polished by
    Newton steps on the smooth sum."""
    for j, x in enumerate(pts):
        d = np.delete(pts, j, axis=0) - x
        pull = (np.delete(w, j)[:, None] * d / np.linalg.norm(d, axis=1)[:, None]).sum(0)
        if np.linalg.norm(pull) <= w[j]:
            return float(w @ np.linalg.norm(pts - x, axis=1))
    v = w @ pts / w.sum()
    for _ in range(2000):
        coef = w / np.linalg.norm(pts - v, axis=1)
        v = coef @ pts / coef.sum()
    for _ in range(5):
        r = v - pts
        nr = np.linalg.norm(r, axis=1)
        grad = (w[:, None] * r / nr[:, None]).sum(0)
        hess = sum(wi / ni * (np.eye(3) - np.outer(ri, ri) / ni ** 2)
                   for wi, ri, ni in zip(w, r, nr))
        v = v - np.linalg.solve(hess, grad)
    return float(w @ np.linalg.norm(pts - v, axis=1))


def test_barrier_closes_on_weighted_euclidean_sums_with_and_without_a_vertex():
    # The benchmark's cli question: l2 in R^3, three points, weighted sum.
    # Each radius matches Weiszfeld's and Kuhn's to 1e-10 relative, and each
    # bracket closes to 1e-12; pytest.ini makes a RuntimeWarning an error.
    rng = np.random.default_rng(32)
    vertices = 0
    for _ in range(24):
        pts, w = rng.uniform(-2, 2, size=(3, 3)), rng.uniform(0.5, 1.5, size=3)
        res = solve_center(CenterProblem(l2(3), None, FiniteSet(pts), WeightedSum(w)))
        exact = _weiszfeld_radius(pts, w)
        vertices += bool(np.isclose(np.linalg.norm(pts - res.minimizer, axis=1).min(), 0.0,
                                    atol=1e-6))
        cert = res.certificate
        assert abs(res.rad - exact) <= 1e-10 * exact
        assert cert.converged and cert.upper - cert.lower <= 1e-12 * max(1.0, cert.upper)
        assert cert.lower <= exact * (1 + 1e-14)
    assert 0 < vertices < 24
