import numpy as np
import pytest

from centerlab import centers, norms
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
    probe = delta_center_probe(prob, delta=0.0, eps=1e-6, result=res)
    assert probe.excess <= 1e-6
    assert probe.within


def test_delta_probe_segment_center_set():
    # Cent of {(-1,0),(1,0)} under the max norm is the segment {0} x [-1,1]
    space = linf(2)
    prob = CenterProblem(space, None, FiniteSet([[-1.0, 0.0], [1.0, 0.0]]),
                         uniform_max(2))
    res = solve_center(prob)
    assert res.rad == pytest.approx(1.0, abs=1e-12)
    probe = delta_center_probe(prob, delta=0.25, eps=np.inf, result=res)
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
        probe = delta_center_probe(prob, delta, eps=np.inf, result=res)
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


SCALARIZATIONS = {
    "weighted_max": WeightedMax(np.array([1.0, 2.0, 0.5])),
    "weighted_sum": WeightedSum(np.array([0.5, 2.0, 1.0])),
    "power_sum_1": PowerSum(1.0, np.array([1.0, 0.3, 2.0])),
    "power_sum_2.5": PowerSum(2.5, np.array([1.0, 0.3, 2.0])),
    "composite_max": Composite(WeightedMax(np.array([1.0, 2.0, 0.5])),
                               power=2.0, scale=0.5),
    "composite_sum": Composite(WeightedSum(np.array([1.0, 0.5, 2.0])),
                               power=1.5, scale=3.0),
    "composite_composite": Composite(
        Composite(PowerSum(2.0, np.ones(3)), power=1.5, scale=2.0),
        power=2.0, scale=0.25),
}


@pytest.mark.parametrize("name", SCALARIZATIONS)
def test_combine_is_value_and_subgradient(name):
    """combine(t, grads) is f(t) and sum_i s_i grads[i] for one s that
    satisfies f(t') >= f(t) + s.(t' - t) on seeded t'."""
    f = SCALARIZATIONS[name]
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = rng.uniform(0.1, 4.0, size=f.arity)
        grads = rng.normal(size=(f.arity, 4))
        val, g = f.combine(t, grads)
        _, s = f.combine(t, np.eye(f.arity))
        # a composite's power runs on a scalar here and on an array in
        # value_many, which may round differently
        assert val == pytest.approx(f.value_many(t[None])[0],
                                    rel=4 * np.finfo(float).eps)
        np.testing.assert_allclose(g, s @ grads, rtol=1e-12, atol=1e-12 * abs(val))
        t_prime = rng.uniform(0.0, 5.0, size=(50, f.arity))
        slack = f.value_many(t_prime) - val - (t_prime - t) @ s
        assert (slack >= -1e-9 * max(1.0, abs(val))).all()


def _rejection_by_loop(problem, basis, level, rng, alpha_star, width, cfg):
    """The probe's rejection sampler as one draw per iteration."""
    kept = []
    draws = 0
    while len(kept) < cfg.n_rejection and draws < cfg.budget:
        draws += 1
        alpha = alpha_star + rng.uniform(-width, width, size=basis.shape[1])
        if eval_rf(problem.space, basis @ alpha, problem.points, problem.f) <= level:
            kept.append(alpha)
    return np.array(kept).reshape(-1, basis.shape[1])


@pytest.mark.parametrize("case", ["accepting", "starving", "lp-encodable", "wide"])
def test_block_sampler_matches_scalar_loop(case):
    rng = np.random.default_rng(5)
    if case == "accepting":
        # needs more than one block: 300 hits at a rate well below 1/4
        prob = CenterProblem(l2(3), None, FiniteSet(rng.normal(size=(3, 3))),
                             WeightedSum(np.array([1.0, 0.5, 2.0])))
        delta, cfg = 3.0, centers.ProbeConfig(n_rejection=300, budget=4000)
    elif case == "starving":
        prob = CenterProblem(lp_norm(2.5, 2), None,
                             FiniteSet(rng.normal(size=(2, 2))), uniform_max(2))
        delta, cfg = 1e-6, centers.ProbeConfig(n_rejection=200, budget=2500)
    elif case == "lp-encodable":
        prob = CenterProblem(l1(3), plane_sum_zero(), FiniteSet(Y_POINTS),
                             WeightedSum(np.ones(3)))
        delta, cfg = 0.3, centers.ProbeConfig()
    else:
        # |F| * n = 4,800 differences per draw: blocks of 13 draws
        prob = CenterProblem(l2(40), None, FiniteSet(rng.normal(size=(120, 40))),
                             WeightedSum(np.full(120, 1.0 / 120)))
        delta, cfg = 3.0, centers.ProbeConfig(n_rejection=100, budget=600)
    res = solve_center(prob)
    n = prob.points.dim
    basis = np.eye(n) if prob.feasible is None else np.array(prob.feasible.basis)
    alpha_star = basis.T @ res.minimizer
    width = 2.0
    level = res.rad + delta
    blocks, loop = np.random.default_rng(11), np.random.default_rng(11)
    got = centers._rejection_samples(prob, basis, level, blocks, alpha_star,
                                     width, cfg)
    want = _rejection_by_loop(prob, basis, level, loop, alpha_star, width, cfg)
    assert np.array_equal(got, want)
    assert blocks.bit_generator.state == loop.bit_generator.state
    if case in ("accepting", "wide"):
        assert len(want) == cfg.n_rejection
    elif case == "starving":
        assert len(want) < cfg.n_rejection
    else:
        assert 0 < len(want) <= cfg.n_rejection


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
    exact = delta_center_probe(prob, 0.1, eps=np.inf, result=res)
    assert exact.mode == "vertex-exact"
    # the vertices carry the maximum of the convex distance, so no sampled
    # point of the sublevel set lies farther out
    monkeypatch.setattr(centers, "_sublevel_vertices", lambda *args: None)
    sampled = delta_center_probe(prob, 0.1, eps=np.inf, result=res)
    assert sampled.mode == "sampled"
    assert sampled.excess <= exact.excess + 1e-9
