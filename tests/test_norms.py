import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerlab import barrier, norms, optim
from centerlab.centers import CenterProblem, FiniteSet, WeightedMax, eval_rf, solve_center
from centerlab.errors import (DependentSetError, DimensionMismatchError,
                              InvalidNormError, OptimizationError)
from centerlab.geometry import FEASIBLE, BallFamily, balls_intersect
from centerlab.norms import (
    Subspace,
    add_norm_epigraph,
    dist_to_subspace,
    dist_to_subspace_many,
    eval_norm,
    eval_norm_many,
    explicit_generators,
    intersect_subspaces,
    l1,
    l2,
    linf,
    lp_norm,
    make_direct_sum,
    make_esum,
    max_combiner,
    monotone_polyhedral,
    norm_from_json,
    norm_subgradient,
    norm_to_json,
    polyhedral,
    subspace_from_basis,
    subspace_from_json,
    subspace_from_kernel,
    subspace_to_json,
    sum_combiner,
    sum_subspaces,
    validate_norm,
    weighted_lp,
)

from oracles import (
    annihilator_vertices_by_svd_screen,
    first_asymmetric_by_loop,
    grid_minimize,
    ladder_norm,
    ladder_subgradient,
    svd_rank,
    symmetrized_by_loop,
)
from test_optim import make_lp


def random_polyhedral(rng, dim, n_gens=4):
    gens = rng.normal(size=(n_gens, dim))
    gens = np.vstack([gens, np.eye(dim) * 0.3, -np.eye(dim) * 0.3, -gens])
    return polyhedral(gens, symmetrize=False)


def test_linf_reference_point_is_exact():
    space = linf(3)
    assert eval_norm(space, [1.5, -1.5, -1.5]) == 1.5


def test_zero_vector_has_zero_norm_in_every_variant():
    spaces = [
        linf(3), l1(3), l2(3), lp_norm(2.5, 3),
        polyhedral(np.vstack([np.eye(3), -np.eye(3)]), symmetrize=False),
        make_direct_sum([l1(2), linf(2)], max_combiner(2)),
        make_esum([l1(2), l2(1)], weighted_lp(1, [1.0, 2.0])),
    ]
    for space in spaces:
        assert eval_norm(space, np.zeros(norms.space_dim(space))) == 0.0


def test_polyhedral_eval_equals_max_over_generators_exactly():
    rng = np.random.default_rng(0)
    space = random_polyhedral(rng, 3)
    for _ in range(50):
        x = rng.normal(size=3)
        assert eval_norm(space, x) == float((space.generators @ x).max())


def test_validate_linf_generators_ok():
    space = polyhedral(np.vstack([np.eye(3), -np.eye(3)]), symmetrize=False)
    assert validate_norm(space).ok


def test_validate_not_definite_with_witness():
    space = polyhedral([[1.0, 0.0], [-1.0, 0.0]], symmetrize=False)
    report = validate_norm(space)
    assert not report.ok
    axiom, witness = next(f for f in report.failures if f[0] == "definiteness")
    # the undetected direction is +-(0, 1)
    assert abs(abs(witness[1]) - 1.0) < 1e-9 and abs(witness[0]) < 1e-9


def test_validate_random_symmetric_full_rank_ok():
    rng = np.random.default_rng(42)
    for _ in range(10):
        space = random_polyhedral(rng, 3)
        assert validate_norm(space).ok


def test_validate_norm_reaches_sum_components():
    seminorm = polyhedral([[1.0, 0.0], [-1.0, 0.0]], symmetrize=False)
    report = validate_norm(make_direct_sum([seminorm, l1(1)], max_combiner(2)))
    assert not report.ok
    assert [axiom for axiom, _ in report.failures] == ["definiteness"]


def test_direct_construction_enforces_invariants():
    with pytest.raises(InvalidNormError, match="p >= 1"):
        norms.LpNorm(0.5, 3)
    with pytest.raises(InvalidNormError, match="finite and positive"):
        norms.WeightedLpNorm(2, [-1.0, 1.0])
    with pytest.raises(InvalidNormError, match="nonnegative"):
        norms.MonotonePolyhedralNorm([[-1.0, 1.0]])
    with pytest.raises(DimensionMismatchError, match="component count"):
        norms.SumNorm((l1(1),), max_combiner(2))


def test_symmetrization_warns_and_fixes():
    with pytest.warns(UserWarning):
        space = polyhedral([[1.0, 0.0], [0.0, 1.0]])
    assert validate_norm(space).ok
    assert eval_norm(space, [-2.0, 0.0]) == 2.0


def _edge_generator_sets(rng, count):
    """Seeded generator sets with exact and near repeats, exact and near
    negations (perturbed across the atol 1e-12 and rtol 1e-5 bounds of
    np.allclose), zero rows, and partly symmetric mixtures."""
    steps = [0.0, 1e-13, 5e-13, 2e-12, 5e-6, 2e-5, 1e-3]
    for _ in range(count):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        base = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-13, 3, size=(m, 1))
        if rng.random() < 0.3:
            base = rng.integers(-2, 3, size=(m, n)).astype(float)
        rows = []
        for g in base:
            for _ in range(int(rng.integers(1, 4))):
                sign = rng.choice([1.0, -1.0])
                step = steps[int(rng.integers(len(steps)))]
                rows.append(sign * g * (1.0 + step * rng.choice([-1.0, 1.0]))
                            + step * rng.normal(size=n) * (rng.random() < 0.5))
        if rng.random() < 0.4:
            step = steps[int(rng.integers(3))]
            rows += [-r * (1.0 + step) for r in rows]
        if rng.random() < 0.1:
            rows.append(np.zeros(n))
        yield np.array(rows)[rng.permutation(len(rows))]


@pytest.mark.parametrize("block", [None, 5])
def test_symmetrization_and_symmetry_check_match_the_pairwise_loop(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(norms, "_CLOSE_BLOCK", block)
    rng = np.random.default_rng(77)
    for gens in _edge_generator_sets(rng, 300):
        expected, added = symmetrized_by_loop(gens)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = polyhedral(gens).generators
        assert np.array_equal(got, expected), gens
        assert [str(w.message) for w in caught] == (
            ["generator set was not symmetric; negations added"] if added else [])
        lone = first_asymmetric_by_loop(gens)
        symmetry = [w for axiom, w in polyhedral(gens, symmetrize=False).axiom_failures()
                    if axiom == "symmetry"]
        assert (symmetry == []) if lone is None else np.array_equal(symmetry[0], lone)


def test_direct_sum_max_combiner_matches_flat_linf_exactly():
    comps = [l1(2), l2(2), linf(1)]
    space = make_direct_sum(comps, max_combiner(3))
    rng = np.random.default_rng(5)
    for _ in range(40):
        x = rng.normal(size=5)
        parts = [eval_norm(comps[0], x[:2]), eval_norm(comps[1], x[2:4]),
                 eval_norm(comps[2], x[4:])]
        assert eval_norm(space, x) == max(parts)


def test_direct_sum_two_l1_components_example():
    space = make_direct_sum([l1(2), l1(2)], max_combiner(2))
    assert eval_norm(space, [1.0, 0.0, 0.0, -2.0]) == 2.0


def test_direct_sum_random_two_step_oracle():
    rng = np.random.default_rng(11)
    pi = monotone_polyhedral(rng.uniform(0.1, 1.5, size=(3, 2)))
    comps = [random_polyhedral(rng, 2), l1(3)]
    space = make_direct_sum(comps, pi)
    for _ in range(40):
        x = rng.normal(size=5)
        t = np.array([eval_norm(comps[0], x[:2]), eval_norm(comps[1], x[2:])])
        manual = float((pi.generators @ t).max())
        assert eval_norm(space, x) == pytest.approx(manual, abs=1e-12)


def test_esum_l1_weights_is_sum_of_component_norms():
    comps = [l2(2), linf(2)]
    space = make_esum(comps, weighted_lp(1, [1.0, 1.0]))
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=4)
        expected = eval_norm(comps[0], x[:2]) + eval_norm(comps[1], x[2:])
        assert eval_norm(space, x) == pytest.approx(expected, abs=1e-12)


def test_weighted_norm_builds_its_polyhedral_form_once(monkeypatch):
    # The LP rows of an E-sum with a weighted sup-norm combiner come from
    # the combiner's polyhedral form, built with the norm: no
    # MonotonePolyhedralNorm is constructed while rows are added.
    space = make_esum([linf(2), l1(1)], weighted_lp(np.inf, [1.0, 1.5]))
    real = norms.MonotonePolyhedralNorm.__post_init__
    built = []

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(norms.MonotonePolyhedralNorm, "__post_init__", counted)
    builder = optim.LpBuilder()
    cols = builder.new_vars(3)
    for _ in range(3):
        add_norm_epigraph(builder, space, cols, np.eye(3), np.array([1.0, -2.0, 0.5]),
                          builder.new_var())
    assert built == []
    assert builder.build().a_ub.shape[0] > 0


def test_esum_linf_weights_matches_direct_sum_max():
    comps = [l1(2), l1(2)]
    esum = make_esum(comps, weighted_lp(np.inf, [1.0, 1.0]))
    dsum = make_direct_sum(comps, max_combiner(2))
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.normal(size=4)
        assert eval_norm(esum, x) == pytest.approx(eval_norm(dsum, x), abs=1e-14)


def test_esum_weighted_lp_two_step_oracle():
    rng = np.random.default_rng(9)
    comps = [l1(2), l2(2), linf(2)]
    wn = weighted_lp(2.5, [0.7, 1.3, 0.4])
    space = make_esum(comps, wn)
    for _ in range(30):
        x = rng.normal(size=6)
        t = np.array([eval_norm(c, x[sl]) for c, sl in
                      zip(comps, norms.component_slices(space))])
        manual = float((wn.weights @ t ** 2.5) ** (1 / 2.5))
        assert eval_norm(space, x) == pytest.approx(manual, abs=1e-12)


def test_eval_norm_many_agrees_with_scalar_path():
    rng = np.random.default_rng(12)
    spaces = [
        linf(4), l1(4), lp_norm(3.0, 4), random_polyhedral(rng, 4),
        make_direct_sum([l1(2), linf(2)], sum_combiner(2)),
        make_esum([l2(2), l1(2)], weighted_lp(np.inf, [1.0, 0.5])),
    ]
    xs = rng.normal(size=(25, 4))
    for space in spaces:
        many = eval_norm_many(space, xs)
        single = np.array([eval_norm(space, x) for x in xs])
        assert np.allclose(many, single, atol=1e-12)


def _all_kinds(rng):
    """Every norm variant, with weighted p in {1, 2, 2.5, inf} combiners and
    nested sums.  Integer generators keep exact argmax ties exact."""
    tie_gens = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    inner = make_esum([l2(1), linf(2)], weighted_lp(2.5, [1.0, 0.5]))
    return [
        random_polyhedral(rng, 3), polyhedral(np.vstack([tie_gens, -tie_gens]),
                                              symmetrize=False),
        l1(3), l2(3), lp_norm(2.5, 3), linf(3),
        l1(1), l2(1), lp_norm(2.5, 1), linf(1),
        make_direct_sum([l1(2), linf(1)], max_combiner(2)),
        make_direct_sum([linf(1), linf(1), linf(1)], sum_combiner(3)),
        make_direct_sum([random_polyhedral(rng, 2), l2(1)],
                        monotone_polyhedral([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]])),
        make_esum([l1(1), l2(2)], weighted_lp(1, [1.0, 2.0])),
        make_esum([l2(2), linf(1)], weighted_lp(2, [0.5, 2.0])),
        make_esum([lp_norm(2.5, 1), l1(2)], weighted_lp(2.5, [1.0, 3.0])),
        make_esum([linf(1), linf(1), l1(1)], weighted_lp(np.inf, [1.0, 1.0, 0.5])),
        make_direct_sum([inner, l1(1)], max_combiner(2)),
        make_esum([l1(1), make_direct_sum([linf(1), l2(1)], sum_combiner(2))],
                  weighted_lp(np.inf, [2.0, 1.0])),
    ]


def _tie_rows(rng, n):
    """Seeded rows, zero rows, and rows with ties among coordinates and
    among integer generator values."""
    ties = np.array([[1.0, -1.0, 1.0, -1.0], [2.0, 2.0, -2.0, 2.0],
                     [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 1.0],
                     [-1.0, 0.0, 1.0, 0.0], [0.0, 3.0, -3.0, 3.0]])
    return np.vstack([rng.normal(size=(40, 4)), 1e3 * rng.normal(size=(5, 4)),
                      ties])[:, :n]


def test_plan_matches_scalar_ladder():
    rng = np.random.default_rng(31)
    for space in _all_kinds(rng):
        n = norms.space_dim(space)
        xs = _tie_rows(rng, n)
        vals, grads = space.value_and_subgrad_many(xs)
        assert np.array_equal(vals, space.value_many(xs))
        assert grads.shape == xs.shape
        for x, v, g in zip(xs, vals, grads):
            ref_v, ref_g = ladder_norm(space, x), ladder_subgradient(space, x)
            scale = max(1.0, abs(ref_v))
            assert abs(v - ref_v) <= 1e-14 * scale, (space, x)
            assert np.abs(g - ref_g).max() <= 1e-14 * max(1.0, np.abs(ref_g).max()), (space, x)
            assert abs(float(g @ x) - v) <= 1e-14 * scale
            assert norm_subgradient(space, x) == pytest.approx(ref_g, rel=1e-14, abs=1e-14)
            assert eval_norm(space, x) == pytest.approx(ref_v, rel=1e-14, abs=1e-14)


def test_plan_refuses_what_is_not_a_norm():
    for bad in ({"kind": "lp"}, 3, None, "l2"):
        with pytest.raises(TypeError, match="not a norm spec"):
            norms.space_dim(bad)
        with pytest.raises(TypeError, match="not a norm spec"):
            eval_norm(bad, [1.0])


def test_triangle_and_homogeneity_large_sample():
    rng = np.random.default_rng(21)
    spaces = [
        random_polyhedral(rng, 3),
        lp_norm(1.7, 3),
        make_direct_sum([l1(2), linf(1)], max_combiner(2)),
    ]
    xs = rng.normal(size=(10_000, 3))
    ys = rng.normal(size=(10_000, 3))
    cs = rng.uniform(-2, 2, size=10_000)
    for space in spaces:
        nx, ny = eval_norm_many(space, xs), eval_norm_many(space, ys)
        nxy = eval_norm_many(space, xs + ys)
        assert (nxy <= nx + ny + 1e-9 * np.maximum(1.0, nx + ny)).all()
        ncx = eval_norm_many(space, cs[:, None] * xs)
        assert np.allclose(ncx, np.abs(cs) * nx, rtol=1e-9, atol=1e-12)


def test_monotone_combiner_is_monotone_on_orthant():
    rng = np.random.default_rng(8)
    pi = monotone_polyhedral(rng.uniform(0, 2, size=(4, 3)) + 0.05)
    for _ in range(500):
        t1 = rng.uniform(0, 3, size=3)
        t2 = t1 + rng.uniform(0, 2, size=3)
        assert pi.value_many(np.abs(t1)[None])[0] <= \
            pi.value_many(np.abs(t2)[None])[0] + 1e-12


def test_norm_subgradient_supports_and_bounds():
    rng = np.random.default_rng(14)
    spaces = [
        random_polyhedral(rng, 3), l1(3), linf(3), l2(3), lp_norm(2.5, 3),
        make_direct_sum([l1(2), linf(1)], max_combiner(2)),
        make_esum([l1(1), l2(2)], weighted_lp(1, [1.0, 2.0])),
    ]
    for space in spaces:
        for _ in range(30):
            x = rng.normal(size=3)
            g = norm_subgradient(space, x)
            assert float(g @ x) == pytest.approx(eval_norm(space, x), rel=1e-9, abs=1e-12)
            y = rng.normal(size=3)
            assert float(g @ y) <= eval_norm(space, y) + 1e-9


def test_subspace_from_basis_reference_line():
    y1 = subspace_from_basis(3, [[1.0, 0.0, -1.0]])
    assert y1.dim == 1
    assert y1.kernel.shape == (2, 3)
    assert np.abs(y1.kernel @ np.array([1.0, 0.0, -1.0])).max() < 1e-12
    # annihilator coincides with span{(1,0,1), (0,1,0)}
    assert svd_rank(np.vstack([y1.kernel, [[1, 0, 1], [0, 1, 0]]])) == 2


def test_empty_basis_zero_subspace():
    z = subspace_from_basis(3, [])
    assert z.dim == 0
    assert z.kernel.shape == (3, 3)
    assert not z.contains([1e-3, 0, 0])
    assert z.contains([0.0, 0.0, 0.0])


def test_random_basis_kernel_residuals():
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        sub = subspace_from_basis(n, rng.normal(size=(k, n)))
        resid = np.abs(sub.kernel @ sub.basis)
        assert resid.max(initial=0.0) < 1e-10


def test_dependent_basis_rejected():
    with pytest.raises(DependentSetError):
        subspace_from_basis(3, [[1, 0, 0], [2, 0, 0]])
    with pytest.raises(DependentSetError):
        subspace_from_kernel(3, [[1, 1, 0], [2, 2, 0]])


def test_sum_subspaces_reference_plane():
    y1 = subspace_from_basis(3, [[1.0, 0.0, -1.0]])
    y2 = subspace_from_basis(3, [[0.0, 1.0, -1.0]])
    plane = sum_subspaces(y1, y2)
    assert plane.dim == 2
    k = plane.kernel[0]
    assert np.allclose(k / k[0], [1.0, 1.0, 1.0], atol=1e-9)


def test_sum_subspaces_idempotent():
    y = subspace_from_basis(4, [[1, 2, 0, 0], [0, 0, 1, 1]])
    s = sum_subspaces(y, y)
    assert s.dim == y.dim
    assert s.is_subspace_of(y) and y.is_subspace_of(s)


def test_sum_dimension_formula_against_rank_oracle():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        ky = int(rng.integers(0, n + 1))
        kz = int(rng.integers(0, n + 1))
        y = subspace_from_basis(n, rng.normal(size=(ky, n)) if ky else [])
        z = subspace_from_basis(n, rng.normal(size=(kz, n)) if kz else [])
        s = sum_subspaces(y, z)
        inter = intersect_subspaces(y, z)
        stacked = np.vstack([y.basis.T, z.basis.T]) if ky + kz else np.zeros((0, n))
        assert s.dim == svd_rank(stacked)
        assert s.dim == y.dim + z.dim - inter.dim


def test_dist_to_subspace_l1_basis_vectors():
    for n in range(1, 8):
        space = l1(12)
        sub = subspace_from_basis(12, np.eye(12)[:n])
        x = np.eye(12)[n]
        d, nearest = dist_to_subspace(space, x, sub)
        assert d == pytest.approx(1.0, abs=1e-9)
        assert eval_norm(space, x - nearest) == pytest.approx(d, abs=1e-9)


def test_dist_zero_iff_member():
    space = linf(3)
    sub = subspace_from_basis(3, [[1.0, 1.0, 0.0]])
    d, nearest = dist_to_subspace(space, np.array([2.0, 2.0, 0.0]), sub)
    assert d == 0.0
    assert np.allclose(nearest, [2.0, 2.0, 0.0])
    d2, _ = dist_to_subspace(space, np.array([2.0, 2.0, 0.1]), sub)
    assert d2 > 1e-3


def test_dist_matches_grid_oracle():
    rng = np.random.default_rng(55)
    for _ in range(8):
        dim = int(rng.integers(2, 4))
        space = [linf(dim), l1(dim), random_polyhedral(rng, dim)][int(rng.integers(3))]
        sub = subspace_from_basis(dim, rng.normal(size=(1, dim)))
        x = rng.normal(size=dim)
        d, _ = dist_to_subspace(space, x, sub)

        def fun(alpha):
            return eval_norm(space, x - sub.embed(alpha))

        oracle, _ = grid_minimize(fun, np.zeros(1), 6.0, steps=41, refinements=6)
        assert d == pytest.approx(oracle, abs=1e-3)


def test_dist_subgradient_path_for_l2():
    space = l2(3)
    sub = subspace_from_basis(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x = np.array([3.0, -2.0, 5.0])
    d, nearest = dist_to_subspace(space, x, sub)
    assert d == pytest.approx(5.0, abs=1e-6)
    assert np.allclose(nearest[:2], [3.0, -2.0], atol=1e-4)


def test_l2_distance_equals_the_euclidean_projection_distance():
    rng = np.random.default_rng(31)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        sub = subspace_from_basis(n, rng.normal(size=(int(rng.integers(1, n)), n)))
        x0 = rng.normal(size=n)
        for scale in (1.0, 10.0, 100.0):
            x = scale * x0
            d, nearest = dist_to_subspace(l2(n), x, sub)
            exact = float(np.linalg.norm(x - sub.project_euclid(x)))
            assert d == pytest.approx(exact, rel=1e-12, abs=0.0)
            assert sub.contains(nearest)


def test_unconverged_subgradient_distance_raises(monkeypatch):
    # l3 has no LP route, so the distance is a barrier solve; one whose
    # bracket stays open is an error, not a distance
    real_barrier, calls = barrier.barrier_solve, []

    def unclosed(*args):
        point, upper, lower, steps = real_barrier(*args)
        calls.append(lower)
        return point, upper, lower - 1e-9 * max(1.0, upper), steps

    monkeypatch.setattr(barrier, "barrier_solve", unclosed)
    sub = subspace_from_basis(3, [[1.0, 2.0, 0.0]])
    with pytest.raises(OptimizationError, match="bracket did not close"):
        dist_to_subspace(lp_norm(3.0, 3), np.array([1.0, 0.3, 2.0]), sub)
    assert len(calls) == 1


ANNIHILATOR_SPACES = {
    "linf": lambda rng: linf(4),
    "l1": lambda rng: l1(4),
    "polyhedral": lambda rng: random_polyhedral(rng, 4),
    "max-sum": lambda rng: make_direct_sum([l1(2), random_polyhedral(rng, 2)],
                                           max_combiner(2)),
    "sum-sum": lambda rng: make_direct_sum([linf(2), l1(2)], sum_combiner(2)),
    "weighted-inf-esum": lambda rng: make_esum([linf(1), l1(3)],
                                               weighted_lp(np.inf, [1.0, 0.6])),
}


@pytest.mark.parametrize("kind", sorted(ANNIHILATOR_SPACES))
def test_dist_to_subspace_many_matches_the_lp(kind):
    rng = np.random.default_rng(21)
    space = ANNIHILATOR_SPACES[kind](rng)
    subs = [Subspace.zero(4)]
    for k in range(1, 4):
        subs.append(subspace_from_basis(4, rng.normal(size=(k, 4))))
        # signed coordinate subspaces: their vertices have degenerate supports
        signed = np.zeros((k, 4))
        signed[np.arange(k), rng.permutation(4)[:k]] = rng.choice([-1.0, 1.0], size=k)
        subs.append(subspace_from_basis(4, signed))
    for sub in subs:
        if sub.dim:
            assert norms._annihilator_vertices(space, sub) is not None
        xs = rng.normal(size=(8, 4)) * 1.5
        xs[0] = sub.embed(rng.normal(size=sub.dim))
        got = dist_to_subspace_many(space, xs, sub)
        assert got[0] == 0.0
        for x, d in zip(xs, got):
            exact, _ = dist_to_subspace(space, x, sub)
            assert abs(d - exact) <= 1e-12 * max(1.0, exact)


@pytest.mark.parametrize("kind", sorted(ANNIHILATOR_SPACES))
def test_annihilator_vertices_match_the_unbatched_solve(kind):
    # random and signed coordinate subspaces of dimensions 1 and 2, the
    # latter with degenerate supports: the dual vertices equal, byte for
    # byte, those of one screened solve over every support at once
    rng = np.random.default_rng(22)
    space = ANNIHILATOR_SPACES[kind](rng)
    gens = norms.explicit_generators(space)
    for k in (1, 2):
        signed = np.zeros((k, 4))
        signed[np.arange(k), rng.permutation(4)[:k]] = rng.choice([-1.0, 1.0], size=k)
        for sub in (subspace_from_basis(4, rng.normal(size=(k, 4))),
                    subspace_from_basis(4, signed)):
            got = norms._enumerate_annihilator_vertices(space, sub.basis)
            want = annihilator_vertices_by_svd_screen(gens, sub.basis)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_dist_to_subspace_many_l1_50_solves_lps(monkeypatch):
    calls = []
    real = optim.lp_solve

    def counted(lp, **kwargs):
        calls.append(lp)
        return real(lp, **kwargs)

    monkeypatch.setattr(optim, "lp_solve", counted)
    sub = subspace_from_basis(50, np.eye(50)[:4])
    dists = dist_to_subspace_many(l1(50), np.eye(50)[4:7], sub)
    assert dists == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
    assert len(calls) == 3


def test_explicit_generators_reproduce_norm():
    rng = np.random.default_rng(2)
    spaces = [
        l1(3), linf(3),
        make_direct_sum([l1(2), linf(2)], max_combiner(2)),
        make_esum([l1(1), linf(2)], weighted_lp(1, [1.0, 2.0])),
        make_direct_sum([l1(2), l1(1)],
                        monotone_polyhedral([[1.0, 0.5], [0.2, 1.0]])),
        make_esum([linf(2)], weighted_lp(2, [4.0])),
        make_direct_sum([l2(1), l1(2)], max_combiner(2)),
        make_esum([l1(2), linf(1)], weighted_lp(np.inf, [1.0, 0.7])),
    ]
    for space in spaces:
        gens = explicit_generators(space)
        for _ in range(20):
            x = rng.normal(size=norms.space_dim(space))
            assert float((gens @ x).max()) == pytest.approx(
                eval_norm(space, x), rel=1e-12, abs=1e-12)


def test_explicit_generators_rejects_smooth_norms():
    with pytest.raises(InvalidNormError):
        explicit_generators(l2(2))


def test_epigraph_encoder_exactness():
    rng = np.random.default_rng(6)
    spaces = [
        l1(3), linf(3), random_polyhedral(rng, 3),
        make_direct_sum([l1(2), linf(1)], sum_combiner(2)),
        make_esum([l1(2), linf(1)], weighted_lp(np.inf, [1.0, 0.7])),
        make_esum([linf(2)], weighted_lp(2, [4.0])),
        make_direct_sum([l2(1), l1(2)], max_combiner(2)),
        l2(1), l2(2),
        make_esum([l1(2), linf(1)], weighted_lp(2, [1.0, 0.7])),
    ]
    for space in spaces:
        n = norms.space_dim(space)
        mat = rng.normal(size=(n, 2))
        off = rng.normal(size=n)
        u0 = rng.normal(size=2)
        builder = optim.LpBuilder()
        cols = builder.new_vars(2)
        t = builder.new_var()
        builder.set_objective([t], [1.0])
        try:
            add_norm_epigraph(builder, space, cols, mat, off, t)
        except InvalidNormError:
            assert not norms.is_lp_encodable(space)
            continue
        lp = builder.build()
        # pin u = u0 with two opposed <= rows per coordinate
        pin = np.zeros((2, lp.n_vars))
        pin[0, cols[0]] = 1.0
        pin[1, cols[1]] = 1.0
        pinned = make_lp(lp.objective, np.vstack([lp.a_ub, pin, -pin]),
                         np.concatenate([lp.b_ub, u0, -u0]))
        out = optim.lp_solve(pinned)
        exact = out.status == optim.OPTIMAL and out.value == pytest.approx(
            eval_norm(space, mat @ u0 + off), abs=1e-8)
        assert norms.is_lp_encodable(space) == exact


def test_one_component_esum_lp_matches_norm():
    # (4 t^2)^(1/2) combines one sup norm into 2 ||x||_inf
    space = make_esum([linf(2)], weighted_lp(2, [4.0]))
    d, _ = dist_to_subspace(space, [3.0, 1.0], subspace_from_basis(2, [[0.0, 1.0]]))
    assert d == pytest.approx(6.0, abs=1e-9)
    points = FiniteSet([[0.0, 0.0], [4.0, 0.0]])
    f = WeightedMax([1.0, 1.0])
    res = solve_center(CenterProblem(space, None, points, f))
    assert res.method == "lp"
    assert res.rad == pytest.approx(4.0, abs=1e-9)
    assert eval_rf(space, res.minimizer, points, f) == pytest.approx(4.0, abs=1e-9)
    # (2, 0) lies in both balls; the LP's witness is a vertex of their
    # intersection {1.75 <= x <= 2.25, |y| <= 2.25}
    family = BallFamily(points.points, [4.5, 4.5])
    out = balls_intersect(space, family)
    assert out.status == FEASIBLE
    assert eval_norm_many(space, out.witness - points.points).max() <= 4.5 + 1e-9
    assert eval_norm_many(space, np.array([2.0, 0.0]) - points.points).max() <= 4.5


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        eval_norm(linf(3), [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        dist_to_subspace(linf(3), np.zeros(3), subspace_from_basis(2, [[1.0, 0.0]]))


def test_json_roundtrip_norms():
    spaces = [
        linf(3), l1(2), lp_norm(2.5, 4),
        polyhedral([[1, 1], [1, -1], [-1, -1], [-1, 1]], symmetrize=False),
        make_direct_sum([l1(2), linf(2)], max_combiner(2)),
        make_esum([l1(1), l2(2)], weighted_lp(np.inf, [1.0, 2.0])),
        make_esum([l2(2), linf(1)], monotone_polyhedral([[1.0, 0.5], [0.3, 1.0]])),
    ]
    rng = np.random.default_rng(1)
    for space in spaces:
        back = norm_from_json(norm_to_json(space))
        for _ in range(10):
            x = rng.normal(size=norms.space_dim(space))
            assert eval_norm(back, x) == pytest.approx(eval_norm(space, x), abs=1e-12)
    # an E-sum with a monotone polyhedral weight norm is the same norm as the
    # direct sum with that combiner, and is written as one
    assert norm_to_json(spaces[-1])["kind"] == "direct_sum"
    assert norm_to_json(spaces[-2])["kind"] == "esum"


def test_json_roundtrip_is_exact_for_every_kind():
    rng = np.random.default_rng(53)
    spaces = _all_kinds(rng) + [
        make_esum([l2(2), linf(1)], monotone_polyhedral([[1.0, 0.5], [0.3, 1.0]])),
        make_esum([make_direct_sum([random_polyhedral(rng, 2), l1(1)], sum_combiner(2)),
                   make_esum([lp_norm(3.0, 1)], weighted_lp(1.5, [2.0]))],
                  weighted_lp(2, [0.5, 1.5])),
    ]
    for space in spaces:
        data = norm_to_json(space)
        back = norm_from_json(json.loads(json.dumps(data)))
        assert norm_to_json(back) == data
        xs = _tie_rows(rng, norms.space_dim(space))
        assert xs.shape[1] == norms.space_dim(space)
        vals, grads = space.value_and_subgrad_many(xs)
        back_vals, back_grads = back.value_and_subgrad_many(xs)
        assert np.array_equal(back_vals, vals) and np.array_equal(back_grads, grads), data


def test_direct_sum_rejects_weighted_lp_combiner():
    with pytest.raises(InvalidNormError):
        make_direct_sum([l1(1), l1(1)], weighted_lp(2, [1.0, 1.0]))


def test_json_refuses_polyhedral_seminorm():
    gens = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]
    with pytest.raises(InvalidNormError):
        norm_from_json({"kind": "polyhedral", "generators": gens})


def test_json_roundtrip_subspace():
    sub = subspace_from_basis(3, [[1.0, 0.0, -1.0]])
    back = subspace_from_json(subspace_to_json(sub))
    assert back.dim == sub.dim
    assert back.is_subspace_of(sub) and sub.is_subspace_of(back)
    ker = subspace_from_kernel(4, [[1.0, 1.0, 1.0, 1.0]])
    back2 = subspace_from_json(subspace_to_json(ker))
    assert back2.dim == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=5),
       st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=5))
def test_triangle_inequality_hypothesis(a, b):
    n = min(len(a), len(b))
    x = np.array(a[:n], dtype=float)
    y = np.array(b[:n], dtype=float)
    for space in (l1(n), linf(n), l2(n)):
        assert eval_norm(space, x + y) <= eval_norm(space, x) + eval_norm(space, y) + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10_000))
def test_ball_membership_scaling_hypothesis(dim, seed):
    rng = np.random.default_rng(seed)
    space = random_polyhedral(rng, dim)
    x = rng.normal(size=dim)
    nrm = eval_norm(space, x)
    if nrm > 1e-9:
        assert eval_norm(space, x / nrm) == pytest.approx(1.0, rel=1e-12)
