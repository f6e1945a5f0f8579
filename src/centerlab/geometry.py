"""Ball-intersection feasibility and subspace property checkers.

The checkers come in two strengths.  Falsification is exact: a family of
balls with no common point in a subspace carries a Farkas certificate, and a
candidate projection that fails the norm-1 condition carries an explicit
violating vector.  Positive verdicts from randomized checkers are always
"no counterexample found in N trials", never proofs.

Random ball families are generated witness-first (pick the witness, derive
the radii), since independently random radii almost never intersect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import norms, optim
from .centers import CenterProblem, FiniteSet, WeightedSum, solve_center
from .errors import DimensionMismatchError, OptimizationError
from .norms import (
    Ball,
    Subspace,
    dist_to_subspace,
    dist_to_subspace_many,
    eval_norm,
    eval_norm_many,
    intersect_subspaces,
    norm_subgradient,
)
from .optim import FEAS_TOL

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNRESOLVED = "unresolved"


@dataclass(frozen=True, eq=False)
class BallFamily:
    balls: tuple

    def __post_init__(self):
        balls = tuple(self.balls)
        if not balls:
            raise ValueError("ball family must be nonempty")
        dim = balls[0].center.shape[0]
        if any(b.center.shape[0] != dim for b in balls):
            raise DimensionMismatchError("ball centers have mixed dimensions")
        object.__setattr__(self, "balls", balls)

    @classmethod
    def from_arrays(cls, centers, radii) -> "BallFamily":
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        radii = np.asarray(radii, dtype=float).ravel()
        if centers.ndim != 2 or centers.shape[0] != radii.shape[0]:
            raise ValueError("a family needs one center row per radius")
        if not (np.isfinite(centers).all() and np.isfinite(radii).all()):
            raise ValueError("ball centers and radii must be finite")
        return cls(tuple(Ball(c, float(r)) for c, r in zip(centers, radii)))

    @property
    def centers(self) -> np.ndarray:
        return np.array([b.center for b in self.balls])

    @property
    def radii(self) -> np.ndarray:
        return np.array([b.radius for b in self.balls])

    @property
    def size(self) -> int:
        return len(self.balls)

    @property
    def dim(self) -> int:
        return self.balls[0].center.shape[0]


def family_to_json(family: BallFamily) -> dict:
    return {"centers": family.centers.tolist(), "radii": family.radii.tolist()}


def family_from_json(data: dict) -> BallFamily:
    return BallFamily.from_arrays(data["centers"], data["radii"])


@dataclass(frozen=True, eq=False)
class IntersectionResult:
    """Outcome of a ball-intersection query, with replayable evidence.

    `lp` and `outcome` hold the feasibility program and its certificate for
    polyhedral norms; non-polyhedral infeasibility is only ever reported as
    "unresolved" (nothing found below tolerance), never as certified."""

    status: str
    witness: np.ndarray | None
    lp: optim.LinearProgram | None
    outcome: object


def balls_intersect(space, family: BallFamily, within: Subspace | None = None
                    ) -> IntersectionResult:
    """Decide whether the balls share a point of `within` (whole space when
    None)."""
    n = norms.space_dim(space)
    if family.dim != n:
        raise DimensionMismatchError("family does not match the space dimension")
    if within is not None and within.ambient_dim != n:
        raise DimensionMismatchError("subspace ambient dim mismatch")
    basis = np.eye(n) if within is None else np.array(within.basis)
    centers = family.centers
    radii = family.radii

    if norms.is_lp_encodable(space):
        builder = optim.LpBuilder()
        alphas = builder.new_vars(basis.shape[1])
        tvars = builder.new_vars(family.size)
        for center, radius, tv in zip(centers, radii, tvars):
            norms.add_norm_epigraph(builder, space, alphas, basis, -center, tv)
            builder.add_ub([tv], [[1.0]], [radius])
        lp = builder.build()
        out = optim.lp_solve(lp)
        if out.status == optim.OPTIMAL:
            witness = basis @ out.x[:basis.shape[1]]
            gaps = eval_norm_many(space, witness[None, :] - centers) - radii
            if gaps.max(initial=0.0) > 1e-8 * max(1.0, float(radii.max(initial=1.0))):
                raise OptimizationError("witness failed the ball audit")
            return IntersectionResult(FEASIBLE, witness, lp, out)
        if out.status == optim.INFEASIBLE:
            return IntersectionResult(INFEASIBLE, None, lp, out)
        raise OptimizationError(f"feasibility LP ended with {out.status}")

    basis_t = basis.T

    def oracle(alpha):
        vals, grads = space.value_and_subgrad_many(basis @ alpha - centers)
        gaps = vals - radii
        j = int(np.argmax(gaps))
        return float(gaps[j]), basis_t @ grads[j]

    start = basis.T @ centers.mean(axis=0)
    scale = max(1.0, 2.0 * float(np.linalg.norm(centers - centers.mean(axis=0),
                                                axis=1).max(initial=0.0)))
    res = optim.staged_subgradient(oracle, start, scale=scale)
    witness = basis @ res.point
    gaps = eval_norm_many(space, witness[None, :] - centers) - radii
    if gaps.max(initial=0.0) <= FEAS_TOL * max(1.0, float(radii.max(initial=1.0))):
        return IntersectionResult(FEASIBLE, witness, None, res)
    return IntersectionResult(UNRESOLVED, witness, None, res)


# ---------------------------------------------------------------------------
# central subspaces

@dataclass(frozen=True, eq=False)
class CentralVerdict:
    passed: bool
    counterexample: BallFamily | None
    result: IntersectionResult | None
    trials_run: int
    injected: bool
    note: str


def central_subspace_check(space, sub: Subspace, trials: int, seed: int,
                           within: Subspace | None = None,
                           inject: Sequence[BallFamily] = ()) -> CentralVerdict:
    """Randomized search for a family of balls with centers in `sub` that
    intersects in `within` (default: the whole space) but not in `sub`.

    Families of 2-4 balls are generated witness-first: the witness is drawn
    from `within`, centers from `sub`, and each radius is the witness
    distance inflated by a factor in [1, 1.2], so feasibility in `within`
    holds by construction.  Injected families are tested first.
    """
    n = norms.space_dim(space)
    rng = np.random.default_rng(seed)
    for fam in inject:
        res = balls_intersect(space, fam, sub)
        if res.status != FEASIBLE:
            return CentralVerdict(False, fam, res, 0, True,
                                  "injected family fails to intersect in the subspace")
    w_basis = np.eye(n) if within is None else np.array(within.basis)
    for trial in range(trials):
        k = int(rng.integers(2, 5))
        w = w_basis @ rng.normal(size=w_basis.shape[1]) * 1.5
        centers = (sub.basis @ rng.normal(size=(sub.dim, k)) * 1.5).T \
            if sub.dim else np.zeros((k, n))
        radii = eval_norm_many(space, w[None, :] - centers) * \
            (1.0 + rng.uniform(0.0, 0.2, size=k))
        fam = BallFamily.from_arrays(centers, radii)
        res = balls_intersect(space, fam, sub)
        if res.status != FEASIBLE:
            certified = res.status == INFEASIBLE
            note = ("counterexample with Farkas certificate" if certified
                    else "candidate counterexample (semi-decided norm)")
            return CentralVerdict(False, fam, res, trial + 1, False, note)
    return CentralVerdict(True, None, None, trials, False,
                          f"no counterexample found in {trials} trials")


# ---------------------------------------------------------------------------
# dominators

def ac_dominator(space, sub: Subspace, a_points, x) -> IntersectionResult:
    """Find y in the subspace with ||y - a|| <= ||x - a|| for every a in the
    finite set, or certify that none exists (polyhedral norms): the balls
    around the points with radii ||x - a|| must meet in the subspace, and the
    witness is the dominator."""
    a_points = np.atleast_2d(np.asarray(a_points, dtype=float))
    x = np.asarray(x, dtype=float)
    for a in a_points:
        if not sub.contains(a, tol=1e-7):
            raise ValueError("reference points must lie in the subspace")
    caps = eval_norm_many(space, x[None, :] - a_points)
    if not np.isfinite(caps).all():
        raise OptimizationError("dominator radii overflow")
    return balls_intersect(space, BallFamily.from_arrays(a_points, caps), sub)


# ---------------------------------------------------------------------------
# elementary projections span{x, Y} -> Y

@dataclass(frozen=True, eq=False)
class ProjectionData:
    """A candidate norm-1 projection onto `subspace`, determined by its value
    on one transversal vector: P(a*x + y) = a*image + y."""

    subspace: Subspace
    transversal: np.ndarray
    image: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.transversal, dtype=float)
        p = np.asarray(self.image, dtype=float)
        object.__setattr__(self, "transversal", x)
        object.__setattr__(self, "image", p)
        if self.subspace.contains(x, tol=1e-7):
            raise ValueError("transversal vector lies in the target subspace")
        if not self.subspace.contains(p, tol=1e-7):
            raise ValueError("image vector must lie in the target subspace")

    def decompose(self, v) -> tuple[float, np.ndarray]:
        """Write v = alpha * transversal + y with y in the subspace."""
        v = np.asarray(v, dtype=float)
        kx = self.subspace.kernel @ self.transversal
        alpha = float(kx @ (self.subspace.kernel @ v)) / float(kx @ kx)
        y = v - alpha * self.transversal
        if not self.subspace.contains(y, tol=1e-6):
            raise ValueError("vector outside span{transversal, subspace}")
        return alpha, y

    def apply(self, v) -> np.ndarray:
        alpha, y = self.decompose(v)
        if alpha == 1.0 and not y.any():
            return self.image.copy()
        return alpha * self.image + y


@dataclass(frozen=True, eq=False)
class ProjectionVerdict:
    accepted: bool
    max_violation: float
    witness: np.ndarray | None
    mode: str


def verify_norm1_projection(space, pd: ProjectionData, trials: int = 200,
                            seed: int = 0) -> ProjectionVerdict:
    """Check ||image + y|| <= ||transversal + y|| for all y in the subspace
    (equivalent, by homogeneity, to the projection having norm one).

    Exact mode enumerates the extreme points of the unit ball of
    span{transversal, Y} (polyhedral norms, span dimension <= 4); otherwise
    `trials` seeded samples plus local ascent on the violation gap, labelled
    "sampled-fallback" when the span is too large.  Rejections carry the
    violating y.
    """
    x, p, sub = pd.transversal, pd.image, pd.subspace
    span_dim = sub.dim + 1
    gens = None
    if span_dim <= 4:
        try:
            gens = norms.explicit_generators(space, cap=20_000)
        except norms.InvalidNormError:
            gens = None

    if gens is not None:
        s_mat = np.column_stack([x, sub.basis])
        verts = optim.enumerate_vertices(gens @ s_mat, np.ones(gens.shape[0]))
        worst = 0.0
        witness = None
        for u in verts:
            tv = u[0] * p + sub.basis @ u[1:]
            viol = eval_norm(space, tv) - 1.0
            if viol > worst:
                worst = viol
                witness = (sub.basis @ u[1:]) / u[0] if abs(u[0]) > 1e-12 else None
        if worst <= 1e-9:
            return ProjectionVerdict(True, worst, None, "exact")
        return ProjectionVerdict(False, worst, witness, "exact")

    rng = np.random.default_rng(seed)
    scale = max(1.0, eval_norm(space, x))

    def violation(y):
        return eval_norm(space, p + y) - eval_norm(space, x + y)

    best = violation(np.zeros_like(x))
    best_y = np.zeros_like(x)
    starts = [(best, best_y)]
    for _ in range(trials):
        y = sub.basis @ rng.normal(size=sub.dim) * scale * rng.choice([0.3, 1.0, 3.0])
        v = violation(y)
        starts.append((v, y))
        if v > best:
            best, best_y = v, y
    starts.sort(key=lambda t: -t[0])
    for v0, y0 in starts[:3]:
        y = y0.copy()
        for step in range(60):
            g = norm_subgradient(space, p + y) - norm_subgradient(space, x + y)
            y = y + (0.3 * scale / (step + 2.0)) * sub.project_euclid(g)
            v = violation(y)
            if v > best:
                best, best_y = v, y
    label = "sampled-fallback" if span_dim > 4 else "sampled"
    if best <= 1e-9 * scale:
        return ProjectionVerdict(True, best, None, label)
    return ProjectionVerdict(False, best, best_y, label)


@dataclass(frozen=True, eq=False)
class NetProbeResult:
    status: str  # "candidate" | "falsified" | "inconclusive"
    image: np.ndarray | None
    net: np.ndarray | None
    verdict: ProjectionVerdict | None
    rounds: int


def almost_constrained_probe(space, sub: Subspace, x, seed: int = 0,
                             inject: Sequence[np.ndarray] = ()) -> NetProbeResult:
    """Search for a norm-1 projection image for span{x, Y} -> Y via dominators
    over growing finite nets in Y: 8 points at first, doubled in each of at
    most 7 rounds.

    Falsification is sound: a finite net with a certified empty dominator set
    refutes the projection's existence outright.  Acceptance is net-limited:
    a candidate that survives verification is returned, otherwise the
    verification witness is fed back into the net (the violating y enters as
    the reference point -y) and the search continues until the budget runs
    out.
    """
    x = np.asarray(x, dtype=float)
    if sub.contains(x, tol=1e-7):
        raise ValueError("x already lies in the subspace")
    rng = np.random.default_rng(seed)
    scale = max(1.0, eval_norm(space, x))
    net: list[np.ndarray] = []
    for arr in inject:
        net.extend(np.atleast_2d(np.asarray(arr, dtype=float)))
    size = 8
    for round_no in range(7):
        while len(net) < size:
            net.append(sub.basis @ rng.normal(size=sub.dim) * scale *
                       rng.choice([0.5, 1.0, 2.0]))
        res = ac_dominator(space, sub, np.array(net), x)
        if res.status == INFEASIBLE:
            return NetProbeResult("falsified", None, np.array(net), None, round_no + 1)
        if res.status == UNRESOLVED:
            return NetProbeResult("inconclusive", None, np.array(net), None,
                                  round_no + 1)
        pd = ProjectionData(sub, x, res.witness)
        verdict = verify_norm1_projection(space, pd, seed=seed + round_no)
        if verdict.accepted:
            return NetProbeResult("candidate", res.witness, np.array(net),
                                  verdict, round_no + 1)
        if verdict.witness is not None:
            net.append(-verdict.witness)
        size *= 2
    return NetProbeResult("inconclusive", None, np.array(net), None, 7)


# ---------------------------------------------------------------------------
# locally constrained pairs and the ball-intersection transfer

@dataclass(frozen=True, eq=False)
class LocallyConstrainedData:
    """Projection pair for one z: inner maps span{z, Z2} onto Z2, outer maps
    span{z, Y} onto Y, and both send z to the same image."""

    z: np.ndarray
    inner: ProjectionData
    outer: ProjectionData


def locally_constrained_from_full_projection(p_matrix, z, z2: Subspace,
                                             y: Subspace) -> LocallyConstrainedData:
    """Standard construction when Y is the range of a full norm-1 projection
    that leaves Z1 invariant: both local projections restrict it."""
    z = np.asarray(z, dtype=float)
    image = np.asarray(p_matrix, dtype=float) @ z
    return LocallyConstrainedData(z, ProjectionData(z2, z, image),
                                  ProjectionData(y, z, image))


@dataclass(frozen=True, eq=False)
class LocalVerdict:
    accepted: bool
    reason: str
    inner: ProjectionVerdict | None
    outer: ProjectionVerdict | None


def locally_constrained_verify(space, data: LocallyConstrainedData) -> LocalVerdict:
    """Both projections must have norm one (`verify_norm1_projection` with
    its defaults) and share the image of z exactly."""
    if not data.inner.subspace.is_subspace_of(data.outer.subspace):
        raise ValueError("inner target must be nested inside the outer target")
    if not (np.array_equal(data.inner.transversal, data.z)
            and np.array_equal(data.outer.transversal, data.z)):
        return LocalVerdict(False, "transversal vectors disagree with z", None, None)
    if not np.array_equal(data.inner.image, data.outer.image):
        return LocalVerdict(False, "images of z differ", None, None)
    inner_v = verify_norm1_projection(space, data.inner)
    if not inner_v.accepted:
        return LocalVerdict(False, "inner projection exceeds norm one", inner_v, None)
    outer_v = verify_norm1_projection(space, data.outer)
    if not outer_v.accepted:
        return LocalVerdict(False, "outer projection exceeds norm one",
                            inner_v, outer_v)
    return LocalVerdict(True, "ok", inner_v, outer_v)


@dataclass(frozen=True, eq=False)
class TransferResult:
    ok: bool
    stage: str
    point: np.ndarray | None
    detail: dict


def locally_constrained_transfer(space, z1: Subspace, y: Subspace,
                                 z2: Subspace, family: BallFamily,
                                 factory: Callable[[np.ndarray], LocallyConstrainedData],
                                 ) -> TransferResult:
    """Route a ball family with centers in Z2 through a Z1 witness and the
    locally constrained projection pair, landing a common point in Z2.

    Stages: the family must intersect within Y; it must intersect within Z1
    (this is where centrality of Z1 is exercised); the projection pair that
    `factory` builds for the found witness must verify; and the projected
    point must lie in every ball.  The first failing stage is reported.
    """
    for b in family.balls:
        if not z2.contains(b.center, tol=1e-7):
            return TransferResult(False, "precondition", None,
                                  {"reason": "ball center outside Z2"})
    res_y = balls_intersect(space, family, y)
    if res_y.status != FEASIBLE:
        return TransferResult(False, "family-in-Y", None, {"result": res_y})
    res_z1 = balls_intersect(space, family, z1)
    if res_z1.status != FEASIBLE:
        return TransferResult(False, "witness-in-Z1", None, {"result": res_z1})
    z_wit = res_z1.witness
    if z2.contains(z_wit):
        return TransferResult(True, "done", z_wit,
                              {"note": "witness already lies in the target"})
    data = factory(z_wit)
    if np.abs(data.z - z_wit).max() > 1e-7 * max(1.0, np.abs(z_wit).max()):
        return TransferResult(False, "projection-data", None,
                              {"reason": "data built for a different witness"})
    verdict = locally_constrained_verify(space, data)
    if not verdict.accepted:
        return TransferResult(False, "projection-data", None,
                              {"verdict": verdict})
    point = data.inner.image
    if not z2.contains(point, tol=1e-7):
        return TransferResult(False, "membership", None,
                              {"reason": "projected point left Z2"})
    dists = eval_norm_many(space, point[None, :] - family.centers)
    slack = dists - family.radii
    if slack.max(initial=0.0) > 1e-9 * max(1.0, float(family.radii.max())):
        return TransferResult(False, "radius", point,
                              {"distances": dists, "radii": family.radii})
    return TransferResult(True, "ok", point,
                          {"distances": dists, "radii": family.radii})


# ---------------------------------------------------------------------------
# compositions across sums

def _lift_subspace(parts: Sequence[Subspace], n_total: int,
                   slices: Sequence[slice]) -> Subspace:
    cols = []
    for part, sl in zip(parts, slices):
        for j in range(part.dim):
            col = np.zeros(n_total)
            col[sl] = part.basis[:, j]
            cols.append(col)
    return norms.subspace_from_basis(n_total, np.array(cols)) if cols \
        else Subspace.zero(n_total)


def compose_direct_sum_projections(space: norms.SumNorm,
                                   pairs: Sequence[tuple[ProjectionData, ProjectionData]],
                                   z0, samples: int = 10_000, seed: int = 0) -> tuple:
    """Assemble componentwise projection pairs into a pair on the direct sum.

    Each component projection must pass `verify_norm1_projection`, and their
    images of z0 must agree bit-for-bit, which makes the composed images
    identical arrays; the norm-1 property of the outer composition is then
    sampled, since the monotone combiner transfers componentwise contraction.
    """
    z0 = np.asarray(z0, dtype=float)
    slices = norms.component_slices(space)
    if len(pairs) != len(space.components):
        raise DimensionMismatchError("one projection pair per component required")
    image = np.zeros_like(z0)
    inner_parts, outer_parts = [], []
    for (p_i, q_i), comp, sl in zip(pairs, space.components, slices):
        if not (np.array_equal(p_i.transversal, z0[sl])
                and np.array_equal(q_i.transversal, z0[sl])):
            raise ValueError("component transversal must equal the z0 slice")
        if not np.array_equal(p_i.image, q_i.image):
            raise ValueError("component images of z0 must agree exactly")
        for pd in (p_i, q_i):
            verdict = verify_norm1_projection(comp, pd, trials=80, seed=seed)
            if not verdict.accepted:
                raise ValueError("component projection is not norm one")
        image[sl] = p_i.image
        inner_parts.append(p_i.subspace)
        outer_parts.append(q_i.subspace)
    n = norms.space_dim(space)
    z2_sum = _lift_subspace(inner_parts, n, slices)
    y_sum = _lift_subspace(outer_parts, n, slices)
    composed_p = ProjectionData(z2_sum, z0, image)
    composed_q = ProjectionData(y_sum, z0, image)

    rng = np.random.default_rng(seed)
    alphas = rng.normal(size=samples)
    ys = (y_sum.basis @ rng.normal(size=(y_sum.dim, samples))).T \
        if y_sum.dim else np.zeros((samples, n))
    w = alphas[:, None] * z0 + ys
    qw = alphas[:, None] * image + ys
    ratios = eval_norm_many(space, qw) / np.maximum(eval_norm_many(space, w), 1e-300)
    report = {
        "image_bitexact": np.array_equal(composed_p.apply(z0), composed_q.apply(z0)),
        "max_contraction_ratio": float(ratios.max(initial=0.0)),
        "samples": samples,
        "seed": seed,
        "ok": bool(ratios.max(initial=0.0) <= 1.0 + 1e-9),
    }
    return composed_p, composed_q, report


def esum_dominator(space: norms.SumNorm, y_components: Sequence[Subspace],
                   x, a_points) -> tuple[np.ndarray, dict]:
    """Assemble a dominator in a monotone sum from componentwise dominators,
    each an `ac_dominator` witness.

    Zero is adjoined to every component reference set, which pins the
    component norms of the dominator under those of x; the assembled
    domination in the sum norm is then verified directly.
    """
    x = np.asarray(x, dtype=float)
    a_points = np.atleast_2d(np.asarray(a_points, dtype=float))
    slices = norms.component_slices(space)
    if len(y_components) != len(space.components):
        raise DimensionMismatchError("one subspace per component required")
    y = np.zeros_like(x)
    comp_bounds = []
    for idx, (comp, sub, sl) in enumerate(zip(space.components, y_components,
                                              slices)):
        refs = np.vstack([a_points[:, sl], np.zeros((1, sl.stop - sl.start))])
        res = ac_dominator(comp, sub, refs, x[sl])
        if res.status != FEASIBLE:
            raise OptimizationError(
                f"component {idx} produced no dominator ({res.status})")
        y[sl] = res.witness
        comp_bounds.append((eval_norm(comp, res.witness), eval_norm(comp, x[sl])))
    lhs = eval_norm_many(space, y[None, :] - a_points)
    rhs = eval_norm_many(space, x[None, :] - a_points)
    report = {
        "domination_ok": bool((lhs <= rhs * (1 + 1e-9) + 1e-12).all()),
        "component_bounds": comp_bounds,
        "component_bound_ok": all(a <= b * (1 + 1e-9) + 1e-12
                                  for a, b in comp_bounds),
        "lhs": lhs,
        "rhs": rhs,
    }
    return y, report


@dataclass(frozen=True, eq=False)
class LiftResult:
    space: norms.SumNorm
    matrix: np.ndarray
    checks: dict
    central: CentralVerdict | None


def lift_projection_linf_sum(base_space, p_matrix, z1: Subspace, k: int,
                             trials: int = 200, seed: int = 0) -> LiftResult:
    """Lift a full norm-1 projection componentwise to the sup-normed sum of k
    copies of the base space, and re-run the central-subspace check on the
    lifted intersection subspace inside the lifted range.  Both norm-one
    checks sample 2000 vectors.

    The size-k sup-sum stands in for continuous functions on a k-point
    compact space with values in the base space.
    """
    p_matrix = np.asarray(p_matrix, dtype=float)
    n = norms.space_dim(base_space)
    rng = np.random.default_rng(seed)
    checks: dict = {}
    checks["idempotent"] = bool(np.abs(p_matrix @ p_matrix - p_matrix).max() <= 1e-9)
    xs = rng.normal(size=(2000, n))
    ratios = eval_norm_many(base_space, xs @ p_matrix.T) / \
        np.maximum(eval_norm_many(base_space, xs), 1e-300)
    checks["base_norm_le_1"] = bool(ratios.max() <= 1.0 + 1e-9)
    checks["z1_invariant"] = all(
        z1.contains(p_matrix @ z1.basis[:, j], tol=1e-7) for j in range(z1.dim))
    if not all(checks.values()):
        return LiftResult(None, None, checks, None)

    lifted_space = norms.make_direct_sum([base_space] * k, norms.max_combiner(k))
    lifted = np.kron(np.eye(k), p_matrix)
    checks["lift_idempotent_bitexact"] = np.array_equal(lifted @ lifted, lifted)
    xs_big = rng.normal(size=(2000, k * n))
    ratios = eval_norm_many(lifted_space, xs_big @ lifted.T) / \
        np.maximum(eval_norm_many(lifted_space, xs_big), 1e-300)
    checks["lift_norm_le_1"] = bool(ratios.max() <= 1.0 + 1e-9)

    y_base = norms.subspace_from_basis(n, _column_space(p_matrix).T) \
        if np.abs(p_matrix).max() > 0 else Subspace.zero(n)
    z2_base = intersect_subspaces(z1, y_base)
    slices = [slice(i * n, (i + 1) * n) for i in range(k)]
    lifted_y = _lift_subspace([y_base] * k, k * n, slices)
    lifted_z2 = _lift_subspace([z2_base] * k, k * n, slices)
    central = central_subspace_check(lifted_space, lifted_z2, trials, seed,
                                     within=lifted_y)
    checks["central_preserved"] = central.passed
    return LiftResult(lifted_space, lifted, checks, central)


def _column_space(mat: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(mat)
    rank = int((s > max(mat.shape) * np.finfo(float).eps * (s[0] if s.size else 0)).sum())
    return u[:, :rank].T if rank else np.zeros((0, mat.shape[0]))


# ---------------------------------------------------------------------------
# three-ball sampler

@dataclass(frozen=True, eq=False)
class ThreeBallVerdict:
    passed: bool
    witness_family: BallFamily | None
    enlarged_family: BallFamily | None
    result: IntersectionResult | None
    trials_run: int
    eps: float
    note: str


def _audit_distances(space, xs, z: Subspace, dists: np.ndarray) -> None:
    """Raise OptimizationError unless `dists` agree with the distances
    `dist_to_subspace` solves for the rows of `xs` within 1e-12 relative.
    A norm without an LP description took them from it already."""
    if not norms.is_lp_encodable(space):
        return
    for x, d in zip(xs, dists):
        exact = dist_to_subspace(space, x, z)[0]
        if abs(d - exact) > 1e-12 * max(1.0, exact):
            raise OptimizationError(
                f"annihilator distance {float(d)!r} disagrees with the LP distance {exact!r}")


def mideal_three_ball_check(space, z: Subspace, trials: int, eps: float = 1e-6,
                            seed: int = 0) -> ThreeBallVerdict:
    """Sampled three-ball test: every generated triple intersects jointly and
    each ball meets the subspace; the eps-enlarged triple must then meet the
    subspace too.

    Failures return the triple together with the infeasibility evidence for
    the enlarged system.  A pass is only the absence of counterexamples.
    The distances of the three centers to the subspace come from one
    `dist_to_subspace_many` call per trial; those of a failing triple are
    solved again as LPs, and a disagreement raises OptimizationError rather
    than report a counterexample.
    """
    n = norms.space_dim(space)
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        w = rng.normal(size=n) * 1.5
        centers = rng.normal(size=(3, n)) * 1.5
        joint = eval_norm_many(space, w[None, :] - centers)
        meet = dist_to_subspace_many(space, centers, z)
        tight = rng.random(size=3) < 0.5
        infl = 1.0 + rng.uniform(0.0, 0.1, size=3) * (~tight)
        radii = np.maximum(joint, meet) * infl
        family = BallFamily.from_arrays(centers, radii)
        enlarged = BallFamily.from_arrays(centers, radii + eps)
        res = balls_intersect(space, enlarged, z)
        if res.status != FEASIBLE:
            _audit_distances(space, centers, z, meet)
            return ThreeBallVerdict(False, family, enlarged, res, trial + 1, eps,
                                    "enlarged triple misses the subspace")
    return ThreeBallVerdict(True, None, None, None, trials, eps,
                            f"no counterexample found in {trials} trials")


# ---------------------------------------------------------------------------
# minimal-sum decompositions

@dataclass(frozen=True, eq=False)
class DecompositionResult:
    y: np.ndarray
    z: np.ndarray
    value: float
    ratio: float


def decompose_min_sum(space, x, y_sub: Subspace, z_sub: Subspace
                      ) -> DecompositionResult:
    """Minimize ||y|| + ||z|| over decompositions x = y + z with y in Y and
    z in Z.  Given one split x = y0 + z0 (least squares on the stacked
    bases), the others are (y0 + v, z0 - v) with v in Y ∩ Z, and by symmetry
    of the norm the minimum is the weighted-sum restricted center of -y0 and
    z0 within Y ∩ Z: one `solve_center` call, an LP for polyhedral norms."""
    x = np.asarray(x, dtype=float)
    n = norms.space_dim(space)
    if x.shape != (n,) or y_sub.ambient_dim != n or z_sub.ambient_dim != n:
        raise DimensionMismatchError(
            f"x of shape {x.shape}, Y in dim {y_sub.ambient_dim} and Z in dim "
            f"{z_sub.ambient_dim} do not all match the space dim {n}")
    if not norms.sum_subspaces(y_sub, z_sub).contains(x, tol=1e-7):
        raise ValueError("x does not lie in Y + Z")
    b_mat, c_mat = y_sub.basis, z_sub.basis
    w, *_ = np.linalg.lstsq(np.column_stack([b_mat, c_mat]), x, rcond=None)
    y0, z0 = b_mat @ w[:y_sub.dim], c_mat @ w[y_sub.dim:]
    resid = np.abs(y0 + z0 - x).max(initial=0.0)
    if resid > 1e-6 * max(1.0, np.abs(x).max(initial=0.0)):
        raise OptimizationError("decomposition does not reassemble x")
    res = solve_center(CenterProblem(space, intersect_subspaces(y_sub, z_sub),
                                     FiniteSet([-y0, z0]), WeightedSum([1.0, 1.0])))
    nx = eval_norm(space, x)
    ratio = res.rad / nx if nx > 1e-300 else 1.0
    return DecompositionResult(y0 + res.minimizer, z0 - res.minimizer, res.rad, ratio)


def gamma_estimate(space, y_sub: Subspace, z_sub: Subspace, samples: int,
                   seed: int) -> float:
    """Largest observed ||y|| + ||z|| over unit-norm x in Y + Z."""
    rng = np.random.default_rng(seed)
    worst = 1.0
    for _ in range(samples):
        x = y_sub.basis @ rng.normal(size=y_sub.dim) + \
            z_sub.basis @ rng.normal(size=z_sub.dim)
        nx = eval_norm(space, x)
        if nx < 1e-9:
            continue
        dec = decompose_min_sum(space, x / nx, y_sub, z_sub)
        worst = max(worst, dec.ratio)
    return worst

