"""Ball-intersection feasibility and subspace property checkers.

Every subspace property check returns one `SubspaceVerdict`, and every
refutation it makes is a family of balls with centers in the subspace that
miss it, which `balls_intersect` can query again.  Under a polyhedral norm
that refutation carries a Farkas certificate; under any other it is only
"unresolved".  Positive verdicts from randomized checkers are always "no
counterexample found in N trials", never proofs.

Random ball families are generated witness-first (pick the witness, derive
the radii), since independently random radii almost never intersect.
Each trial also names a point of the subspace, the Euclidean projection
of its witness.  A trial whose balls all hold that point (no tolerance) is
settled as feasible, and no LP or barrier search is made for it.  When
that projection P has norm one,
||P w - c|| = ||P (w - c)|| <= ||w - c|| for c in the subspace, so on such
positive cases of the paper (coordinate subspaces of l-inf(n), every
subspace of l2) no trial of a central check needs a solve.  A family that misses the
subspace holds no such point, so every refutation is still a solve's.

Every ball-intersection LP is built by `_ball_lp`, over the subspace's
coordinates and the norm's own auxiliaries only: each ball's radius is
folded into its epigraph rows, whose coefficients on the ball's bound t_i
are all <= 0, so t_i = r_i is no loss and no t column or t_i <= r_i row
is left.  A query and every checker trial take one path, `_intersect`:
the LP of the family as it is, with no padding, and one fresh
`optim.lp_solve` of it.

Under a polyhedral norm the checkers draw their trials ahead,
min(remaining, _DRAW_AHEAD) at a time, with the same random calls in the
same order as one at a time; the radii, the distances to the subspace and
the points of a chunk are one array call each, and which trials their
points hold is one `np.maximum.reduceat`.  The trials that their points
do not hold are intersected one at a time, in seed order, each when its
checker reaches it, so a check that fails solves nothing after its failing
trial.  Under any other norm each trial is drawn when its turn comes,
since there a three-ball draw's distances are barrier solves.
The verdict is decided by the first trial, in seed order, that does not
intersect, so `trials_run`, the counterexample and the note are those of a
trial-by-trial search.  A check that fails early has drawn the rest of its
chunk for nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import norms, optim
from .centers import (CenterProblem, FiniteSet, WeightedMax, WeightedSum,
                      solve_center)
from .errors import DimensionMismatchError, OptimizationError
from .norms import (
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
    """The balls B(centers[i], radii[i]), held as two read-only arrays."""

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        centers = np.atleast_2d(np.array(self.centers, dtype=float))
        radii = np.array(self.radii, dtype=float).ravel()
        if centers.ndim != 2 or centers.shape[0] != radii.shape[0]:
            raise ValueError("a family needs one center row per radius")
        if not radii.size:
            raise ValueError("ball family must be nonempty")
        if not (np.isfinite(centers).all() and np.isfinite(radii).all()):
            raise ValueError("ball centers and radii must be finite")
        if not (radii >= 0).all():
            raise ValueError("ball radius must be nonnegative")
        centers.setflags(write=False)
        radii.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)

    @property
    def size(self) -> int:
        return self.radii.shape[0]


def family_to_json(family: BallFamily) -> dict:
    return {"centers": family.centers.tolist(), "radii": family.radii.tolist()}


def family_from_json(data: dict) -> BallFamily:
    return BallFamily(data["centers"], data["radii"])


@dataclass(frozen=True, eq=False)
class IntersectionResult:
    """Outcome of a ball-intersection query, with replayable evidence.

    `lp` and `outcome` hold the feasibility program and its certificate for
    polyhedral norms.  For other norms `lp` is None and `outcome` is the
    `CenterResult` of the ratio center whose minimizer is the witness;
    non-polyhedral infeasibility is only ever reported as "unresolved"
    (nothing found below tolerance), never as certified."""

    status: str
    witness: np.ndarray | None
    lp: optim.LinearProgram | None
    outcome: object

    @property
    def certified(self) -> bool:
        """Infeasible with Farkas multipliers that `optim.verify_farkas`
        accepts: a re-check that runs on each read."""
        return (self.status == INFEASIBLE and
                optim.verify_farkas(self.lp, self.outcome.farkas_ub))


def balls_intersect(space, family: BallFamily, within: Subspace | None = None
                    ) -> IntersectionResult:
    """Decide whether the balls share a point of `within` (whole space when
    None): by one feasibility LP for polyhedral norms, else by the center
    of max_i ||y - c_i|| / (r_i + slack) over `within`, which is FEASIBLE
    when every ball holds it within the audit's slack."""
    if family.centers.shape[1] != norms.space_dim(space):
        raise DimensionMismatchError("family does not match the space dimension")
    _check_ambient(space, within)
    return _intersect(space, within, family.centers, family.radii)


def _check_ambient(space, *subs: Subspace | None) -> None:
    """Raise DimensionMismatchError unless every subspace given (None is
    the whole space) lies in a space of the norm's dimension."""
    n = norms.space_dim(space)
    if any(sub is not None and sub.ambient_dim != n for sub in subs):
        raise DimensionMismatchError("subspace ambient dim mismatch")


def _intersect(space, within: Subspace | None, centers: np.ndarray,
               radii: np.ndarray) -> IntersectionResult:
    """`balls_intersect` of the balls (centers[i], radii[i]), a row of n
    coordinates per radius, in `within`, whose shapes the caller has
    checked: the one path of a query and of a checker's trial.  Under a
    polyhedral norm that is `_ball_lp` of the family and one
    `optim.lp_solve`."""
    _check_finite(centers, radii)
    if norms.is_lp_encodable(space):
        basis = np.eye(centers.shape[1]) if within is None else within.basis
        lp = _ball_lp(space, basis, centers, radii)
        out = optim.lp_solve(lp)
        witness = None
        if out.status == optim.OPTIMAL:
            witness = basis @ out.x[:basis.shape[1]]
            gaps = eval_norm_many(space, witness[None, :] - centers) - radii
            _audit_gap(gaps.max(initial=0.0), radii)
        return _lp_result(lp, out, witness)

    # the slack also keeps the weights of zero and tiny radii finite
    slack = FEAS_TOL * max(1.0, float(radii.max()))
    res = solve_center(CenterProblem(space, within, FiniteSet(centers),
                                     WeightedMax(1.0 / (radii + slack))))
    witness = res.minimizer
    gaps = eval_norm_many(space, witness[None, :] - centers) - radii
    if gaps.max(initial=0.0) <= slack:
        return IntersectionResult(FEASIBLE, witness, None, res)
    return IntersectionResult(UNRESOLVED, witness, None, res)


def _ball_lp(space, basis: np.ndarray, centers: np.ndarray, radii: np.ndarray
             ) -> optim.LinearProgram:
    """The feasibility LP of the balls over the span of `basis`.

    The epigraph rows of ||basis @ alpha - c|| <= t are built once, with t
    a column; every ball has those rows, over alpha and its own copy of the
    norm's auxiliaries.  Each row has a coefficient <= 0 on t, so the
    loosest choice t_i = r_i is no loss: ball i's part of b is the
    right-hand side of its rows for the offset -c_i, from the norm's
    `epigraph_rhs`, minus r_i times the t column, and no t column or
    t_i <= r_i row is left.  The unknowns are alpha, then each ball's
    auxiliaries in turn."""
    builder = optim.LpBuilder()
    alphas = builder.new_vars(basis.shape[1])
    norms.add_norm_epigraph(builder, space, alphas, basis, np.zeros(len(basis)),
                            builder.new_var())
    one = builder.build().a_ub
    d, k, m = basis.shape[1], len(radii), len(one)
    aux = one[:, d + 1:]
    a = np.zeros((k, m, d + k * aux.shape[1]))
    a[:, :, :d] = one[:, :d]
    for i in range(k):
        a[i, :, d + i * aux.shape[1]:d + (i + 1) * aux.shape[1]] = aux
    # C order, as the epigraph's offsets: BLAS sums a strided one otherwise
    rhs = space.epigraph_rhs(np.negative(centers, order="C"))
    b = (rhs - radii[:, None] * one[:, d]).reshape(-1)
    return optim.LinearProgram(np.zeros(a.shape[2]), a.reshape(k * m, -1), b)


def _check_finite(centers: np.ndarray, radii: np.ndarray) -> None:
    if not (np.isfinite(centers).all() and np.isfinite(radii).all()):
        raise ValueError("ball centers and radii must be finite")


def _audit_gap(gap: float, radii: np.ndarray) -> None:
    """The ball audit of an LP witness: no ball misses it by more than 1e-8
    relative to the largest radius."""
    if gap > 1e-8 * max(1.0, float(radii.max(initial=1.0))):
        raise OptimizationError("witness failed the ball audit")


def _lp_result(lp, out, witness) -> IntersectionResult:
    """The result of a ball LP's outcome, with `witness` if it is optimal."""
    if out.status == optim.OPTIMAL:
        return IntersectionResult(FEASIBLE, witness, lp, out)
    if out.status == optim.INFEASIBLE:
        return IntersectionResult(INFEASIBLE, None, lp, out)
    raise OptimizationError(f"feasibility LP ended with {out.status}")


# Trials drawn ahead of their solves under a polyhedral norm, at most this
# many at a time.
_DRAW_AHEAD = 64


def _solved_ahead(space, within: Subspace | None, trials: int,
                  draw: Callable[[int], tuple]):
    """Yield (trial number from 1, its balls' rows, the result of
    intersecting them in `within`) for each of `trials` trials that its
    point does not hold, in order.

    `draw(count)` draws `count` trials at once, with the random calls of one
    at a time in their order: (centers, radii, starts, points, *extra),
    the rows of all their balls, trial i's from starts[i], each trial's
    point of the subspace, and more rows a ball.  A trial whose balls all
    hold its point, gap <= 0 by one `eval_norm_many` call and one
    `np.maximum.reduceat` a chunk, is feasible, and its caller, which acts
    only on a trial that is not, never sees it.  Each of the others is
    intersected alone by `_intersect` when the caller asks for it, so a
    caller that stops at a trial solves nothing after it; it is yielded
    as the tuple of its rows of centers, radii and each extra.  Under a
    polyhedral norm draws are made min(remaining, _DRAW_AHEAD) at a time,
    so a caller that stops at a trial has drawn the rest of its chunk for
    nothing.  Under any other norm each trial is drawn when its turn
    comes."""
    chunk = _DRAW_AHEAD if norms.is_lp_encodable(space) else 1
    done = 0
    while done < trials:
        count = min(chunk, trials - done)
        centers, radii, starts, points, *extra = draw(count)
        sizes = np.diff(starts, append=len(radii))
        gaps = eval_norm_many(space, np.repeat(points, sizes, axis=0) - centers) - radii
        for i in np.flatnonzero(~(np.maximum.reduceat(gaps, starts) <= 0)).tolist():
            row = tuple(a[starts[i]:starts[i] + sizes[i]]
                        for a in (centers, radii, *extra))
            yield done + i + 1, row, _intersect(space, within, *row[:2])
        done += count


def _project_rows(sub: Subspace, xs: np.ndarray) -> np.ndarray:
    """`sub.project_euclid` of each row of `xs`: stacked matrix-vector
    products, which round as its one-row products do, where the matrix
    product xs @ basis (BLAS gemm) would not."""
    return np.matmul(sub.basis, np.matmul(sub.basis.T, xs[:, :, None]))[:, :, 0]


# ---------------------------------------------------------------------------
# subspace verdicts

@dataclass(frozen=True, eq=False)
class SubspaceVerdict:
    """The verdict of a subspace property check.

    `passed` is None when a probe runs out.  `decided` names what backs it:
    "exact" (a refuting family that the solve's Farkas audit certified, an
    exact projection check, or a dominator witness), "sampled" (no
    counterexample in `trials_run` trials, or a sampled projection check),
    or "unresolved" (a refuting family under a norm that is not polyhedral,
    which the barrier finds disjoint but no certificate backs).  A
    refutation holds `family`, balls with centers in the subspace that miss
    it, and `result`, what their intersection query saw; `witness` is a
    point that backs a pass."""

    passed: bool | None
    decided: str
    note: str
    trials_run: int
    family: BallFamily | None = None
    result: IntersectionResult | None = None
    witness: np.ndarray | None = None


def _refuted(family: BallFamily, res: IntersectionResult, trials_run: int,
             note: str) -> SubspaceVerdict:
    decided = "exact" if res.status == INFEASIBLE else "unresolved"
    return SubspaceVerdict(False, decided, note, trials_run, family, res)


# ---------------------------------------------------------------------------
# central subspaces

# the most balls of a central family
_CENTRAL_BALLS = 4


def central_subspace_check(space, sub: Subspace, trials: int, seed: int,
                           within: Subspace | None = None,
                           inject: Sequence[BallFamily] = ()) -> SubspaceVerdict:
    """Randomized search for a family of balls with centers in `sub` that
    intersects in `within` (default: the whole space) but not in `sub`.

    Families of 2-4 balls are generated witness-first: the witness is drawn
    from `within`, centers from `sub`, and each radius is the witness
    distance inflated by a factor in [1, 1.2], so feasibility in `within`
    holds by construction.  Injected families are tested first, each by
    `balls_intersect`.  A trial is `FEASIBLE` when every ball holds the
    Euclidean projection of its witness onto `sub` (as every ball does
    when that projection has norm one: on coordinate subspaces of
    l-inf(n) and on every subspace of l2), and otherwise when its own LP,
    or its barrier ball search under a norm that is not polyhedral, finds
    a point.  Each trial that its point does not hold is intersected
    alone, as `balls_intersect` intersects a family, in seed order, and
    none after the first that misses `sub` (see the module docstring).  A
    `BallFamily` is built only for a counterexample.  A `sub` or `within`
    of another ambient dimension raises DimensionMismatchError.
    """
    _check_ambient(space, sub, within)
    rng = np.random.default_rng(seed)
    for fam in inject:
        res = balls_intersect(space, fam, sub)
        if res.status != FEASIBLE:
            return _refuted(fam, res, 0,
                            "injected family fails to intersect in the subspace")
    draw = _central_draw(space, sub, within, rng)
    for trial, (centers, radii), res in _solved_ahead(space, sub, trials, draw):
        if res.status != FEASIBLE:
            note = ("counterexample with Farkas certificate" if res.status == INFEASIBLE
                    else "candidate counterexample (semi-decided norm)")
            return _refuted(BallFamily(centers, radii), res, trial, note)
    return SubspaceVerdict(True, "sampled", f"no counterexample found in {trials} trials",
                           trials)


def _central_draw(space, sub: Subspace, within: Subspace | None, rng):
    """The `_solved_ahead` draw of `central_subspace_check`: per trial, k
    in 2.._CENTRAL_BALLS, the witness w from `within`, k centers from `sub`
    and k inflation factors, with one trial's random calls after another's;
    then, over the whole chunk, one array call each for the witnesses,
    the centers, the radii and the points, the projections of the
    witnesses onto `sub`.  The witnesses are stacked matrix-vector
    products and the centers one matrix product, which round as one
    trial's products do."""
    w_basis = np.eye(norms.space_dim(space)) if within is None else np.array(within.basis)

    def draw(count):
        ks, ws, normals, infl = [], [], [], []
        for _ in range(count):
            ks.append(int(rng.integers(2, _CENTRAL_BALLS + 1)))
            ws.append(rng.normal(size=w_basis.shape[1]))
            normals.append(rng.normal(size=(sub.dim, ks[-1])))
            infl.append(rng.uniform(0.0, 0.2, size=ks[-1]))
        ws = np.matmul(w_basis, np.array(ws)[:, :, None])[:, :, 0] * 1.5
        centers = (sub.basis @ np.concatenate(normals, axis=1) * 1.5).T
        radii = eval_norm_many(space, np.repeat(ws, ks, axis=0) - centers) * \
            (1.0 + np.concatenate(infl))
        starts = np.cumsum(ks) - ks
        return centers, radii, starts, _project_rows(sub, ws)
    return draw


# ---------------------------------------------------------------------------
# dominators

def ac_dominator(space, sub: Subspace, a_points, x) -> SubspaceVerdict:
    """Find y in the subspace with ||y - a|| <= ||x - a|| for every a in the
    finite set: the balls B(a, ||x - a||), which meet at x, must meet in the
    subspace.  A pass has the dominator as its witness; a refutation holds
    those balls."""
    a_points = np.atleast_2d(np.asarray(a_points, dtype=float))
    x = np.asarray(x, dtype=float)
    for a in a_points:
        if not sub.contains(a, tol=1e-7):
            raise ValueError("reference points must lie in the subspace")
    caps = eval_norm_many(space, x[None, :] - a_points)
    if not np.isfinite(caps).all():
        raise OptimizationError("dominator radii overflow")
    family = BallFamily(a_points, caps)
    res = balls_intersect(space, family, sub)
    if res.status == FEASIBLE:
        return SubspaceVerdict(True, "exact", "dominator found", 0,
                               witness=res.witness)
    return _refuted(family, res, 0, "the balls B(a, ||x - a||) miss the subspace")


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
    span{transversal, Y}, the sublevel set ||S u|| <= 1 of S = [x, B]
    (`norms.sublevel_vertices`: polyhedral norms of at most 20,000
    generators, span dimension <= 4, at most 2,000,000 row subsets);
    otherwise `trials` seeded samples plus local ascent on the violation
    gap, labelled "sampled-fallback" when the span is too large or the norm
    is polyhedral (also when the enumeration finds no vertex), and
    "sampled" when it is not.  Rejections carry the violating y.
    """
    x, p, sub = pd.transversal, pd.image, pd.subspace
    verts = norms.sublevel_vertices(space, np.column_stack([x, sub.basis]),
                                    np.zeros((1, x.size)), np.ones(1), 1.0,
                                    20_000, 2_000_000)
    # the unit ball has a vertex: an enumeration that finds none checks nothing
    if verts is not None and len(verts):
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
    label = ("sampled-fallback" if sub.dim + 1 > 4 or norms.is_lp_encodable(space)
             else "sampled")
    if best <= 1e-9 * scale:
        return ProjectionVerdict(True, best, None, label)
    return ProjectionVerdict(False, best, best_y, label)


def almost_constrained_probe(space, sub: Subspace, x, seed: int = 0,
                             inject: Sequence[np.ndarray] = ()) -> SubspaceVerdict:
    """Search for a norm-1 projection image for span{x, Y} -> Y via dominators
    over growing finite nets in Y: 8 points at first, doubled in each of at
    most 7 rounds; `trials_run` counts the rounds.

    Falsification is sound: a finite net with no dominator refutes the
    projection's existence outright, by the balls of `ac_dominator`.
    Acceptance is net-limited: a candidate image that passes
    `verify_norm1_projection` is the witness of a pass, decided as that
    check ran; otherwise the check's violating y enters the net as the
    reference point -y and the search goes on.  When the budget runs out
    `passed` is None, and the note names the mode of the last check.
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
        dom = ac_dominator(space, sub, np.array(net), x)
        if not dom.passed:
            return replace(dom, trials_run=round_no + 1,
                           note=f"a net of {len(net)} points has no dominator")
        verdict = verify_norm1_projection(space, ProjectionData(sub, x, dom.witness),
                                          seed=seed + round_no)
        if verdict.accepted:
            exact = verdict.mode == "exact"
            return SubspaceVerdict(
                True, "exact" if exact else "sampled",
                f"the image passed {'an' if exact else 'a'} {verdict.mode} "
                "norm-one projection check", round_no + 1, witness=dom.witness)
        if verdict.witness is not None:
            net.append(-verdict.witness)
        size *= 2
    return SubspaceVerdict(None, "sampled", "no image survived 7 rounds; the last "
                           f"{verdict.mode} projection check rejected it", 7)


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
    for center in family.centers:
        if not z2.contains(center, tol=1e-7):
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
    return norms.subspace_from_basis(n_total, np.array(cols))


# the seeded points of the sum at which a composition's contraction is sampled
_COMPOSITION_SAMPLES = 10_000


def compose_direct_sum_projections(space: norms.SumNorm,
                                   pairs: Sequence[tuple[ProjectionData, ProjectionData]],
                                   z0, seed: int = 0) -> tuple:
    """Assemble componentwise projection pairs into a pair on the direct sum.

    Each component projection must pass `verify_norm1_projection`, and their
    images of z0 must agree bit-for-bit, which makes the composed images
    identical arrays; the norm-1 property of the outer composition is then
    sampled at _COMPOSITION_SAMPLES seeded points, since the monotone
    combiner transfers componentwise contraction.
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
    alphas = rng.normal(size=_COMPOSITION_SAMPLES)
    ys = (y_sum.basis @ rng.normal(size=(y_sum.dim, _COMPOSITION_SAMPLES))).T
    w = alphas[:, None] * z0 + ys
    qw = alphas[:, None] * image + ys
    ratios = eval_norm_many(space, qw) / np.maximum(eval_norm_many(space, w), 1e-300)
    report = {
        "image_bitexact": np.array_equal(composed_p.apply(z0), composed_q.apply(z0)),
        "max_contraction_ratio": float(ratios.max(initial=0.0)),
        "samples": _COMPOSITION_SAMPLES,
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
        dom = ac_dominator(comp, sub, refs, x[sl])
        if not dom.passed:
            raise OptimizationError(
                f"component {idx} produced no dominator ({dom.result.status})")
        y[sl] = dom.witness
        comp_bounds.append((eval_norm(comp, dom.witness), eval_norm(comp, x[sl])))
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
    central: SubspaceVerdict | None


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

    y_base = norms.subspace_from_basis(n, _column_space(p_matrix))
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
                            seed: int = 0) -> SubspaceVerdict:
    """Sampled three-ball test: every generated triple intersects jointly and
    each ball meets the subspace; the eps-enlarged triple must then meet the
    subspace too.

    A failure holds the enlarged triple and what its intersection query
    saw.  A pass is only the absence of counterexamples.  A trial is
    `FEASIBLE` when every enlarged ball holds the projection of the joint
    point onto `z` (as it does on every coordinate subspace of l-inf(n)),
    and otherwise when its LP, or its barrier ball search under a
    norm that is not polyhedral, finds a point.
    The distances of the centers to the subspace come from one
    `dist_to_subspace_many` call per chunk drawn (see `_three_ball_draw`);
    those of a failing triple are solved again as LPs, and a disagreement
    raises OptimizationError rather than report a counterexample.  Each
    trial that its point does not hold is intersected alone, as
    `balls_intersect` intersects a family, in seed order, and none after
    the first that misses `z` (see the module docstring).  The family of
    the verdict is built only for a failing trial.  A `z` of another
    ambient dimension raises DimensionMismatchError.
    """
    _check_ambient(space, z)
    draw = _three_ball_draw(space, z, eps, np.random.default_rng(seed))
    for trial, (centers, enlarged, meet), res in _solved_ahead(space, z, trials, draw):
        if res.status != FEASIBLE:
            _audit_distances(space, centers, z, meet)
            return _refuted(BallFamily(centers, enlarged), res, trial,
                            "enlarged triple misses the subspace")
    return SubspaceVerdict(True, "sampled", f"no counterexample found in {trials} trials",
                           trials)


def _three_ball_draw(space, z: Subspace, eps: float, rng):
    """The `_solved_ahead` draw of `mideal_three_ball_check`: per trial, the
    joint point w, three centers, which of them are tight and the
    inflation factors, with one trial's random calls after another's;
    then, over the whole chunk, the distances to w (one `eval_norm_many`
    call) and to `z` (one `dist_to_subspace_many` call), the enlarged
    radii, and the points, the projections of the w onto `z`.  The
    distances to `z` are the extra rows a ball."""
    n = norms.space_dim(space)

    def draw(count):
        ws, centers, coins, infl = [], [], [], []
        for _ in range(count):
            ws.append(rng.normal(size=n))
            centers.append(rng.normal(size=(3, n)))
            coins.append(rng.random(size=3))
            infl.append(rng.uniform(0.0, 0.1, size=3))
        ws, centers = np.array(ws) * 1.5, np.concatenate(centers) * 1.5
        tight = np.concatenate(coins) < 0.5
        joint = eval_norm_many(space, np.repeat(ws, 3, axis=0) - centers)
        meet = dist_to_subspace_many(space, centers, z)
        radii = np.maximum(joint, meet) * (1.0 + np.concatenate(infl) * (~tight)) + eps
        return centers, radii, np.arange(0, 3 * count, 3), _project_rows(z, ws), meet
    return draw


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

