"""Restricted centers of finite point sets under convex monotone coercive
scalarizations.

For a finite set F = {x_1, ..., x_N}, a scalarization f, and a feasible set V
(a subspace, a union of lines, or the whole space), the objective is

    r_f(v, F) = f(||v - x_1||, ..., ||v - x_N||),

its infimum over V is the restricted radius, and the minimizer set is the
center set.  Polyhedral instances reduce exactly to linear programs; the rest
run staged subgradient descent.  Delta-center probes, the modulus curve of
the delta-center collapse, and minimizing-sequence experiments live here too.

Each scalarization (WeightedMax, WeightedSum, PowerSum, Composite) carries
its own arithmetic: `arity`; `value_many(ts)`, f at each row of ts;
`combine(t, grads)`, f(t) and sum_i s_i grads[i] for a subgradient s of f at
t; `lp_encodable`, and when it holds `lp_level(builder, tvars, level)` and
`lp_objective(builder, tvars)`, the LP rows of f(t) <= level and of min f(t);
and `to_json()`.  The solvers read nothing else of f but the weights of a
WeightedMax, whose sublevel vertices the delta-center probe enumerates.
Each class refuses parameters outside the convex, monotone, coercive class
when it is built, so `validate_fcmc` decides membership by type alone and
nothing samples f.

Weak-topology variants collapse to the norm topology in finite dimension;
every report records that collapse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from . import norms, optim
from .errors import DimensionMismatchError, OptimizationError
from .norms import Subspace, eval_norm, eval_norm_many
from .optim import FEAS_TOL

TOPOLOGY_NOTE = "norm topology (weak topology coincides in finite dimension)"


@dataclass(frozen=True, eq=False)
class FiniteSet:
    """Nonempty finite point set, one point per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.size == 0:
            raise ValueError("finite set must be a nonempty list of points")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        pts = np.array(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


# ---------------------------------------------------------------------------
# scalarizations

class _Weighted:
    """One positive weight w_i per point, and the LP rows of sum_i w_i t_i
    (WeightedMax writes its own)."""

    lp_encodable = True

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty list")
        if not (np.isfinite(w).all() and (w > 0).all()):
            raise ValueError("weights must be finite and positive")
        object.__setattr__(self, "weights", w)

    @property
    def arity(self) -> int:
        return self.weights.shape[0]

    def lp_level(self, builder, tvars, level: float) -> None:
        builder.add_ub(tvars, self.weights[None, :], [level])

    def lp_objective(self, builder, tvars) -> None:
        builder.set_objective(tvars, self.weights)


@dataclass(frozen=True, eq=False)
class WeightedMax(_Weighted):
    """f(t) = max_i w_i t_i, weights positive."""

    weights: np.ndarray

    def value_many(self, ts: np.ndarray) -> np.ndarray:
        return (ts * self.weights).max(axis=1)

    def combine(self, t: np.ndarray, grads: np.ndarray) -> tuple[float, np.ndarray]:
        j = (self.weights * t).argmax()
        return float(self.weights[j] * t[j]), self.weights[j] * grads[j]

    def lp_level(self, builder, tvars, level: float) -> None:
        builder.add_ub(tvars, np.diag(self.weights), np.full(self.arity, level))

    def lp_objective(self, builder, tvars) -> None:
        top = builder.new_var()
        builder.set_objective([top], [1.0])
        builder.add_ub([*tvars, top], np.column_stack(
            [np.diag(self.weights), np.full(self.arity, -1.0)]), np.zeros(self.arity))

    def to_json(self) -> dict:
        return {"kind": "weighted_max", "weights": self.weights.tolist()}


@dataclass(frozen=True, eq=False)
class WeightedSum(_Weighted):
    """f(t) = sum_i w_i t_i, weights positive."""

    weights: np.ndarray

    def value_many(self, ts: np.ndarray) -> np.ndarray:
        return ts @ self.weights

    def combine(self, t: np.ndarray, grads: np.ndarray) -> tuple[float, np.ndarray]:
        return float(self.weights @ t), (self.weights[:, None] * grads).sum(0)

    def to_json(self) -> dict:
        return {"kind": "weighted_sum", "weights": self.weights.tolist()}


@dataclass(frozen=True, eq=False)
class PowerSum(_Weighted):
    """f(t) = sum_i w_i t_i^p with p >= 1; LP rows only for p == 1."""

    p: float
    weights: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p >= 1):
            raise ValueError("power must be finite and >= 1")
        super().__post_init__()

    @property
    def lp_encodable(self) -> bool:
        return self.p == 1.0

    def value_many(self, ts: np.ndarray) -> np.ndarray:
        return ts ** self.p @ self.weights

    def combine(self, t: np.ndarray, grads: np.ndarray) -> tuple[float, np.ndarray]:
        s = self.p * self.weights * t ** (self.p - 1.0)
        return float(self.weights @ t ** self.p), (s[:, None] * grads).sum(0)

    def to_json(self) -> dict:
        return {"kind": "power_sum", "p": self.p, "weights": self.weights.tolist()}


@dataclass(frozen=True, eq=False)
class Composite:
    """f(t) = scale * inner(t) ** power, an outer convex increasing rescaling."""

    inner: "Scalarization"
    power: float
    scale: float
    lp_encodable = False

    def __post_init__(self):
        if not (np.isfinite(self.power) and np.isfinite(self.scale)
                and self.power >= 1 and self.scale > 0):
            raise ValueError("power must be finite and >= 1, scale finite and "
                             "positive")

    @property
    def arity(self) -> int:
        return self.inner.arity

    # a power that overflows gives inf or nan, which solve_center reports
    @np.errstate(over="ignore", invalid="ignore")
    def value_many(self, ts: np.ndarray) -> np.ndarray:
        return self.scale * self.inner.value_many(ts) ** self.power

    @np.errstate(over="ignore", invalid="ignore")
    def combine(self, t: np.ndarray, grads: np.ndarray) -> tuple[float, np.ndarray]:
        # the inner subgradient as a vector, scaled by the chain rule; powers
        # of an np.float64 overflow to inf where Python floats would raise
        val, s = self.inner.combine(t, np.eye(t.shape[0]))
        val = np.float64(val)
        slope = self.scale * self.power * val ** (self.power - 1.0)
        return (float(self.scale * val ** self.power),
                ((slope * s)[:, None] * grads).sum(0))

    def to_json(self) -> dict:
        return {"kind": "composite", "inner": self.inner.to_json(),
                "power": self.power, "scale": self.scale}


Scalarization = Union[WeightedMax, WeightedSum, PowerSum, Composite]


def uniform_max(n: int) -> WeightedMax:
    return WeightedMax(np.ones(n))


def validate_fcmc(f: Scalarization) -> dict:
    """Decide by type whether f is in the convex, monotone, coercive class.

    Each built-in scalarization refuses parameters outside the class when it
    is built, and a Composite of a member is a member, so f passes exactly
    when, under its Composite wrappers, it is a WeightedMax, WeightedSum or
    PowerSum.  Any other type, a subclass included, is refused by name.
    """
    inner = f
    while type(inner) is Composite:
        inner = inner.inner
    if type(inner) in (WeightedMax, WeightedSum, PowerSum):
        return {"ok": True, "failures": []}
    return {"ok": False,
            "failures": [("not a built-in scalarization", type(inner).__name__)]}


# ---------------------------------------------------------------------------
# problems

@dataclass(frozen=True, eq=False)
class UnionOfLines:
    """Countable feasible set of lines point + span{direction}; building each
    span once refuses a zero, vanishing or non-finite direction."""

    points: np.ndarray
    directions: np.ndarray
    spans: tuple = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        if pts.ndim != 2 or pts.shape != dirs.shape:
            raise DimensionMismatchError("points and directions must be aligned "
                                         "lists of vectors")
        if not np.isfinite(pts).all():
            raise ValueError("line points must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "spans", tuple(
            norms.subspace_from_basis(pts.shape[1], [d]) for d in dirs))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def contains(self, x, tol: float = FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        scale = max(1.0, float(np.abs(x).max(initial=0.0)))
        for p, d in zip(self.points, self.directions):
            t = float(d @ (x - p)) / float(d @ d)
            if np.abs(x - p - t * d).max(initial=0.0) <= tol * scale:
                return True
        return False


FeasibleSet = Union[Subspace, UnionOfLines, None]


@dataclass(frozen=True, eq=False)
class CenterProblem:
    space: object
    feasible: FeasibleSet
    points: FiniteSet
    f: Scalarization

    def __post_init__(self):
        n = norms.space_dim(self.space)
        if self.points.dim != n:
            raise DimensionMismatchError("points do not match the space dimension")
        if isinstance(self.feasible, Subspace) and self.feasible.ambient_dim != n:
            raise DimensionMismatchError("feasible subspace ambient dim mismatch")
        if isinstance(self.feasible, UnionOfLines) and self.feasible.dim != n:
            raise DimensionMismatchError("feasible line set dim mismatch")
        if self.f.arity != self.points.size:
            raise DimensionMismatchError("scalarization arity differs from |F|")


def eval_rf(space, v, fs: FiniteSet, f: Scalarization) -> float:
    """r_f(v, F): scalarized distance profile of v against the finite set."""
    v = np.asarray(v, dtype=float)
    t = eval_norm_many(space, v[None, :] - fs.points)
    return float(f.value_many(t[None])[0])


def eval_rf_many(space, vs: np.ndarray, fs: FiniteSet, f: Scalarization) -> np.ndarray:
    """r_f at each row of `vs`, from one norm evaluation over all the
    (row, point) differences."""
    vs = np.asarray(vs, dtype=float)
    diffs = (vs[:, None, :] - fs.points[None, :, :]).reshape(-1, fs.dim)
    t = space.value_many(diffs).reshape(vs.shape[0], fs.size)
    return f.value_many(t)


@dataclass(frozen=True, eq=False)
class CentFace:
    """LP description of the full center set: the rad-sublevel set of r_f
    inside V.  Distances to it are again LPs, so nonunique centers (common
    under max norms) are handled without collapsing to a single point."""

    space: object
    feasible: Subspace | None
    points: FiniteSet
    f: Scalarization
    rad: float

    def _basis(self) -> np.ndarray:
        if self.feasible is None:
            return np.eye(self.points.dim)
        return np.array(self.feasible.basis)

    def distance_to(self, v) -> float:
        """Distance from v to the face, its level relaxed by FEAS_TOL."""
        v = np.asarray(v, dtype=float)
        builder = optim.LpBuilder()
        basis = self._basis()
        alphas = builder.new_vars(basis.shape[1])
        s = builder.new_var()
        builder.set_objective([s], [1.0])
        _add_rf_level_rows(builder, self.space, self.points, self.f, alphas,
                           basis, self.rad + FEAS_TOL * max(1.0, abs(self.rad)))
        norms.add_norm_epigraph(builder, self.space, alphas, -basis, v, s)
        out = optim.lp_solve(builder.build())
        if out.status != optim.OPTIMAL:
            raise OptimizationError(f"distance-to-center LP: {out.status}")
        return float(out.value)


@dataclass(frozen=True, eq=False)
class CenterResult:
    rad: float
    minimizer: np.ndarray
    cent_face: CentFace | None
    certificate: object
    method: str
    f_validation: dict
    topology: str = TOPOLOGY_NOTE


def _distance_rows(builder, space, points: FiniteSet, alphas, basis) -> range:
    """Variables t_i with rows forcing ||basis @ alpha - x_i|| <= t_i."""
    tvars = builder.new_vars(points.size)
    for x, tv in zip(points.points, tvars):
        norms.add_norm_epigraph(builder, space, alphas, basis, -x, tv)
    return tvars


def _add_rf_level_rows(builder, space, points: FiniteSet, f: Scalarization,
                       alphas, basis, level: float) -> None:
    """Rows forcing r_f(basis @ alpha, F) <= level."""
    if not f.lp_encodable:
        raise OptimizationError("scalarization has no LP level description")
    f.lp_level(builder, _distance_rows(builder, space, points, alphas, basis), level)


def _lp_center(problem: CenterProblem, basis: np.ndarray) -> tuple[float, np.ndarray, optim.LpOutcome]:
    builder = optim.LpBuilder()
    alphas = builder.new_vars(basis.shape[1])
    problem.f.lp_objective(builder, _distance_rows(
        builder, problem.space, problem.points, alphas, basis))
    out = optim.lp_solve_lex(builder.build(), refine=alphas)
    if out.status != optim.OPTIMAL:
        raise OptimizationError(f"center LP ended with status {out.status}")
    alpha = out.x[:basis.shape[1]]
    return float(out.value), basis @ alpha, out


def _subgradient_center(problem: CenterProblem, basis: np.ndarray
                        ) -> tuple[float, np.ndarray, optim.SubgradientResult]:
    space, fs, f = problem.space, problem.points, problem.f
    points, basis_t = fs.points, basis.T

    def oracle(alpha):
        val, g = f.combine(*space.value_and_subgrad_many(basis @ alpha - points))
        return val, basis_t @ g

    centroid = fs.points.mean(axis=0)
    start = basis.T @ centroid
    spread = np.linalg.norm(fs.points - centroid, axis=1).max(initial=0.0)
    scale = max(1.0, 2.0 * spread)
    res = optim.staged_subgradient(oracle, start, scale=scale,
                                   stages=12, iters_per_stage=700)
    return res.value, basis @ res.point, res


def solve_center(problem: CenterProblem, method: str = "auto") -> CenterResult:
    """Compute the restricted radius and a minimizer.

    method "auto" picks the exact LP route whenever the norm and the
    scalarization admit one (ties among optimal vertices broken toward the
    lexicographically smallest minimizer), and staged subgradient descent
    (12 stages of at most 700 steps) otherwise.  The result records
    `validate_fcmc(f)`, the membership of f in the convex/monotone/coercive
    class decided by its type.  A radius or re-evaluated r_f that is not
    finite (a composite whose power overflows) raises OptimizationError.
    """
    f_report = validate_fcmc(problem.f)

    if isinstance(problem.feasible, UnionOfLines):
        best = None
        for p, span in zip(problem.feasible.points, problem.feasible.spans):
            sub = CenterProblem(problem.space, span,
                                FiniteSet(problem.points.points - p), problem.f)
            res = solve_center(sub, method=method)
            if best is None or res.rad < best.rad - 1e-12:
                best = CenterResult(res.rad, p + res.minimizer, None,
                                    res.certificate, res.method + "+lines",
                                    f_report)
        return best

    basis = (np.eye(problem.points.dim) if problem.feasible is None
             else np.array(problem.feasible.basis))
    lp_ok = norms.is_lp_encodable(problem.space) and problem.f.lp_encodable
    if method == "lp" and not lp_ok:
        raise OptimizationError("no exact LP formulation for this instance")
    use_lp = lp_ok if method == "auto" else (method == "lp")

    if use_lp:
        rad, minimizer, certificate = _lp_center(problem, basis)
        face = CentFace(problem.space, problem.feasible, problem.points,
                        problem.f, rad)
        result_method = "lp"
    else:
        rad, minimizer, certificate = _subgradient_center(problem, basis)
        face = None
        result_method = "subgradient"

    check = eval_rf(problem.space, minimizer, problem.points, problem.f)
    if not np.isfinite([rad, check]).all():
        raise OptimizationError(f"objective r_f is not finite: {rad} from the "
                                f"solver, {check} re-evaluated")
    if not abs(check - rad) <= 1e-6 * max(1.0, abs(rad)):
        raise OptimizationError("minimizer failed the radius audit")
    return CenterResult(rad, minimizer, face, certificate, result_method,
                        f_report)


# ---------------------------------------------------------------------------
# delta centers and the collapse modulus

@dataclass(frozen=True)
class ProbeConfig:
    n_rejection: int = 200
    budget: int = 4000
    seed: int = 0


@dataclass(frozen=True, eq=False)
class DeltaCenterProbe:
    delta: float
    eps: float
    samples: np.ndarray
    excess: float
    within: bool
    mode: str
    topology: str = TOPOLOGY_NOTE


def _sublevel_vertices(problem: CenterProblem, basis: np.ndarray,
                       level: float) -> np.ndarray | None:
    """Exact vertex set of {alpha : r_f <= level} when the sublevel set has a
    direct polyhedral description in the feasible coordinates."""
    if not isinstance(problem.f, WeightedMax) or basis.shape[1] > 4:
        return None
    try:
        gens = norms.explicit_generators(problem.space, cap=3000)
    except norms.InvalidNormError:
        return None
    rows = []
    rhs = []
    for i in range(problem.points.size):
        w = problem.f.weights[i]
        for g in gens:
            rows.append(w * (g @ basis))
            rhs.append(level + w * float(g @ problem.points.points[i]))
    try:
        return optim.enumerate_vertices(np.array(rows), np.array(rhs), cap=400_000)
    except ValueError:
        return None


SAMPLE_BLOCK, SAMPLE_CELLS = 1024, 65536


def _rejection_samples(problem: CenterProblem, basis: np.ndarray, level: float,
                       rng: np.random.Generator, alpha_star: np.ndarray,
                       width: float, cfg: ProbeConfig) -> np.ndarray:
    """The first `cfg.n_rejection` of at most `cfg.budget` uniform draws
    around `alpha_star` whose r_f is at most `level`.

    Draws are made and tested in blocks of at most SAMPLE_BLOCK draws and
    SAMPLE_CELLS (draw, point, coordinate) differences.  The uniforms are
    the ones, in the order, that one draw per iteration would give;
    afterwards the generator is rewound and exactly the consumed draws are
    drawn again, so it ends where that loop would have left it.
    """
    d = basis.shape[1]
    rows = max(1, min(SAMPLE_BLOCK,
                      SAMPLE_CELLS // (problem.points.size * problem.points.dim)))
    state = rng.bit_generator.state
    kept: list[np.ndarray] = []
    n_kept = draws = 0
    while n_kept < cfg.n_rejection and draws < cfg.budget:
        block = alpha_star + rng.uniform(-width, width,
                                         size=(min(rows, cfg.budget - draws), d))
        hits = np.flatnonzero(eval_rf_many(problem.space, block @ basis.T,
                                           problem.points, problem.f) <= level)
        hits = hits[:cfg.n_rejection - n_kept]
        kept.append(block[hits])
        n_kept += hits.size
        draws += block.shape[0] if n_kept < cfg.n_rejection else int(hits[-1]) + 1
    rng.bit_generator.state = state
    rng.uniform(-width, width, size=(draws, d))
    return np.concatenate(kept) if kept else np.zeros((0, d))


def delta_center_probe(problem: CenterProblem, delta: float, eps: float,
                       cfg: ProbeConfig = ProbeConfig(),
                       result: CenterResult | None = None) -> DeltaCenterProbe:
    """Sample the delta-center set and measure how far it sticks out of the
    center set (`eps` is the probe radius of the neighborhood being tested).

    Exact mode enumerates the sublevel vertices (the extreme points carry the
    maximum of the convex distance function); otherwise rejection samples over
    a box plus LP-extremal points in 32 random directions.  The minimizer itself
    always qualifies, so the sampler cannot starve.
    """
    if isinstance(problem.feasible, UnionOfLines):
        raise ValueError("probe requires a convex feasible set")
    if result is None:
        result = solve_center(problem)
    basis = (np.eye(problem.points.dim) if problem.feasible is None
             else np.array(problem.feasible.basis))
    level = result.rad + delta
    samples_alpha: list[np.ndarray] = []

    verts = _sublevel_vertices(problem, basis, level)
    mode = "vertex-exact" if verts is not None else "sampled"
    if verts is not None:
        samples_alpha.extend(verts)
    else:
        rng = np.random.default_rng(cfg.seed)
        alpha_star = basis.T @ result.minimizer
        spread = np.abs(basis.T @ problem.points.points.T).max(initial=1.0)
        width = 2.0 * max(1.0, float(np.abs(alpha_star).max(initial=0.0)),
                          float(spread))
        samples_alpha.extend(_rejection_samples(problem, basis, level, rng,
                                                alpha_star, width, cfg))
        if norms.is_lp_encodable(problem.space) and problem.f.lp_encodable:
            for _ in range(32):
                c = rng.normal(size=basis.shape[1])
                builder = optim.LpBuilder()
                alphas = builder.new_vars(basis.shape[1])
                builder.set_objective(alphas, -c)
                _add_rf_level_rows(builder, problem.space, problem.points,
                                   problem.f, alphas, basis, level)
                out = optim.lp_solve(builder.build())
                if out.status == optim.OPTIMAL:
                    samples_alpha.append(out.x[:basis.shape[1]])

    if not samples_alpha:
        samples_alpha.append(basis.T @ result.minimizer)

    samples = np.array([basis @ a for a in samples_alpha])
    vals = eval_rf_many(problem.space, samples, problem.points, problem.f)
    tol = 1e-7 * max(1.0, level)
    samples = samples[vals <= level + tol]

    if result.cent_face is not None:
        dists = np.array([result.cent_face.distance_to(v) for v in samples])
    else:
        dists = eval_norm_many(problem.space, samples - result.minimizer)
    excess = float(dists.max(initial=0.0))
    return DeltaCenterProbe(delta, eps, samples, excess, excess <= eps, mode)


def p1_modulus(problem: CenterProblem, deltas: Iterable[float],
               cfg: ProbeConfig = ProbeConfig(),
               result: CenterResult | None = None) -> list[tuple[float, float, int]]:
    """Modulus curve delta -> excess; shares one sampler seed across deltas so
    sampled curves inherit the nesting of the delta-center sets."""
    if result is None:
        result = solve_center(problem)
    curve = []
    for delta in deltas:
        probe = delta_center_probe(problem, float(delta), eps=np.inf, cfg=cfg,
                                   result=result)
        curve.append((float(delta), probe.excess, int(probe.samples.shape[0])))
    return curve


# ---------------------------------------------------------------------------
# minimizing sequences

@dataclass(frozen=True, eq=False)
class SacpVerdict:
    minimizing: bool
    values: np.ndarray
    rad: float
    clusters: list
    min_pairwise: float
    verdict: str
    topology: str = TOPOLOGY_NOTE


def sacp_experiment(problem: CenterProblem, sequence: Iterable[np.ndarray],
                    horizon: int, cluster_tol: float,
                    result: CenterResult | None = None,
                    value_tol: float = 1e-6) -> SacpVerdict:
    """Check a feasible sequence for the minimizing property and for norm
    clusters within the horizon.

    Clustering is greedy: each element joins the first earlier representative
    within cluster_tol.  A cluster needs at least two members; otherwise the
    verdict is none-within-horizon and the minimal pairwise distance is the
    witness.
    """
    elements = [np.asarray(v, dtype=float)
                for v in itertools.islice(iter(sequence), horizon)]
    if not elements:
        raise ValueError("empty sequence")
    feas = problem.feasible
    for i, v in enumerate(elements):
        inside = True if feas is None else feas.contains(v)
        if not inside:
            raise ValueError(f"sequence element {i} lies outside the feasible set")
    if result is None:
        result = solve_center(problem)
    values = eval_rf_many(problem.space, np.array(elements), problem.points,
                          problem.f)
    minimizing = abs(values[-1] - result.rad) <= value_tol * max(1.0, result.rad)

    reps: list[int] = []
    groups: list[list[int]] = []
    for i, v in enumerate(elements):
        placed = False
        for gi, r in enumerate(reps):
            if eval_norm(problem.space, v - elements[r]) <= cluster_tol:
                groups[gi].append(i)
                placed = True
                break
        if not placed:
            reps.append(i)
            groups.append([i])
    clusters = [{"representative": elements[r], "indices": g}
                for r, g in zip(reps, groups) if len(g) >= 2]

    n = len(elements)
    min_pairwise = np.inf
    for i in range(n - 1):
        d = eval_norm_many(problem.space,
                           np.array(elements[i + 1:]) - elements[i]).min()
        min_pairwise = min(min_pairwise, float(d))
    verdict = "clusters found" if clusters else "no cluster within horizon"
    return SacpVerdict(minimizing, values, result.rad, clusters,
                       min_pairwise, verdict)


# ---------------------------------------------------------------------------
# JSON wire format

def fcmc_from_json(data: dict, n_points: int) -> Scalarization:
    kind = data["kind"]
    if kind == "max":
        return uniform_max(n_points)
    if kind == "weighted_max":
        return WeightedMax(np.asarray(data["weights"], dtype=float))
    if kind == "weighted_sum":
        return WeightedSum(np.asarray(data["weights"], dtype=float))
    if kind == "power_sum":
        return PowerSum(float(data["p"]), np.asarray(data["weights"], dtype=float))
    if kind == "composite":
        return Composite(fcmc_from_json(data["inner"], n_points),
                         float(data["power"]), float(data["scale"]))
    raise ValueError(f"unknown scalarization kind {kind!r}")


def problem_to_json(problem: CenterProblem) -> dict:
    if isinstance(problem.feasible, UnionOfLines):
        feas = {"lines": {"points": problem.feasible.points.tolist(),
                          "directions": problem.feasible.directions.tolist()}}
    elif isinstance(problem.feasible, Subspace):
        feas = norms.subspace_to_json(problem.feasible)
    else:
        feas = None
    return {"schema": 1,
            "space": norms.norm_to_json(problem.space),
            "subspace": feas,
            "points": problem.points.points.tolist(),
            "f": problem.f.to_json()}


def problem_from_json(data: dict) -> CenterProblem:
    space = norms.norm_from_json(data["space"])
    pts = FiniteSet(np.asarray(data["points"], dtype=float))
    feas_data = data.get("subspace")
    if feas_data is None:
        feasible: FeasibleSet = None
    elif "lines" in feas_data:
        feasible = UnionOfLines(np.asarray(feas_data["lines"]["points"], dtype=float),
                                np.asarray(feas_data["lines"]["directions"], dtype=float))
    else:
        feasible = norms.subspace_from_json(feas_data)
    f = fcmc_from_json(data["f"], pts.size)
    return CenterProblem(space, feasible, pts, f)
