"""Restricted centers of finite point sets under convex monotone coercive
scalarizations.

For a finite set F = {x_1, ..., x_N}, a scalarization f, and a feasible set V
(a subspace, a union of lines, or the whole space), the objective is

    r_f(v, F) = f(||v - x_1||, ..., ||v - x_N||),

its infimum over V is the restricted radius, and the minimizer set is the
center set.  Polyhedral instances reduce exactly to linear programs; the rest
run staged subgradient descent.  Delta-center probes, the modulus curve of
the delta-center collapse, and minimizing-sequence experiments live here too.

Weak-topology variants collapse to the norm topology in finite dimension;
every report records that collapse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from . import norms, optim
from .errors import DimensionMismatchError, OptimizationError
from .norms import Subspace, eval_norm, eval_norm_many

FEAS_TOL = 1e-9

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

def _positive_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty list")
    if not (np.isfinite(w).all() and (w > 0).all()):
        raise ValueError("weights must be finite and positive")
    return w


@dataclass(frozen=True, eq=False)
class WeightedMax:
    """f(t) = max_i w_i t_i, weights positive."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _positive_weights(self.weights))


@dataclass(frozen=True, eq=False)
class WeightedSum:
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _positive_weights(self.weights))


@dataclass(frozen=True, eq=False)
class PowerSum:
    """f(t) = sum_i w_i t_i^p with p >= 1."""

    p: float
    weights: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p >= 1):
            raise ValueError("power must be finite and >= 1")
        object.__setattr__(self, "weights", _positive_weights(self.weights))


@dataclass(frozen=True, eq=False)
class Composite:
    """f(t) = scale * inner(t) ** power, an outer convex increasing rescaling."""

    inner: "Scalarization"
    power: float
    scale: float

    def __post_init__(self):
        if not (np.isfinite(self.power) and np.isfinite(self.scale)
                and self.power >= 1 and self.scale > 0):
            raise ValueError("power must be finite and >= 1, scale finite and "
                             "positive")


Scalarization = Union[WeightedMax, WeightedSum, PowerSum, Composite]


def uniform_max(n: int) -> WeightedMax:
    return WeightedMax(np.ones(n))


def f_value(f: Scalarization, t: np.ndarray) -> float:
    t = np.asarray(t, dtype=float)
    if isinstance(f, WeightedMax):
        return float((f.weights * t).max())
    if isinstance(f, WeightedSum):
        return float(f.weights @ t)
    if isinstance(f, PowerSum):
        return float(f.weights @ t ** f.p)
    if isinstance(f, Composite):
        return f.scale * f_value(f.inner, t) ** f.power
    raise TypeError(f"not a scalarization: {type(f)!r}")


def f_value_many(f: Scalarization, ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    if isinstance(f, WeightedMax):
        return (ts * f.weights).max(axis=1)
    if isinstance(f, WeightedSum):
        return ts @ f.weights
    if isinstance(f, PowerSum):
        return ts ** f.p @ f.weights
    if isinstance(f, Composite):
        return f.scale * f_value_many(f.inner, ts) ** f.power
    raise TypeError(f"not a scalarization: {type(f)!r}")


def f_subgradient(f: Scalarization, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if isinstance(f, WeightedMax):
        j = int(np.argmax(f.weights * t))
        g = np.zeros_like(t)
        g[j] = f.weights[j]
        return g
    if isinstance(f, WeightedSum):
        return f.weights.copy()
    if isinstance(f, PowerSum):
        return f.p * f.weights * t ** (f.p - 1.0)
    if isinstance(f, Composite):
        inner_val = f_value(f.inner, t)
        return (f.scale * f.power * inner_val ** (f.power - 1.0)
                * f_subgradient(f.inner, t))
    raise TypeError(f"not a scalarization: {type(f)!r}")


def f_arity(f: Scalarization) -> int:
    if isinstance(f, Composite):
        return f_arity(f.inner)
    return f.weights.shape[0]


def f_lp_encodable(f: Scalarization) -> bool:
    if isinstance(f, (WeightedMax, WeightedSum)):
        return True
    if isinstance(f, PowerSum):
        return f.p == 1.0
    return False


def validate_fcmc(f: Scalarization, samples: int = 150, seed: int = 0) -> dict:
    """Sampled membership check: monotone, convex (midpoint), coercive.

    Sampling can refute but not prove membership; counts and seed are
    recorded so the check is reproducible.  The monotone and convex checks
    each draw one (samples, 2, n) block of uniforms and report the first
    failing sample.  An inequality fails when it is off by more than 1e-9
    relative to max(1, |f|), so rounding in large values is not a failure.
    """
    def exceeds(lhs, rhs):
        return lhs > rhs + 1e-9 * np.maximum(1.0, np.maximum(np.abs(lhs),
                                                             np.abs(rhs)))

    n = f_arity(f)
    rng = np.random.default_rng(seed)
    failures = []
    draws = rng.random((samples, 2, n))
    t1 = 5.0 * draws[:, 0]
    t2 = t1 + 3.0 * draws[:, 1]
    bad = np.flatnonzero(exceeds(f_value_many(f, t1), f_value_many(f, t2)))
    if bad.size:
        failures.append(("monotone", t1[bad[0]], t2[bad[0]]))
    draws = 5.0 * rng.random((samples, 2, n))
    t1, t2 = draws[:, 0], draws[:, 1]
    mid = f_value_many(f, 0.5 * (t1 + t2))
    bad = np.flatnonzero(
        exceeds(mid, 0.5 * (f_value_many(f, t1) + f_value_many(f, t2))))
    if bad.size:
        failures.append(("convex", t1[bad[0]], t2[bad[0]]))
    for _ in range(max(10, samples // 10)):
        u = rng.uniform(0, 1, size=n)
        u[int(rng.integers(n))] = 1.0
        base = f_value(f, u)
        if not (base > 0 and f_value(f, 1e6 * u) >= 100 * base):
            failures.append(("coercive", u))
            break
    return {"ok": not failures, "samples": samples, "seed": seed,
            "failures": failures}


# ---------------------------------------------------------------------------
# problems

@dataclass(frozen=True, eq=False)
class UnionOfLines:
    """Countable feasible set made of lines point + span{direction}."""

    points: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        if pts.shape != dirs.shape:
            raise DimensionMismatchError("points and directions must align")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "directions", dirs)

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
        if f_arity(self.f) != self.points.size:
            raise DimensionMismatchError("scalarization arity differs from |F|")


def eval_rf(space, v, fs: FiniteSet, f: Scalarization) -> float:
    """r_f(v, F): scalarized distance profile of v against the finite set."""
    v = np.asarray(v, dtype=float)
    t = eval_norm_many(space, v[None, :] - fs.points)
    return f_value(f, t)


def eval_rf_many(space, vs: np.ndarray, fs: FiniteSet, f: Scalarization) -> np.ndarray:
    """r_f at each row of `vs`, from one norm evaluation over all the
    (row, point) differences."""
    vs = np.asarray(vs, dtype=float)
    diffs = (vs[:, None, :] - fs.points[None, :, :]).reshape(-1, fs.dim)
    t = norms.plan(space).value_many(diffs).reshape(vs.shape[0], fs.size)
    return f_value_many(f, t)


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

    def distance_to(self, v, slack: float = FEAS_TOL) -> float:
        v = np.asarray(v, dtype=float)
        builder = optim.LpBuilder()
        basis = self._basis()
        alphas = builder.new_vars(basis.shape[1])
        s = builder.new_var()
        builder.add_objective({s: 1.0})
        _add_rf_level_rows(builder, self.space, self.points, self.f, alphas,
                           basis, self.rad + slack * max(1.0, abs(self.rad)))
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


def _add_rf_level_rows(builder, space, points: FiniteSet, f: Scalarization,
                       alphas, basis, level: float) -> None:
    """Rows forcing r_f(basis @ alpha, F) <= level."""
    tvars = builder.new_vars(points.size)
    for i in range(points.size):
        norms.add_norm_epigraph(builder, space, alphas, basis,
                                -points.points[i], tvars[i])
    if isinstance(f, WeightedMax):
        for tv, w in zip(tvars, f.weights):
            builder.add_ub({tv: float(w)}, level)
    elif isinstance(f, (WeightedSum, PowerSum)):
        builder.add_ub({tv: float(w) for tv, w in zip(tvars, f.weights)}, level)
    else:
        raise OptimizationError("scalarization has no LP level description")


def _lp_center(problem: CenterProblem, basis: np.ndarray) -> tuple[float, np.ndarray, optim.LpOutcome]:
    builder = optim.LpBuilder()
    alphas = builder.new_vars(basis.shape[1])
    tvars = builder.new_vars(problem.points.size)
    for i in range(problem.points.size):
        norms.add_norm_epigraph(builder, problem.space, alphas, basis,
                                -problem.points.points[i], tvars[i])
    f = problem.f
    if isinstance(f, WeightedMax):
        top = builder.new_var()
        builder.add_objective({top: 1.0})
        for tv, w in zip(tvars, f.weights):
            builder.add_ub({tv: float(w), top: -1.0}, 0.0)
    else:
        builder.add_objective({tv: float(w) for tv, w in zip(tvars, f.weights)})
    out = optim.lp_solve_lex(builder.build(), refine=alphas)
    if out.status != optim.OPTIMAL:
        raise OptimizationError(f"center LP ended with status {out.status}")
    alpha = out.x[:basis.shape[1]]
    return float(out.value), basis @ alpha, out


def _subgradient_center(problem: CenterProblem, basis: np.ndarray,
                        stages: int, iters_per_stage: int) -> tuple[float, np.ndarray, optim.SubgradientResult]:
    space, fs, f = problem.space, problem.points, problem.f
    compiled, points, basis_t = norms.plan(space), fs.points, basis.T
    # the scalarization is resolved once: r_f and its subgradient from the
    # norms and subgradients of the rows v - x_i (summed row by row, in order)
    if isinstance(f, WeightedMax):
        def combine(t, grads):
            j = (f.weights * t).argmax()
            return float(f.weights[j] * t[j]), f.weights[j] * grads[j]
    elif isinstance(f, WeightedSum):
        weights = f.weights[:, None]

        def combine(t, grads):
            return float(f.weights @ t), (weights * grads).sum(0)
    else:
        def combine(t, grads):
            return f_value(f, t), (f_subgradient(f, t)[:, None] * grads).sum(0)

    def oracle(alpha):
        val, g = combine(*compiled.value_and_subgrad_many(basis @ alpha - points))
        return val, basis_t @ g

    centroid = fs.points.mean(axis=0)
    start = basis.T @ centroid
    spread = np.linalg.norm(fs.points - centroid, axis=1).max(initial=0.0)
    scale = max(1.0, 2.0 * spread)
    res = optim.staged_subgradient(oracle, None, start, scale=scale,
                                   stages=stages, iters_per_stage=iters_per_stage)
    return res.value, basis @ res.point, res


def solve_center(problem: CenterProblem, method: str = "auto", seed: int = 0,
                 stages: int = 12, iters_per_stage: int = 700,
                 validation_samples: int = 120) -> CenterResult:
    """Compute the restricted radius and a minimizer.

    method "auto" picks the exact LP route whenever the norm and the
    scalarization admit one (ties among optimal vertices broken toward the
    lexicographically smallest minimizer), and staged subgradient descent
    otherwise.  Membership of f in the convex/monotone/coercive class is
    sampled, not proved; the result records the sample count and seed.
    """
    f_report = validate_fcmc(problem.f, samples=validation_samples, seed=seed)

    if isinstance(problem.feasible, UnionOfLines):
        best = None
        for p, d in zip(problem.feasible.points, problem.feasible.directions):
            sub = CenterProblem(problem.space, norms.subspace_from_basis(
                problem.points.dim, [d]), FiniteSet(problem.points.points - p),
                problem.f)
            res = solve_center(sub, method=method, seed=seed, stages=stages,
                               iters_per_stage=iters_per_stage,
                               validation_samples=10)
            if best is None or res.rad < best.rad - 1e-12:
                best = CenterResult(res.rad, p + res.minimizer, None,
                                    res.certificate, res.method + "+lines",
                                    f_report)
        return best

    basis = (np.eye(problem.points.dim) if problem.feasible is None
             else np.array(problem.feasible.basis))
    lp_ok = norms.is_lp_encodable(problem.space) and f_lp_encodable(problem.f)
    if method == "lp" and not lp_ok:
        raise OptimizationError("no exact LP formulation for this instance")
    use_lp = lp_ok if method == "auto" else (method == "lp")

    if use_lp:
        rad, minimizer, certificate = _lp_center(problem, basis)
        face = CentFace(problem.space, problem.feasible, problem.points,
                        problem.f, rad)
        result_method = "lp"
    else:
        rad, minimizer, certificate = _subgradient_center(
            problem, basis, stages, iters_per_stage)
        face = None
        result_method = "subgradient"

    check = eval_rf(problem.space, minimizer, problem.points, problem.f)
    if not (check <= rad + 1e-6 * max(1.0, abs(rad)) or
            abs(check - rad) <= 1e-6 * max(1.0, abs(rad))):
        raise OptimizationError("minimizer failed the radius audit")
    return CenterResult(rad, minimizer, face, certificate, result_method,
                        f_report)


# ---------------------------------------------------------------------------
# delta centers and the collapse modulus

@dataclass(frozen=True)
class ProbeConfig:
    n_rejection: int = 200
    n_directions: int = 32
    budget: int = 4000
    box_halfwidth: float | None = None
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
    except Exception:
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
    a box plus LP-extremal points in random directions.  The minimizer itself
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
        width = cfg.box_halfwidth if cfg.box_halfwidth is not None else \
            2.0 * max(1.0, float(np.abs(alpha_star).max(initial=0.0)), float(spread))
        samples_alpha.extend(_rejection_samples(problem, basis, level, rng,
                                                alpha_star, width, cfg))
        if norms.is_lp_encodable(problem.space) and f_lp_encodable(problem.f):
            for _ in range(cfg.n_directions):
                c = rng.normal(size=basis.shape[1])
                builder = optim.LpBuilder()
                alphas = builder.new_vars(basis.shape[1])
                builder.add_objective({a: -float(ci) for a, ci in zip(alphas, c)})
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

def fcmc_to_json(f: Scalarization) -> dict:
    if isinstance(f, WeightedMax):
        return {"kind": "weighted_max", "weights": f.weights.tolist()}
    if isinstance(f, WeightedSum):
        return {"kind": "weighted_sum", "weights": f.weights.tolist()}
    if isinstance(f, PowerSum):
        return {"kind": "power_sum", "p": f.p, "weights": f.weights.tolist()}
    if isinstance(f, Composite):
        return {"kind": "composite", "inner": fcmc_to_json(f.inner),
                "power": f.power, "scale": f.scale}
    raise TypeError(f"not a scalarization: {type(f)!r}")


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
            "f": fcmc_to_json(problem.f)}


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
