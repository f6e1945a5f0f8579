"""Self-contained optimization kernel.

Two pieces live here: a dense two-phase simplex solver that always returns a
certificate (dual multipliers at optimality, Farkas multipliers on
infeasibility, an improving ray when unbounded), and a projected subgradient
method for nonsmooth convex objectives.

Problem sizes in this project are tiny (tens of variables), so clarity and
determinism win over speed.  Pivoting follows Bland's rule with
smallest-basic-index tie-breaking in the ratio test, which makes every solve
reproducible bit for bit and rules out cycling.  Variables are free reals;
the standard-form rewrite (variable splitting, slacks, artificials) is
internal and certificates are mapped back to the caller's constraint system.

A lexicographic tie-break among optimal points runs on the final tableau of
the same solve: each stage bars every column whose reduced cost is positive,
which pins the current optimal face exactly, then re-prices the cost row to
one coordinate and pivots on from the current basis.  Phase 1 runs once, and
each stage costs a few pivots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

FEAS_TOL = 1e-9

_PIVOT_TOL = 1e-10
_RCOST_TOL = 1e-10
_RATIO_TIE = 1e-12

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
BREAKDOWN = "breakdown"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min objective @ u  s.t.  a_ub @ u <= b_ub  and  a_eq @ u == b_eq, u free."""

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]


def make_lp(objective, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LinearProgram:
    c = np.asarray(objective, dtype=float).ravel()
    n = c.shape[0]

    def _rows(a, b):
        if a is None or len(a) == 0:
            return np.zeros((0, n)), np.zeros(0)
        a = np.asarray(a, dtype=float).reshape(-1, n)
        b = np.asarray(b, dtype=float).ravel()
        if a.shape[0] != b.shape[0]:
            raise ValueError("constraint matrix and rhs row counts differ")
        return a, b

    a_ub, b_ub = _rows(a_ub, b_ub)
    a_eq, b_eq = _rows(a_eq, b_eq)
    if not (np.isfinite(c).all() and np.isfinite(a_ub).all() and np.isfinite(b_ub).all()
            and np.isfinite(a_eq).all() and np.isfinite(b_eq).all()):
        raise ValueError("linear program contains non-finite entries")
    return LinearProgram(c, a_ub, b_ub, a_eq, b_eq)


class LpBuilder:
    """Incremental construction of a LinearProgram with sparse row entry."""

    def __init__(self):
        self._n = 0
        self._obj: dict[int, float] = {}
        self._ub: list[tuple[dict[int, float], float]] = []
        self._eq: list[tuple[dict[int, float], float]] = []

    def new_var(self) -> int:
        self._n += 1
        return self._n - 1

    def new_vars(self, k: int) -> list[int]:
        return [self.new_var() for _ in range(k)]

    @property
    def n_vars(self) -> int:
        return self._n

    def add_objective(self, terms: dict[int, float]) -> None:
        for j, v in terms.items():
            self._obj[j] = self._obj.get(j, 0.0) + v

    def add_ub(self, terms: dict[int, float], rhs: float) -> None:
        self._ub.append((dict(terms), float(rhs)))

    def add_eq(self, terms: dict[int, float], rhs: float) -> None:
        self._eq.append((dict(terms), float(rhs)))

    def build(self) -> LinearProgram:
        def _dense(rows):
            a = np.zeros((len(rows), self._n))
            b = np.zeros(len(rows))
            for i, (terms, rhs) in enumerate(rows):
                for j, v in terms.items():
                    a[i, j] = v
                b[i] = rhs
            return a, b

        c = np.zeros(self._n)
        for j, v in self._obj.items():
            c[j] = v
        a_ub, b_ub = _dense(self._ub)
        a_eq, b_eq = _dense(self._eq)
        return make_lp(c, a_ub, b_ub, a_eq, b_eq)


@dataclass(frozen=True, eq=False)
class LpOutcome:
    """Solver verdict plus the evidence backing it.

    status "optimal": x, value, dual_ub (>= 0) and dual_eq satisfy
        objective + a_ub.T @ dual_ub + a_eq.T @ dual_eq = 0.
    status "infeasible": farkas_ub (>= 0) and farkas_eq combine the
        constraints into 0 <= negative, proving emptiness.
    status "unbounded": ray is an improving feasible direction.
    status "breakdown": numerical failure; never reported as infeasible.
    """

    status: str
    x: np.ndarray | None = None
    value: float | None = None
    dual_ub: np.ndarray | None = None
    dual_eq: np.ndarray | None = None
    farkas_ub: np.ndarray | None = None
    farkas_eq: np.ndarray | None = None
    ray: np.ndarray | None = None
    iterations: int = 0
    message: str = ""


def _pivot(t: np.ndarray, row: int, col: int) -> None:
    t[row] = t[row] / t[row, col]
    column = t[:, col].copy()
    column[row] = 0.0
    t -= np.outer(column, t[row])
    t[:, col] = 0.0
    t[row, col] = 1.0


def _run_simplex(t, basis, allowed, max_iter):
    """Bland-rule tableau iteration; returns (status, iterations, entering)."""
    m = basis.shape[0]
    ncols = t.shape[1] - 1
    for it in range(1, max_iter + 1):
        costs = t[-1, :ncols]
        candidates = np.flatnonzero(allowed & (costs < -_RCOST_TOL))
        if candidates.size == 0:
            return OPTIMAL, it - 1, -1
        j = int(candidates[0])
        col = t[:m, j]
        pos = col > _PIVOT_TOL
        if not bool(pos.any()):
            return UNBOUNDED, it - 1, j
        ratios = np.full(m, np.inf)
        ratios[pos] = t[:m, -1][pos] / col[pos]
        rmin = float(ratios.min())
        ties = np.flatnonzero(ratios <= rmin + _RATIO_TIE)
        leave = int(ties[np.argmin(basis[ties])])
        _pivot(t, leave, j)
        basis[leave] = j
        if not np.isfinite(t).all():
            return BREAKDOWN, it, j
    return BREAKDOWN, max_iter, -1


def _price(t, basis, costs) -> None:
    """Load `costs` into the objective row and price out the basic columns."""
    t[-1, :-1] = costs
    t[-1, -1] = 0.0
    for i in range(basis.shape[0]):
        cb = costs[basis[i]]
        if cb != 0.0:
            t[-1] -= cb * t[i]


def _basic_point(t, basis, n: int) -> np.ndarray:
    """The caller's variables u = u+ - u- at the current basic solution."""
    x_std = np.zeros(t.shape[1] - 1)
    x_std[basis] = t[:basis.shape[0], -1]
    return x_std[:n] - x_std[n:2 * n]


def _stopped(idx: int, status: str) -> str:
    return f"lexicographic refinement stopped at coordinate {idx}: {status}"


def _lex_refine(lp, t, basis, allowed, refine, x, value, max_iter):
    """Lexicographic refinement on an optimal phase-2 tableau.

    Each stage bars the columns whose reduced cost exceeds _RCOST_TOL, so
    the remaining columns span the current optimal face, then re-prices the
    objective row to e_idx (+1 on u+_idx, -1 on u-_idx) and runs Bland's
    rule from the current basis.  A stage's point is kept only when it is
    feasible and its objective is within FEAS_TOL * max(1, |value|) of the
    phase-2 value; otherwise the last kept point is returned with a message
    naming the stage.  Returns (x, pivots, message).
    """
    n = lp.n_vars
    ncols = t.shape[1] - 1
    pivots = 0
    for idx in refine:
        allowed &= t[-1, :ncols] <= _RCOST_TOL
        costs = np.zeros(ncols)
        costs[idx] = 1.0
        costs[n + idx] = -1.0
        _price(t, basis, costs)
        status, it, _ = _run_simplex(t, basis, allowed, max_iter)
        pivots += it
        if status != OPTIMAL:
            return x, pivots, _stopped(idx, status)
        cand = _basic_point(t, basis, n)
        drift = abs(float(lp.objective @ cand) - value)
        if not (_primal_feasible(lp, cand)
                and drift <= FEAS_TOL * max(1.0, abs(value))):
            return x, pivots, _stopped(idx, "failed the optimality audit")
        x = cand
    return x, pivots, "lexicographic refinement"


def lp_solve(lp: LinearProgram, max_iter: int | None = None,
             refine: Sequence[int] | None = None) -> LpOutcome:
    """Two-phase dense simplex with certificates.

    Deterministic: identical inputs yield bit-identical outcomes.  Numerical
    failure surfaces as status "breakdown" and is never folded into
    "infeasible"; an infeasible verdict always carries verified Farkas
    multipliers for the original system.

    With `refine`, an optimal x is moved to the lexicographically smallest
    point of the optimal face over those coordinates, on the final tableau
    (see `lp_solve_lex`); value and duals stay those of phase 2, and
    `iterations` counts the refinement pivots too.
    """
    n = lp.n_vars
    mu_count = lp.a_ub.shape[0]
    me_count = lp.a_eq.shape[0]
    m_total = mu_count + me_count

    if m_total == 0:
        if float(np.abs(lp.objective).max(initial=0.0)) <= _RCOST_TOL:
            # Every refined coordinate is free on the whole space.
            message = "" if not refine else _stopped(refine[0], UNBOUNDED)
            return LpOutcome(OPTIMAL, x=np.zeros(n), value=0.0,
                             dual_ub=np.zeros(0), dual_eq=np.zeros(0),
                             message=message)
        return LpOutcome(UNBOUNDED, ray=-lp.objective.copy(),
                         message="no constraints")

    a_all = np.vstack([lp.a_ub, lp.a_eq])
    b_all = np.concatenate([lp.b_ub, lp.b_eq])

    # Row scaling keeps pivots well conditioned; certificates are unscaled on
    # the way out.
    row_scale = np.maximum(np.abs(a_all).max(axis=1), np.abs(b_all))
    row_scale = np.where(row_scale > _PIVOT_TOL, row_scale, 1.0)
    a_all = a_all / row_scale[:, None]
    b_all = b_all / row_scale

    sigma = np.where(b_all < 0, -1.0, 1.0)
    a_std = a_all * sigma[:, None]
    b_std = b_all * sigma

    n_struct = 2 * n + mu_count
    slack_block = np.zeros((m_total, mu_count))
    slack_block[:mu_count, :] = np.diag(sigma[:mu_count])

    t = np.zeros((m_total + 1, n_struct + m_total + 1))
    t[:m_total, :n] = a_std
    t[:m_total, n:2 * n] = -a_std
    t[:m_total, 2 * n:n_struct] = slack_block
    t[:m_total, n_struct:n_struct + m_total] = np.eye(m_total)
    t[:m_total, -1] = b_std

    basis = np.arange(n_struct, n_struct + m_total)
    allowed = np.zeros(n_struct + m_total, dtype=bool)
    allowed[:n_struct] = True

    if max_iter is None:
        max_iter = 1000 + 60 * (n_struct + m_total)

    # Phase 1: drive artificials to zero.
    t[-1, n_struct:n_struct + m_total] = 1.0
    t[-1] -= t[:m_total].sum(axis=0)
    status, it1, _ = _run_simplex(t, basis, allowed, max_iter)
    if status != OPTIMAL:
        return LpOutcome(BREAKDOWN, iterations=it1,
                         message=f"phase 1 ended with {status}")

    phase1_obj = -t[-1, -1]
    scale = max(1.0, float(np.abs(b_std).max(initial=0.0)))
    if phase1_obj > FEAS_TOL * scale:
        r_art = t[-1, n_struct:n_struct + m_total]
        y = 1.0 - r_art
        w = sigma * y
        lam = -w[:mu_count] / row_scale[:mu_count]
        mu = -w[mu_count:] / row_scale[mu_count:]
        lam = np.where(lam > 0, lam, 0.0)
        norm = max(1.0, float(np.abs(lam).max(initial=0.0)),
                   float(np.abs(mu).max(initial=0.0)))
        lam, mu = lam / norm, mu / norm
        out = LpOutcome(INFEASIBLE, farkas_ub=lam, farkas_eq=mu, iterations=it1)
        if verify_farkas(lp, lam, mu):
            return out
        return LpOutcome(BREAKDOWN, iterations=it1,
                         message="phase 1 positive but certificate failed")

    # Pivot leftover artificials out of the basis where possible; rows whose
    # structural part vanished are redundant and stay inert at level zero.
    for i in range(m_total):
        if basis[i] >= n_struct:
            row = t[i, :n_struct]
            nz = np.flatnonzero(np.abs(row) > 1e-8)
            if nz.size:
                _pivot(t, i, int(nz[0]))
                basis[i] = int(nz[0])

    # Phase 2 with the real costs.
    costs = np.zeros(n_struct + m_total)
    costs[:n] = lp.objective
    costs[n:2 * n] = -lp.objective
    _price(t, basis, costs)

    status, it2, enter = _run_simplex(t, basis, allowed, max_iter)
    iterations = it1 + it2

    if status == UNBOUNDED:
        ray_std = np.zeros(n_struct + m_total)
        ray_std[enter] = 1.0
        for i in range(m_total):
            ray_std[basis[i]] = -t[i, enter]
        ray = ray_std[:n] - ray_std[n:2 * n]
        return LpOutcome(UNBOUNDED, ray=ray, iterations=iterations)
    if status != OPTIMAL:
        return LpOutcome(BREAKDOWN, iterations=iterations,
                         message="phase 2 did not terminate")

    x = _basic_point(t, basis, n)

    if not _primal_feasible(lp, x):
        return LpOutcome(BREAKDOWN, x=x, iterations=iterations,
                         message="optimal claim failed feasibility audit")

    r_art = t[-1, n_struct:n_struct + m_total]
    y = -r_art
    w = sigma * y
    lam = -w[:mu_count] / row_scale[:mu_count]
    mu = -w[mu_count:] / row_scale[mu_count:]
    lam = np.where(lam > 0, lam, 0.0)
    value = float(lp.objective @ x)
    message = ""
    if refine is not None:
        x, pivots, message = _lex_refine(lp, t, basis, allowed, refine, x,
                                         value, max_iter)
        iterations += pivots
    return LpOutcome(OPTIMAL, x=x, value=value, dual_ub=lam, dual_eq=mu,
                     iterations=iterations, message=message)


def _primal_feasible(lp: LinearProgram, x: np.ndarray, tol: float = FEAS_TOL) -> bool:
    if lp.a_ub.shape[0]:
        slack = lp.a_ub @ x - lp.b_ub
        if (slack > tol * np.maximum(1.0, np.abs(lp.b_ub))).any():
            return False
    if lp.a_eq.shape[0]:
        resid = np.abs(lp.a_eq @ x - lp.b_eq)
        if (resid > tol * np.maximum(1.0, np.abs(lp.b_eq))).any():
            return False
    return True


def verify_farkas(lp: LinearProgram, lam: np.ndarray, mu: np.ndarray,
                  tol: float = FEAS_TOL) -> bool:
    """Check that (lam, mu) prove infeasibility: lam >= 0, the combination of
    constraint rows vanishes, and the combined right-hand side is < -tol."""
    if lam.shape[0] and float(lam.min(initial=0.0)) < -tol:
        return False
    combo = np.zeros(lp.n_vars)
    rhs = 0.0
    if lam.shape[0]:
        combo += lam @ lp.a_ub
        rhs += float(lam @ lp.b_ub)
    if mu.shape[0]:
        combo += mu @ lp.a_eq
        rhs += float(mu @ lp.b_eq)
    coeff_scale = max(1.0,
                      float(np.abs(lp.a_ub).max(initial=0.0)),
                      float(np.abs(lp.a_eq).max(initial=0.0)))
    if float(np.abs(combo).max(initial=0.0)) > 100 * tol * coeff_scale:
        return False
    return rhs < -tol


def verify_optimal(lp: LinearProgram, out: LpOutcome, tol: float = 1e-7) -> bool:
    """Primal feasibility, dual sign, stationarity, and zero duality gap."""
    if out.status != OPTIMAL or out.x is None:
        return False
    if not _primal_feasible(lp, out.x, FEAS_TOL):
        return False
    lam = out.dual_ub if out.dual_ub is not None else np.zeros(0)
    mu = out.dual_eq if out.dual_eq is not None else np.zeros(0)
    if lam.shape[0] and float(lam.min(initial=0.0)) < -1e-9:
        return False
    grad = lp.objective.copy()
    if lam.shape[0]:
        grad += lam @ lp.a_ub
    if mu.shape[0]:
        grad += mu @ lp.a_eq
    scale = max(1.0, float(np.abs(lp.objective).max(initial=0.0)),
                float(np.abs(lam).max(initial=0.0)),
                float(np.abs(mu).max(initial=0.0)))
    if float(np.abs(grad).max(initial=0.0)) > tol * scale:
        return False
    dual_val = -(float(lam @ lp.b_ub) if lam.shape[0] else 0.0) \
        - (float(mu @ lp.b_eq) if mu.shape[0] else 0.0)
    return abs(dual_val - out.value) <= tol * max(1.0, abs(out.value))


def lp_solve_lex(lp: LinearProgram,
                 refine: Sequence[int] | None = None) -> LpOutcome:
    """Solve, then pin the lexicographically smallest optimizer over the
    coordinates in `refine` (all variables by default).

    One `lp_solve` call does both: after phase 2 each coordinate in turn is
    minimized over the optimal face by re-pricing the final tableau, with
    the columns of positive reduced cost barred so the face cannot move.
    The point is exact up to the reduced-cost tolerance; value and duals are
    those of the first optimum.  A stage that ends other than optimal, or
    whose point fails the feasibility and objective audit, stops the
    refinement: the last audited point is returned and `message` names the
    coordinate and the status.
    """
    return lp_solve(lp, refine=range(lp.n_vars) if refine is None else refine)


def enumerate_vertices(a_ub, b_ub, a_eq=None, b_eq=None, tol: float = FEAS_TOL,
                       cap: int = 2_000_000) -> np.ndarray:
    """All vertices of {u : a_ub u <= b_ub, a_eq u = b_eq} by basis enumeration.

    Intended for small dimensions (<= 4 in this project); raises ValueError
    when the subset count would exceed `cap`.
    """
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    d = a_ub.shape[1]
    if a_eq is None or len(a_eq) == 0:
        a_eq = np.zeros((0, d))
        b_eq = np.zeros(0)
    else:
        a_eq = np.asarray(a_eq, dtype=float).reshape(-1, d)
        b_eq = np.asarray(b_eq, dtype=float).ravel()
    m_eq = a_eq.shape[0]
    if m_eq and np.linalg.matrix_rank(a_eq) < m_eq:
        raise ValueError("equality rows must be independent")
    need = d - m_eq
    if need < 0:
        raise ValueError("more equalities than dimensions")
    m = a_ub.shape[0]
    if math.comb(m, need) > cap:
        raise ValueError("combination count exceeds cap")
    scale = np.maximum(1.0, np.abs(b_ub))
    found: dict[tuple, np.ndarray] = {}
    for subset in itertools.combinations(range(m), need):
        mat = np.vstack([a_eq, a_ub[list(subset)]])
        rhs = np.concatenate([b_eq, b_ub[list(subset)]])
        try:
            v = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(v).all():
            continue
        if np.abs(mat @ v - rhs).max(initial=0.0) > 1e-7:
            continue
        if m and (a_ub @ v - b_ub > 100 * tol * scale).any():
            continue
        key = tuple(np.round(v, 7).tolist())
        if key not in found:
            found[key] = v
    if not found:
        return np.zeros((0, d))
    return np.array([found[k] for k in sorted(found)])


@dataclass(frozen=True)
class SubgradientConfig:
    """Diminishing-step schedule step_a / (k + step_b); standard guarantee for
    convex nonsmooth objectives.  All defaults overridable."""

    max_iter: int = 1500
    step_a: float = 1.0
    step_b: float = 10.0
    tol: float = 1e-9
    patience: int = 250


@dataclass(frozen=True, eq=False)
class SubgradientResult:
    value: float
    point: np.ndarray
    trace: np.ndarray
    converged: bool
    iterations: int


def subgradient_minimize(oracle: Callable[[np.ndarray], tuple[float, np.ndarray]],
                         project: Callable[[np.ndarray], np.ndarray] | None,
                         start: np.ndarray,
                         cfg: SubgradientConfig = SubgradientConfig()) -> SubgradientResult:
    """Projected subgradient descent for a convex objective oracle.

    The schedule step_a / (k + step_b) is the step length along the
    normalized subgradient, which keeps iterates bounded even when gradients
    grow superlinearly far from the minimum.  Returns the best point seen;
    the trace holds the value at every iterate, so its running minimum is
    nonincreasing by construction.  Hitting the iteration cap while still
    improving is flagged as unconverged.
    """
    x = np.asarray(start, dtype=float).copy()
    if project is not None:
        x = project(x)
    value, grad = oracle(x)
    best_v = value
    best_x = x.copy()
    trace = [value]
    last_improve = 0
    k = 0
    for k in range(1, cfg.max_iter + 1):
        gn = float(np.linalg.norm(grad))
        if gn <= 1e-300:
            return SubgradientResult(best_v, best_x, np.array(trace), True, k)
        step = cfg.step_a / (k + cfg.step_b)
        x = x - (step / gn) * grad
        if project is not None:
            x = project(x)
        value, grad = oracle(x)
        trace.append(value)
        if value < best_v:
            if value < best_v - cfg.tol * max(1.0, abs(best_v)):
                last_improve = k
            best_v = value
            best_x = x.copy()
        if k - last_improve > cfg.patience:
            return SubgradientResult(best_v, best_x, np.array(trace), True, k)
    return SubgradientResult(best_v, best_x, np.array(trace), False, k)


def _polyak_polish(oracle, project, start, best_v, iters, delta0, trace):
    """Deflected subgradient steps with a Polyak-style length against a
    moving target slightly below the best value seen.

    The deflection (Camerini-Fratta-Maffioli: fold the previous direction in
    whenever it opposes the new subgradient) steers along narrow
    piecewise-linear valleys where raw subgradients zigzag; the shrinking
    target offset then recovers fast convergence to the floor."""
    x = np.asarray(start, dtype=float).copy()
    best_x = x.copy()
    delta = delta0
    direction = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, iters + 1):
            value, grad = oracle(x)
            if not np.isfinite(value):
                x = best_x.copy()
                direction = None
                continue
            trace.append(value)
            if value < best_v:
                best_v = value
                best_x = x.copy()
            if direction is not None and float(direction @ grad) < 0:
                beta = -1.5 * float(direction @ grad) / float(direction @ direction)
                direction = grad + beta * direction
            else:
                direction = grad
            dd = float(direction @ direction)
            if not np.isfinite(dd) or dd < 1e-150:
                break
            step = (value - (best_v - delta)) / dd
            nxt = x - step * direction
            if not np.isfinite(nxt).all():
                x = best_x.copy()
                direction = None
                continue
            x = nxt
            if project is not None:
                x = project(x)
            if k % 200 == 0:
                delta = max(delta / 4.0, 1e-13)
    return best_v, best_x


def staged_subgradient(oracle: Callable[[np.ndarray], tuple[float, np.ndarray]],
                       project: Callable[[np.ndarray], np.ndarray] | None,
                       start: np.ndarray,
                       scale: float = 1.0,
                       stages: int = 10,
                       shrink: float = 4.0,
                       iters_per_stage: int = 1200,
                       polish_iters: int = 2500,
                       cfg: SubgradientConfig = SubgradientConfig()) -> SubgradientResult:
    """Repeated subgradient runs with a geometrically shrinking step scale,
    followed by a Polyak-step polish.

    Each stage restarts from the best point found so far with step_a divided
    by `shrink`, which recovers fast local convergence on the sharp minima
    typical of max-of-norms objectives.  The concatenated trace keeps the
    running-minimum monotonicity of the single-run method.
    """
    x = np.asarray(start, dtype=float)
    traces = []
    best_v = None
    best_x = x.copy()
    converged = True
    iterations = 0
    step_a = max(scale, 1e-12)
    for _ in range(stages):
        stage_cfg = SubgradientConfig(max_iter=iters_per_stage, step_a=step_a,
                                      step_b=cfg.step_b, tol=cfg.tol,
                                      patience=cfg.patience)
        res = subgradient_minimize(oracle, project, best_x, stage_cfg)
        traces.append(res.trace)
        iterations += res.iterations
        if best_v is None or res.value < best_v:
            best_v = res.value
            best_x = res.point
        converged = res.converged
        step_a /= shrink
    if polish_iters > 0:
        tail: list[float] = []
        best_v, best_x = _polyak_polish(oracle, project, best_x, best_v,
                                        polish_iters,
                                        delta0=1e-3 * max(1.0, abs(best_v)),
                                        trace=tail)
        traces.append(np.array(tail))
        iterations += len(tail)
    return SubgradientResult(best_v, best_x, np.concatenate(traces),
                             converged, iterations)

