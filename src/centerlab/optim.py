"""Self-contained optimization kernel.

Two pieces live here: a dense two-phase simplex solver that always returns a
certificate (dual multipliers at optimality, Farkas multipliers on
infeasibility, an improving ray when unbounded), and a subgradient method
for nonsmooth convex objectives, `staged_subgradient`, whose one caller is
the non-LP route of `centers.solve_center`: distances and non-polyhedral
ball searches reach it as restricted centers.

Problem sizes in this project are tiny (tens of variables), so clarity and
determinism win over speed.  Pivoting follows Bland's rule with
smallest-basic-index tie-breaking in the ratio test, which makes every solve
reproducible bit for bit and rules out cycling.  Variables are free reals;
the standard-form rewrite (variable splitting, slacks, artificials) is
internal and certificates are mapped back to the caller's constraint system.

Phase 1 starts from the slack basis (Bixby's crash basis): rows are scaled
and flipped to a nonnegative right-hand side, a <= row that needed no flip
starts with its slack basic, and only flipped <= rows and equalities get an
artificial.  Phase 1 minimizes the sum of those artificials and is skipped
when there are none.  The simplex multipliers are read off the starting
identity columns, y = c[start] - t[-1, start] with slack cost 0 and
artificial cost 1 in phase 1 (Farkas multipliers) or 0 in phase 2 (duals).
Every verdict is audited before it is returned: an optimum by
`verify_optimal`, an infeasible verdict by `verify_farkas` and an unbounded
one by `verify_ray`; a failed audit is returned as "breakdown".

A lexicographic tie-break among optimal points runs on the final tableau of
the same solve: each stage bars every column whose reduced cost is positive,
which pins the current optimal face exactly, then re-prices the cost row to
one coordinate and pivots on from the current basis.  Phase 1 runs once, and
each stage costs a few pivots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
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
    return _finite_lp(c, a_ub, b_ub, a_eq, b_eq)


def _finite_lp(*arrays) -> LinearProgram:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("linear program contains non-finite entries")
    return LinearProgram(*arrays)


class LpBuilder:
    """Incremental construction of a LinearProgram from dense row blocks.

    A block (cols, block, rhs) holds the rows `block @ u[cols] <= rhs`, one
    per entry of the 1-d `rhs`, over distinct variables `cols`; rows keep
    the order in which they were added.  The programs it builds have no
    equality rows; `make_lp` takes those.
    """

    def __init__(self):
        self._n = 0
        self._obj = None
        self._ub = []

    def new_var(self) -> int:
        return self.new_vars(1)[0]

    def new_vars(self, k: int) -> range:
        self._n += k
        return range(self._n - k, self._n)

    def set_objective(self, cols, coeffs) -> None:
        self._obj = (cols, coeffs)

    def add_ub(self, cols, block, rhs) -> None:
        self._ub.append((cols, block, rhs))

    def build(self) -> LinearProgram:
        c = np.zeros(self._n)
        if self._obj is not None:
            c[self._obj[0]] = self._obj[1]
            c += 0.0
        a = np.zeros((sum(len(rhs) for _, _, rhs in self._ub), self._n))
        b = np.empty(a.shape[0])
        row = 0
        for cols, block, rhs in self._ub:
            a[row:row + len(rhs), cols] = block
            b[row:row + len(rhs)] = rhs
            row += len(rhs)
        # adding zero turns the -0.0 of a negated coefficient into the +0.0
        # of an entry that no block sets
        a += 0.0
        return _finite_lp(c, a, b, np.zeros((0, self._n)), np.zeros(0))


@dataclass(frozen=True, eq=False)
class LpOutcome:
    """Solver verdict plus the evidence backing it.

    status "optimal": x, value, dual_ub (>= 0) and dual_eq satisfy
        objective + a_ub.T @ dual_ub + a_eq.T @ dual_eq = 0.
    status "infeasible": farkas_ub (>= 0) and farkas_eq combine the
        constraints into 0 <= negative, proving emptiness.
    status "unbounded": ray is an improving feasible direction.
    status "breakdown": numerical failure or a failed audit of one of the
        above; never reported as infeasible.
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
    t -= column[:, None] * t[row]
    t[:, col] = 0.0
    t[row, col] = 1.0


def _run_simplex(t, basis, allowed, max_iter):
    """Bland-rule tableau iteration; returns (status, iterations, entering)."""
    m = basis.shape[0]
    ncols = t.shape[1] - 1
    rhs = t[:m, -1]
    no_index = np.iinfo(basis.dtype).max
    # rhs / col divides by the entries the ratio test then masks out
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            entering = (t[-1, :ncols] < -_RCOST_TOL) & allowed
            j = int(entering.argmax())
            if not entering[j]:
                return OPTIMAL, it - 1, -1
            col = t[:m, j]
            pos = col > _PIVOT_TOL
            if not pos.any():
                return UNBOUNDED, it - 1, j
            ratios = np.where(pos, rhs / col, np.inf)
            ties = ratios <= ratios.min() + _RATIO_TIE
            leave = int(np.where(ties, basis, no_index).argmin())
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


def lp_solve(lp: LinearProgram, refine: Sequence[int] | None = None) -> LpOutcome:
    """Two-phase dense simplex with certificates.

    Deterministic: identical inputs yield bit-identical outcomes.  Numerical
    failure surfaces as status "breakdown" and is never folded into
    "infeasible".  Every verdict is audited against the original system
    before it is returned: an optimum (before refinement) by
    `verify_optimal`, Farkas multipliers by `verify_farkas`, a ray by
    `verify_ray`; a failed audit is a breakdown whose message says which.

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

    # Start basis: the slack of a <= row whose scaled rhs is >= 0 is already
    # an identity column; only flipped <= rows and equalities get an
    # artificial.  start[i] is the column that is e_i in the first tableau.
    n_struct = 2 * n + mu_count
    art_rows = np.flatnonzero(np.concatenate([sigma[:mu_count] < 0,
                                              np.ones(me_count, dtype=bool)]))
    n_art = art_rows.size
    ncols = n_struct + n_art
    start = 2 * n + np.arange(m_total)
    start[art_rows] = n_struct + np.arange(n_art)

    t = np.zeros((m_total + 1, ncols + 1))
    t[:m_total, :n] = a_std
    t[:m_total, n:2 * n] = -a_std
    t[np.arange(mu_count), 2 * n + np.arange(mu_count)] = sigma[:mu_count]
    t[art_rows, n_struct + np.arange(n_art)] = 1.0
    t[:m_total, -1] = b_std

    basis = start.copy()
    allowed = np.zeros(ncols, dtype=bool)
    allowed[:n_struct] = True

    max_iter = 1000 + 60 * (n_struct + m_total)

    def multipliers(costs):
        """Simplex multipliers y = costs[start] - reduced costs[start] of the
        current tableau, mapped back to the caller's rows (lam, mu)."""
        w = -sigma * (costs[start] - t[-1, start]) / row_scale
        return w[:mu_count], w[mu_count:]

    # Phase 1: drive the artificials to zero; skipped when there are none.
    it1 = 0
    if n_art:
        costs = np.zeros(ncols)
        costs[n_struct:] = 1.0
        t[-1, :ncols] = costs
        t[-1] -= t[art_rows].sum(axis=0)
        status, it1, _ = _run_simplex(t, basis, allowed, max_iter)
        if status != OPTIMAL:
            return LpOutcome(BREAKDOWN, iterations=it1,
                             message=f"phase 1 ended with {status}")

        phase1_obj = -t[-1, -1]
        scale = max(1.0, float(np.abs(b_std).max(initial=0.0)))
        if phase1_obj > FEAS_TOL * scale:
            lam, mu = multipliers(costs)
            lam = np.where(lam > 0, lam, 0.0)
            norm = max(1.0, float(np.abs(lam).max(initial=0.0)),
                       float(np.abs(mu).max(initial=0.0)))
            lam, mu = lam / norm, mu / norm
            if verify_farkas(lp, lam, mu):
                return LpOutcome(INFEASIBLE, farkas_ub=lam, farkas_eq=mu,
                                 iterations=it1)
            return LpOutcome(BREAKDOWN, iterations=it1,
                             message="phase 1 positive but certificate failed")

        # Pivot leftover artificials out of the basis where possible; rows
        # whose structural part vanished are redundant and stay inert at
        # level zero.
        for i in range(m_total):
            if basis[i] >= n_struct:
                nz = np.flatnonzero(np.abs(t[i, :n_struct]) > 1e-8)
                if nz.size:
                    _pivot(t, i, int(nz[0]))
                    basis[i] = int(nz[0])

    # Phase 2 with the real costs.
    costs = np.zeros(ncols)
    costs[:n] = lp.objective
    costs[n:2 * n] = -lp.objective
    _price(t, basis, costs)

    status, it2, enter = _run_simplex(t, basis, allowed, max_iter)
    iterations = it1 + it2

    if status == UNBOUNDED:
        ray_std = np.zeros(ncols)
        ray_std[enter] = 1.0
        ray_std[basis] = -t[:m_total, enter]
        ray = ray_std[:n] - ray_std[n:2 * n]
        if not verify_ray(lp, ray):
            return LpOutcome(BREAKDOWN, iterations=iterations,
                             message="unbounded claim failed the ray audit")
        return LpOutcome(UNBOUNDED, ray=ray, iterations=iterations)
    if status != OPTIMAL:
        return LpOutcome(BREAKDOWN, iterations=iterations,
                         message="phase 2 did not terminate")

    x = _basic_point(t, basis, n)
    lam, mu = multipliers(costs)
    lam = np.where(lam > 0, lam, 0.0)
    out = LpOutcome(OPTIMAL, x=x, value=float(lp.objective @ x), dual_ub=lam,
                    dual_eq=mu, iterations=iterations)
    if not verify_optimal(lp, out):
        return LpOutcome(BREAKDOWN, x=x, iterations=iterations,
                         message="optimal claim failed the optimality audit")
    if refine is None:
        return out
    x, pivots, message = _lex_refine(lp, t, basis, allowed, refine, x,
                                     out.value, max_iter)
    return replace(out, x=x, iterations=iterations + pivots, message=message)


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


def verify_ray(lp: LinearProgram, ray: np.ndarray, tol: float = FEAS_TOL) -> bool:
    """Check that `ray` proves unboundedness: scaled to unit max-norm, it
    keeps a_ub @ ray <= 0 and a_eq @ ray = 0 (both up to the tolerance
    verify_farkas allows its row combination) and objective @ ray < 0."""
    size = float(np.abs(ray).max(initial=0.0))
    if not (np.isfinite(ray).all() and size > 0.0):
        return False
    r = ray / size
    slack = 100 * tol * max(1.0, float(np.abs(lp.a_ub).max(initial=0.0)),
                            float(np.abs(lp.a_eq).max(initial=0.0)))
    if float((lp.a_ub @ r).max(initial=0.0)) > slack:
        return False
    if float(np.abs(lp.a_eq @ r).max(initial=0.0)) > slack:
        return False
    return float(lp.objective @ r) < 0.0


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


def enumerate_vertices(a_ub, b_ub, cap: int = 2_000_000) -> np.ndarray:
    """All vertices of {u : a_ub u <= b_ub} by basis enumeration, one per
    7-digit rounding, in sorted order.

    Intended for small dimensions (<= 4 in this project); raises ValueError
    when the subset count would exceed `cap`.
    """
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    m, d = a_ub.shape
    if math.comb(m, d) > cap:
        raise ValueError("combination count exceeds cap")
    scale = np.maximum(1.0, np.abs(b_ub))
    found: dict[tuple, np.ndarray] = {}
    for subset in itertools.combinations(range(m), d):
        mat, rhs = a_ub[list(subset)], b_ub[list(subset)]
        try:
            v = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(v).all():
            continue
        if np.abs(mat @ v - rhs).max(initial=0.0) > 1e-7:
            continue
        if m and (a_ub @ v - b_ub > 100 * FEAS_TOL * scale).any():
            continue
        key = tuple(np.round(v, 7).tolist())
        if key not in found:
            found[key] = v
    if not found:
        return np.zeros((0, d))
    return np.array([found[k] for k in sorted(found)])


@dataclass(frozen=True)
class SubgradientConfig:
    """One run of `subgradient_minimize`: at most `max_iter` steps, the k-th
    of length step_a / (k + 10)."""

    max_iter: int = 1500
    step_a: float = 1.0


@dataclass(frozen=True, eq=False)
class SubgradientResult:
    value: float
    point: np.ndarray
    trace: np.ndarray
    converged: bool
    iterations: int


def subgradient_minimize(oracle: Callable[[np.ndarray], tuple[float, np.ndarray]],
                         start: np.ndarray,
                         cfg: SubgradientConfig = SubgradientConfig()) -> SubgradientResult:
    """Subgradient descent for a convex objective oracle.

    The schedule step_a / (k + 10) is the step length along the normalized
    subgradient, which keeps iterates bounded even when gradients grow
    superlinearly far from the minimum.  Returns the best point seen; the
    trace holds the value at every iterate, so its running minimum is
    nonincreasing by construction.  A run stops, converged, after 250 steps
    without a relative improvement above 1e-9; hitting the iteration cap
    while still improving is flagged as unconverged.
    """
    x = np.asarray(start, dtype=float).copy()
    value, grad = oracle(x)
    best_v = value
    best_x = x  # iterates are fresh arrays, never written in place
    trace = [value]
    last_improve = 0
    k = 0
    for k in range(1, cfg.max_iter + 1):
        gn = math.sqrt(grad @ grad)
        if gn <= 1e-300:
            return SubgradientResult(best_v, best_x, np.array(trace), True, k)
        x = x - (cfg.step_a / (k + 10.0) / gn) * grad
        value, grad = oracle(x)
        trace.append(value)
        if value < best_v:
            if value < best_v - 1e-9 * max(1.0, abs(best_v)):
                last_improve = k
            best_v = value
            best_x = x
        if k - last_improve > 250:
            return SubgradientResult(best_v, best_x, np.array(trace), True, k)
    return SubgradientResult(best_v, best_x, np.array(trace), False, k)


def _polyak_polish(oracle, start, best_v, iters, delta0, trace):
    """Deflected subgradient steps with a Polyak-style length against a
    moving target slightly below the best value seen.

    The deflection (Camerini-Fratta-Maffioli: fold the previous direction in
    whenever it opposes the new subgradient) steers along narrow
    piecewise-linear valleys where raw subgradients zigzag; the shrinking
    target offset then recovers fast convergence to the floor."""
    x = np.asarray(start, dtype=float).copy()
    best_x = x  # iterates are fresh arrays, never written in place
    delta = delta0
    direction = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, iters + 1):
            value, grad = oracle(x)
            if not math.isfinite(value):
                x = best_x
                direction = None
                continue
            trace.append(value)
            if value < best_v:
                best_v = value
                best_x = x
            along = 0.0 if direction is None else float(direction @ grad)
            if along < 0:
                beta = -1.5 * along / float(direction @ direction)
                direction = grad + beta * direction
            else:
                direction = grad
            dd = float(direction @ direction)
            if not math.isfinite(dd) or dd < 1e-150:
                break
            nxt = x - ((value - (best_v - delta)) / dd) * direction
            if not np.isfinite(nxt).all():
                x = best_x
                direction = None
                continue
            x = nxt
            if k % 200 == 0:
                delta = max(delta / 4.0, 1e-13)
    return best_v, best_x


_STAGES, _ITERS_PER_STAGE = 12, 700


def staged_subgradient(oracle: Callable[[np.ndarray], tuple[float, np.ndarray]],
                       start: np.ndarray,
                       scale: float = 1.0) -> SubgradientResult:
    """Repeated subgradient runs with a geometrically shrinking step scale,
    followed by a Polyak-step polish of at most 2500 oracle calls.

    Each of the _STAGES runs takes at most _ITERS_PER_STAGE steps and
    restarts from the best point found so far with step_a, which starts at
    `scale`, divided by 4; this recovers fast local convergence on the sharp
    minima typical of max-of-norms objectives.  The concatenated trace keeps
    the running-minimum monotonicity of the single-run method.  The
    schedule is the one of `centers.solve_center`, its only caller.
    """
    x = np.asarray(start, dtype=float)
    traces = []
    best_v = None
    best_x = x.copy()
    converged = True
    iterations = 0
    step_a = max(scale, 1e-12)
    for _ in range(_STAGES):
        res = subgradient_minimize(oracle, best_x, SubgradientConfig(
            max_iter=_ITERS_PER_STAGE, step_a=step_a))
        traces.append(res.trace)
        iterations += res.iterations
        if best_v is None or res.value < best_v:
            best_v = res.value
            best_x = res.point
        converged = res.converged
        step_a /= 4.0
    tail: list[float] = []
    best_v, best_x = _polyak_polish(oracle, best_x, best_v, 2500,
                                    delta0=1e-3 * max(1.0, abs(best_v)),
                                    trace=tail)
    traces.append(np.array(tail))
    iterations += len(tail)
    return SubgradientResult(best_v, best_x, np.concatenate(traces),
                             converged, iterations)
