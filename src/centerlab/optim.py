"""Self-contained optimization kernel.

A dense two-phase simplex solver that always returns a certificate (dual
multipliers at optimality, Farkas multipliers on infeasibility, an
improving ray when unbounded), and `staged_subgradient`, a subgradient
method with a fixed schedule that the program no longer calls: the non-LP
route of `centers.solve_center` is the log-barrier solver of `barrier`,
whose models `LpBuilder` also builds.

Problem sizes in this project are tiny (tens of variables), so clarity and
determinism win over speed.  The entering column has the most negative
reduced cost (Dantzig's rule), and the ratio test breaks ties by the
smallest basic index; after 50 consecutive degenerate pivots pricing falls
back to Bland's rule until the next nondegenerate pivot, which rules out
cycling.  Every solve is reproducible bit for bit.  Variables are free
reals, and certificates are mapped back to the caller's constraint system.

Every LP has only <= rows, a_ub u <= b_ub over free u: an equality is
written as two opposed <= rows.  `lp_solve` runs the simplex on the dual
standard form, min b.y subject to A^T y = -c, y >= 0.  Its tableau has one
row per variable, n_vars + 1 in all, however many rows the LP has, and it
needs no slacks, no variable splitting and one artificial per variable.
Phase 1 drives the artificials out of the basis; it is skipped when c = 0,
where y = 0 is feasible at once.  Before it is priced, each artificial that
starts at level zero (a variable with c_i = 0) is crashed out: pivoted on
the largest entry of its row, which moves no basic value.  An artificial
left basic at level zero is held there.  The outcome is read from the final
basis by `_read_outcome`: the duals are its basic values, the optimum x
solves the n rows the basis holds tight (one `np.linalg.solve`, then one
step of iterative refinement), an unbounded dual ray gives Farkas
multipliers, and when the dual is infeasible its phase-1 multipliers are an
improving ray, after the same tableau with c = 0 has shown the primal
feasible.  Every verdict is audited by the public verifiers before it is
returned: an optimum by `verify_optimal`, an infeasible verdict by
`verify_farkas` and an unbounded one by `verify_ray`; a failed audit is
returned as "breakdown".  An LP with rows and no unknowns has no tableau:
its one point, the empty one, is optimal when b >= 0, and otherwise a
negative row proves it infeasible (`_solve_empty`), each audited as above.

A lexicographic tie-break among optimal points runs on the final tableau of
the same solve as dual-simplex stages: each stage sets the right-hand side
to -e_idx, the dual of min u_idx, and keeps every positive dual basic and
free to go negative, so the rows it holds stay tight and, by complementary
slackness, the point stays on the optimal face.  Phase 1 runs once, and
each stage costs a few pivots.

Polytope vertices are enumerated by basis solves (`enumerate_vertices`), a
batch of row subsets at a time, through one kernel, `solve_regular`, which
the annihilator's dual vertices in `norms` share.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

FEAS_TOL = 1e-9
_OPT_TOL = 1e-7

_PIVOT_TOL = 1e-10
_RCOST_TOL = 1e-10
_RATIO_TIE = 1e-12
# consecutive degenerate pivots after which pricing falls back to Bland's rule
_DEGENERATE_RUN = 50

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
BREAKDOWN = "breakdown"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min objective @ u  s.t.  a_ub @ u <= b_ub, u free."""

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]


def _finite_lp(*arrays) -> LinearProgram:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("linear program contains non-finite entries")
    return LinearProgram(*arrays)


class LpBuilder:
    """Incremental construction of a LinearProgram from dense row blocks.

    A block (cols, block, rhs) holds the rows `block @ u[cols] <= rhs`, one
    per entry of the 1-d `rhs`, over distinct variables `cols`; rows keep
    the order in which they were added.
    """

    def __init__(self):
        self._n = 0
        self._obj = None
        self._ub = []
        self.cones = []

    def new_var(self) -> int:
        return self.new_vars(1)[0]

    def new_vars(self, k: int) -> range:
        self._n += k
        return range(self._n - k, self._n)

    def set_objective(self, cols, coeffs) -> None:
        self._obj = (cols, coeffs)

    def add_ub(self, cols, block, rhs) -> None:
        self._ub.append((cols, block, rhs))

    def add_cone(self, p: float, cols, mat, off, bound: int) -> None:
        """||mat @ u[cols] + off||_p <= u[bound], which `build` leaves out
        and `barrier.barrier_solve` takes from `cones`."""
        self.cones.append((p, cols, mat, off, bound))

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
        return _finite_lp(c, a, b)


@dataclass(frozen=True, eq=False)
class LpOutcome:
    """Solver verdict plus the evidence backing it.

    status "optimal": x, value and dual_ub (>= 0) satisfy
        objective + a_ub.T @ dual_ub = 0.
    status "infeasible": farkas_ub (>= 0) combines the rows into
        0 <= negative, proving emptiness.
    status "unbounded": ray is an improving feasible direction.
    status "breakdown": numerical failure or a failed audit of one of the
        above; never reported as infeasible.
    """

    status: str
    x: np.ndarray | None = None
    value: float | None = None
    dual_ub: np.ndarray | None = None
    farkas_ub: np.ndarray | None = None
    ray: np.ndarray | None = None
    iterations: int = 0
    message: str = ""


def _pivot(t: np.ndarray, row: int, col: int) -> None:
    """Pivot t on (row, col).  The pivot column needs no reset: x - x *
    (p / p) is exactly +0.0, and the pivot row, updated with the rest, is
    then overwritten by its scaled self."""
    prow = t[row] / t[row, col]
    t -= t[:, col, None] * prow
    t[row] = prow


def _crash(t, basis, n_struct) -> int:
    """Pivot each artificial basic at level zero out on the structural
    column with the largest |entry| in its row, when that entry is above
    _PIVOT_TOL; returns the number of pivots.  The row's right-hand side is
    zero, so no basic value moves and no ratio test is needed."""
    pivots = 0
    for row in np.flatnonzero((basis >= n_struct) & (t[:-1, -1] == 0.0)):
        j = int(np.abs(t[row, :n_struct]).argmax())
        if abs(t[row, j]) > _PIVOT_TOL:
            _pivot(t, row, j)
            basis[row] = j
            pivots += 1
    return pivots


def _run_simplex(t, basis, n_struct, max_iter, phase_1=False):
    """Tableau iteration; returns (status, pivots, entering).

    The entering column is the one with the most negative reduced cost
    (Dantzig's rule, the smallest index among ties).  After _DEGENERATE_RUN
    consecutive degenerate pivots (ratio <= _RATIO_TIE) it is the smallest
    index with a negative reduced cost (Bland's rule) until the next
    nondegenerate pivot; with the leaving row's smallest basic index among
    ratio ties, that rules out cycling.

    Columns below `n_struct` may enter; the others are artificials.  An
    artificial basic at level zero is held there: a nonzero entry in its row
    blocks the entering column at ratio zero, whatever its sign, so the
    artificial leaves rather than grows, and its level is reset to zero
    after every pivot.

    Phase 1 (`phase_1`) is bounded below by zero, so an entering column
    with no pivot there is flat up to the tolerances, not a ray: it is
    barred for the rest of the phase.  The phase also ends, optimal, as
    soon as no artificial is left basic above zero: their sum is then
    exactly zero, whatever the drift of the objective row.
    """
    m = basis.shape[0]
    rhs = t[:m, -1]
    costs = t[-1, :n_struct]
    no_index = t.shape[1]  # above every column index
    no_ratio = np.full(m, np.inf)  # copied as each ratio test's start
    art_rows = basis >= n_struct
    arts = int(art_rows.sum())  # artificials still basic; none comes back
    open_cols = None
    pivots = degenerate = 0
    for _ in range(max_iter):
        priced = costs if open_cols is None else np.where(open_cols, costs, 0.0)
        if degenerate < _DEGENERATE_RUN:
            j = int(priced.argmin())
        else:
            j = int((priced < -_RCOST_TOL).argmax())
        if not priced[j] < -_RCOST_TOL:
            return OPTIMAL, pivots, -1
        col = t[:m, j]
        ratios = no_ratio.copy()
        np.divide(rhs, col, out=ratios, where=col > _PIVOT_TOL)
        held = None
        if arts:
            held = art_rows & (rhs == 0.0)
            ratios[held & (np.abs(col) > _PIVOT_TOL)] = 0.0
        least = ratios.min()
        if least == np.inf:
            if not phase_1:
                return UNBOUNDED, pivots, j
            if open_cols is None:
                open_cols = np.ones(n_struct, dtype=bool)
            open_cols[j] = False
            continue
        degenerate = degenerate + 1 if least <= _RATIO_TIE else 0
        leave = int(np.where(ratios <= least + _RATIO_TIE, basis,
                             no_index).argmin())
        _pivot(t, leave, j)
        pivots += 1
        basis[leave] = j
        arts -= bool(art_rows[leave])
        art_rows[leave] = False
        if held is not None:
            rhs[held] = 0.0
        if not np.isfinite(t).all():
            return BREAKDOWN, pivots, j
        if phase_1 and not (rhs[art_rows] > 0.0).any():
            return OPTIMAL, pivots, -1
    return BREAKDOWN, pivots, -1


def _dual_simplex(t, basis, n_struct, free, max_iter):
    """Bland-rule dual simplex on a tableau whose reduced costs are >= 0;
    returns (status, pivots).

    A basic column is out of bounds when it is a structural column, not
    `free` and negative, or an artificial and nonzero.  The out-of-bounds
    row with the smallest basic index leaves, and the entering structural
    column, the smallest index among the ratio-test ties, keeps every
    reduced cost >= 0.  A row that no column can mend is reported
    "unbounded": the primal problem whose dual this is has no lower bound.
    """
    m = basis.shape[0]
    rhs = t[:m, -1]
    costs = t[-1, :n_struct]
    no_index = t.shape[1]  # above every column index
    no_ratio = np.full(n_struct, np.inf)  # copied as each ratio test's start
    for it in range(max_iter):
        out = np.where(basis < n_struct,
                       (rhs < -_RCOST_TOL) & ~free[basis],
                       np.abs(rhs) > _RCOST_TOL)
        if not out.any():
            return OPTIMAL, it
        leave = int(np.where(out, basis, no_index).argmin())
        row = t[leave, :n_struct] * (1.0 if rhs[leave] > 0 else -1.0)
        ratios = no_ratio.copy()
        np.divide(np.maximum(costs, 0.0), row, out=ratios,
                  where=row > _PIVOT_TOL)
        least = ratios.min()
        if least == np.inf:
            return UNBOUNDED, it
        j = int((ratios <= least + _RATIO_TIE).argmax())
        _pivot(t, leave, j)
        basis[leave] = j
        if not np.isfinite(t).all():
            return BREAKDOWN, it + 1
    return BREAKDOWN, max_iter


def _price(t, basis, costs) -> None:
    """Load `costs` into the objective row and price out the basic columns."""
    t[-1, :-1] = costs
    t[-1, -1] = 0.0
    t[-1] -= costs[basis] @ t[:-1]


def _scale(row_size: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """The power of two that brings each row's largest entry, b included,
    into [0.5, 1); 1 for a row of zeros."""
    size = np.maximum(row_size, np.abs(costs))
    return np.where(size > _PIVOT_TOL, np.ldexp(1.0, np.frexp(size)[1]), 1.0)


def _stopped(idx: int, status: str) -> str:
    return f"lexicographic refinement stopped at coordinate {idx}: {status}"


class _DualTableau:
    """The dual standard form of an LP, min b.y s.t. A^T y = -c, y >= 0, on
    an (n_vars + 1)-row tableau.

    Column j < n_cols is the dual of row j.  Each row is scaled by the power
    of two that brings its largest entry, b included, into [0.5, 1): that
    keeps pivots well conditioned and the scaled rows exact.  Tableau row i
    belongs to primal variable i, flipped by tau_i so that its right-hand
    side |c_i| is >= 0.  Column n_cols + i is its artificial; those identity
    columns hold the inverse of the current basis throughout.
    """

    def __init__(self, lp: LinearProgram):
        n = lp.n_vars
        self.n_cols = lp.a_ub.shape[0]
        self.tau = np.where(lp.objective > 0, -1.0, 1.0)
        row_size = np.abs(lp.a_ub).max(axis=1)
        # the columns, costs and scales in the caller's units, artificials
        # included
        self.columns = np.hstack([lp.a_ub.T * self.tau[:, None], np.eye(n)])
        self.costs = np.concatenate([lp.b_ub, np.zeros(n)])
        self.scale = np.concatenate([_scale(row_size, lp.b_ub), np.ones(n)])

        self.t = np.zeros((n + 1, self.n_cols + n + 1))
        self.t[:n, :-1] = self.columns / self.scale
        self.t[:n, -1] = np.abs(lp.objective)
        self.basis = self.n_cols + np.arange(n)
        self.max_iter = 1000 + 60 * self.t.shape[1]


def _lex_refine(lp, dual, refine, x, value):
    """Lexicographic refinement on an optimal dual tableau.

    Each stage sets the right-hand side to -e_idx, the dual of min u_idx,
    and runs the dual simplex from the current basis.  Every dual that is
    positive at the start of a stage is free to go negative and so stays
    basic: its row stays tight, which by complementary slackness keeps the
    point on the optimal face of the stages before.  A stage's point is
    kept only when it is feasible and its objective is within
    FEAS_TOL * max(1, |value|) of the phase-2 value; otherwise the last kept
    point is returned with a message naming the stage.  Returns
    (x, pivots, message).
    """
    t, basis, n_cols = dual.t, dual.basis, dual.n_cols
    free = np.zeros(t.shape[1] - 1, dtype=bool)
    pivots = 0
    for idx in refine:
        free[basis[(t[:-1, -1] > _RCOST_TOL) & (basis < n_cols)]] = True
        t[:-1, -1] = -dual.tau[idx] * t[:-1, n_cols + idx]
        status, it = _dual_simplex(t, basis, n_cols, free, dual.max_iter)
        pivots += it
        if status != OPTIMAL:
            return x, pivots, _stopped(idx, status)
        if it == 0:
            continue
        cand = _tight_point(dual)
        if not np.isfinite(cand).all():
            return x, pivots, _stopped(idx, "singular basis")
        drift = abs(float(lp.objective @ cand) - value)
        if not (_primal_feasible(lp.a_ub, lp.b_ub, cand).all()
                and drift <= FEAS_TOL * max(1.0, abs(value))):
            return x, pivots, _stopped(idx, "failed the optimality audit")
        x = cand
    return x, pivots, "lexicographic refinement"


def lp_solve(lp: LinearProgram, refine: Sequence[int] | None = None
             ) -> LpOutcome:
    """Two-phase dense simplex on the dual, with certificates.

    Deterministic: identical inputs yield bit-identical outcomes.  Numerical
    failure surfaces as status "breakdown" and is never folded into
    "infeasible".  Every verdict is audited against the original system
    before it is returned, an optimum before refinement: by `verify_optimal`,
    `verify_farkas` or `verify_ray`; a failed audit is a breakdown saying
    why.

    The simplex runs on the dual standard form (see `_DualTableau`), whose
    tableau has n_vars + 1 rows however many constraints there are.  An
    optimal basis gives the duals as its basic values and the optimum x as
    the solution of the n rows it holds tight; an unbounded dual ray gives
    Farkas multipliers.  When the dual is infeasible its phase-1
    multipliers are an improving ray, and the same tableau with c = 0 then
    decides whether the primal is infeasible or unbounded.  `iterations`
    counts the pivots of every phase, phase 1's crash pivots included.

    With `refine`, an optimal x is moved to the lexicographically smallest
    point of the optimal face over those coordinates, on the final tableau
    (see `lp_solve_lex`); value and duals stay those of phase 2, and
    `iterations` counts the refinement pivots too.
    """
    n = lp.n_vars
    if lp.a_ub.shape[0] == 0:
        if float(np.abs(lp.objective).max(initial=0.0)) <= _RCOST_TOL:
            # Every refined coordinate is free on the whole space.
            message = "" if not refine else _stopped(refine[0], UNBOUNDED)
            return LpOutcome(OPTIMAL, x=np.zeros(n), value=0.0,
                             dual_ub=np.zeros(0), message=message)
        return LpOutcome(UNBOUNDED, ray=-lp.objective.copy(),
                         message="no constraints")
    if n == 0:
        return _solve_empty(lp)
    return _solve(lp, refine)


def _solve_empty(lp: LinearProgram) -> LpOutcome:
    """The audited outcome of an LP with rows and no unknowns, whose one
    point is the empty one: optimal there, with zero duals, when b >= 0,
    and otherwise infeasible, the unit vector on its most negative row a
    Farkas vector (0 <= b_j < 0)."""
    b = lp.b_ub
    lam = np.zeros(b.shape[0])
    if b.min() >= 0.0:
        out = LpOutcome(OPTIMAL, x=np.zeros(0), value=0.0, dual_ub=lam)
        if verify_optimal(lp, out):
            return out
        return _breakdown(0, "optimal claim failed the optimality audit")
    lam[b.argmin()] = 1.0
    if verify_farkas(lp, lam):
        return LpOutcome(INFEASIBLE, farkas_ub=lam)
    return _breakdown(0, "infeasible claim failed the Farkas audit")


def _solve(lp: LinearProgram, refine: Sequence[int] | None) -> LpOutcome:
    """The solve of `lp_solve` on a fresh tableau of `lp`.

    Phase 1 runs when an artificial is basic above zero, which means
    c != 0."""
    dual = _DualTableau(lp)
    t, basis, n_cols = dual.t, dual.basis, dual.n_cols
    it1 = 0
    ray = None
    level = float(t[:-1, -1][basis >= n_cols].max(initial=0.0))

    # Phase 1: drive the artificials to zero; skipped when c = 0, where
    # y = 0 is a feasible start with every artificial at level zero.  The
    # artificials that start at level zero (rows with c_i = 0) are crashed
    # out first.
    if level > 0.0:
        crashed = _crash(t, basis, n_cols)
        costs = np.zeros(t.shape[1] - 1)
        costs[n_cols:] = 1.0
        _price(t, basis, costs)
        status, it1, _ = _run_simplex(t, basis, n_cols, dual.max_iter,
                                      phase_1=True)
        it1 += crashed
        if status != OPTIMAL:
            return _breakdown(it1, f"phase 1 ended with {status}")
        if t[:-1, -1][basis >= n_cols].sum() > FEAS_TOL * max(1.0, level):
            # No dual point: the phase-1 multipliers are a primal ray, and
            # the dual of the feasibility problem (c = 0) starts from this
            # basis with every basic value zero.
            ray = dual.tau * (1.0 - t[-1, n_cols:-1])
            t[:-1, -1] = 0.0
        # artificials left basic are zero up to the phase-1 tolerance; from
        # here on they are held at zero
        t[:-1, -1][basis >= n_cols] = 0.0

    # Phase 2 with the dual costs b.
    _price(t, basis, dual.costs / dual.scale)
    status, it2, enter = _run_simplex(t, basis, n_cols, dual.max_iter)
    iterations = it1 + it2

    if ray is not None and status == OPTIMAL:
        if not verify_ray(lp, ray):
            return _breakdown(iterations, "unbounded claim failed the ray audit")
        return LpOutcome(UNBOUNDED, ray=ray, iterations=iterations)
    out = _read_outcome(lp, dual, status, iterations, enter)
    if refine is None or out.status != OPTIMAL:
        return out
    x, pivots, message = _lex_refine(lp, dual, refine, out.x, out.value)
    return replace(out, x=x, iterations=out.iterations + pivots,
                   message=message)


def _read_outcome(lp: LinearProgram, dual: _DualTableau, status: str,
                  pivots: int, enter: int) -> LpOutcome:
    """The audited outcome of `lp` from its tableau after phase 2, whose
    status, pivots and entering column are given.  An optimum gives the
    duals as its basic values and x as its tight point, and is returned
    only if `verify_optimal` accepts it; a dual ray gives a Farkas vector,
    returned only if `verify_farkas` accepts it.  Anything else is a
    breakdown saying why."""
    if status == OPTIMAL:
        x = _tight_point(dual)
        y = np.zeros(dual.t.shape[1] - 1)
        y[dual.basis] = dual.t[:-1, -1]
        head = y[:dual.n_cols]
        lam = np.where(head > 0, head / dual.scale[:dual.n_cols], 0.0)
        out = LpOutcome(OPTIMAL, x=x, value=float(np.vecdot(x, lp.objective)),
                        dual_ub=lam, iterations=pivots)
        if verify_optimal(lp, out):
            return out
        return _breakdown(pivots, "optimal claim failed the optimality audit"
                          if np.isfinite(x).all() else "optimal basis is singular")
    if status == UNBOUNDED:
        lam = _farkas_vector(dual, enter)
        if verify_farkas(lp, lam):
            return LpOutcome(INFEASIBLE, farkas_ub=lam, iterations=pivots)
        return _breakdown(pivots, "infeasible claim failed the Farkas audit")
    return _breakdown(pivots, "phase 2 did not terminate")


def _breakdown(pivots: int, message: str) -> LpOutcome:
    return LpOutcome(BREAKDOWN, iterations=pivots, message=message)


def _tight_point(dual: _DualTableau) -> np.ndarray:
    """The primal point that the basis of `dual` holds tight: a_j x = b_j
    for each basic dual column j, and x_i = 0 for each artificial left
    basic in row i; not finite where that system is numerically singular.

    The system is the transposed basis with its rows unflipped, solved
    afresh from the scaled rows, then given one step of iterative
    refinement: the residual of the caller's rows, scaled, mapped through
    the basis inverse that the artificial columns carry."""
    basis = dual.basis
    rows = dual.columns[:, basis].T * dual.tau
    s, c = dual.scale[basis], dual.costs[basis]
    try:
        x = np.linalg.solve(rows / s[:, None], (c / s)[:, None])[:, 0]
    except np.linalg.LinAlgError:
        x = np.full(c.shape, np.nan)
    ext = np.longdouble
    resid = c.astype(ext) - (rows.astype(ext) @ x.astype(ext)[:, None])[:, 0]
    fix = ((resid.astype(float) / s)[None] @ dual.t[:-1, dual.n_cols:-1])[0]
    return x + dual.tau * fix


def _farkas_vector(dual: _DualTableau, enter: int) -> np.ndarray:
    """The Farkas multipliers of the unbounded dual ray of `dual` along
    column `enter`: y >= 0 with A^T y = 0 and b.y < 0, given one step of
    iterative refinement through the basis inverse, in the caller's units,
    scaled to a largest entry of at most 1."""
    t, basis, n_cols = dual.t, dual.basis, dual.n_cols
    y = np.zeros(t.shape[1] - 1)
    y[enter] = 1.0
    y[basis] = -t[:-1, enter]
    fix = t[:-1, n_cols:-1] @ ((dual.columns / dual.scale) @ y[:, None])
    y[basis] -= fix[:, 0]
    lam = y[:n_cols] / dual.scale[:n_cols]
    lam = np.where(lam > 0, lam, 0.0)
    return lam / lam.max(initial=1.0)


def _primal_feasible(a_ub, b_ub, x):
    """Row by row, whether x keeps a_ub x <= b_ub to FEAS_TOL * max(1, |b|)."""
    return x @ a_ub.T - b_ub <= FEAS_TOL * np.maximum(1.0, np.abs(b_ub))


def verify_farkas(lp: LinearProgram, lam: np.ndarray) -> bool:
    """Check that lam proves `lp` infeasible, the Farkas audit of
    `lp_solve`: lam >= -FEAS_TOL, the rows' combination vanishes to
    100 FEAS_TOL max(1, max |a_ij|), and lam.b < -FEAS_TOL."""
    coeff_scale = np.abs(lp.a_ub).max(initial=1.0)
    vanish = np.abs(lam @ lp.a_ub) <= 100 * FEAS_TOL * coeff_scale
    return bool((lam >= -FEAS_TOL).all() and vanish.all()
                and np.vecdot(lam, lp.b_ub) < -FEAS_TOL)


def verify_ray(lp: LinearProgram, ray: np.ndarray) -> bool:
    """Check that `ray` proves unboundedness: scaled to unit max-norm, each
    row a_j keeps a_j @ ray <= FEAS_TOL * (|a_j| @ |ray|), a slack on the
    scale of that row's own products, and objective @ ray < 0."""
    size = float(np.abs(ray).max(initial=0.0))
    if not (np.isfinite(ray).all() and size > 0.0):
        return False
    r = ray / size
    if (lp.a_ub @ r > FEAS_TOL * (np.abs(lp.a_ub) @ np.abs(r))).any():
        return False
    return float(lp.objective @ r) < 0.0


def verify_optimal(lp: LinearProgram, out: LpOutcome) -> bool:
    """Check that `out` is an optimum of `lp`, the optimality audit of
    `lp_solve`: x finite and feasible, duals >= -FEAS_TOL, and
    stationarity and zero duality gap to _OPT_TOL relative."""
    if out.status != OPTIMAL:
        return False
    x, lam, value = out.x, out.dual_ub, out.value
    scale = np.abs(lam).max(initial=np.abs(lp.objective).max(initial=1.0))
    gap = abs(np.vecdot(lam, lp.b_ub) + value)
    return bool(np.isfinite(x).all() and _primal_feasible(lp.a_ub, lp.b_ub, x).all()
                and (lam >= -FEAS_TOL).all()
                and (np.abs(lp.objective + lam @ lp.a_ub) <= _OPT_TOL * scale).all()
                and gap <= _OPT_TOL * max(1.0, abs(value)))


def lp_solve_lex(lp: LinearProgram,
                 refine: Sequence[int] | None = None) -> LpOutcome:
    """Solve, then pin the lexicographically smallest optimizer over the
    coordinates in `refine` (all variables by default).

    One `lp_solve` call does both: after phase 2 each coordinate in turn is
    minimized over the optimal face by a dual-simplex stage on the final
    tableau, whose right-hand side becomes -e_idx while every positive dual
    stays basic, so its row stays tight and the face cannot move.  The
    point is exact up to the tolerance of 1e-10 on a dual's sign; value and
    duals are those of the first optimum.  A stage that ends other than
    optimal, or
    whose point fails the feasibility and objective audit, stops the
    refinement: the last audited point is returned and `message` names the
    coordinate and the status.
    """
    return lp_solve(lp, refine=range(lp.n_vars) if refine is None else refine)


def solve_regular(mats: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the square systems mats[s] x = rhs[s] of a batch whose smallest
    singular value, with columns and then rows scaled to unit length, is
    above 1e-10 of their largest, a screen blind to the scale of unknowns
    and equations; the others, singular up to rounding, are skipped.
    Returns the mask of the solved systems and their solutions, one row
    each (a 0 x 0 system is regular)."""
    eq = mats / np.linalg.norm(mats, axis=1, keepdims=True).clip(1e-300)
    eq /= np.linalg.norm(eq, axis=2, keepdims=True).clip(1e-300)
    sv = np.linalg.svd(eq, compute_uv=False)
    regular = sv.min(axis=1, initial=np.inf) > 1e-10 * sv.max(axis=1, initial=0.0)
    return regular, np.linalg.solve(mats[regular], rhs[regular][:, :, None])[:, :, 0]


# the most entries of the (subset, row) products one batch of
# `enumerate_vertices` holds
_VERTEX_BATCH_CELLS = 1 << 16


def enumerate_vertices(a_ub, b_ub, cap: int = 2_000_000) -> np.ndarray | None:
    """All vertices of {u : a_ub u <= b_ub} by basis enumeration, one per
    7-digit rounding (the first found), in sorted order: the row subsets of
    size dim(u) are solved a batch at a time by `solve_regular`, and a
    solution is a vertex when it is finite, solves its rows to 1e-7 and
    meets every row.  Intended for small dimensions (<= 4 in this
    project); returns None when the subset count would exceed `cap`.
    """
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    m, d = a_ub.shape
    if math.comb(m, d) > cap:
        return None
    scale = np.maximum(1.0, np.abs(b_ub))
    subsets = itertools.combinations(range(m), d)
    size = max(1, _VERTEX_BATCH_CELLS // max(m, d * d))
    found = [np.zeros((0, d))]
    while chunk := list(itertools.islice(subsets, size)):
        batch = np.array(chunk, dtype=np.intp).reshape(len(chunk), d)
        mats, rhs = a_ub[batch], b_ub[batch]
        regular, verts = solve_regular(mats, rhs)
        mats, rhs = mats[regular], rhs[regular]
        resid = np.abs((mats @ verts[:, :, None])[:, :, 0] - rhs).max(axis=1, initial=0.0)
        ok = np.isfinite(verts).all(axis=1) & (resid <= 1e-7)
        ok &= ~(verts @ a_ub.T - b_ub > 100 * FEAS_TOL * scale).any(axis=1)
        found.append(verts[ok])
    verts = np.concatenate(found)
    # sorted by the rounded keys; `np.unique` gives each key's first index
    return verts[np.unique(np.round(verts, 7), axis=0, return_index=True)[1]]


_STAGES, _STAGE_STEPS, _STALL_STEPS, _POLISH_CALLS = 12, 700, 250, 2500


@dataclass(frozen=True, eq=False)
class SubgradientResult:
    value: float
    point: np.ndarray
    converged: bool


def _stage(oracle, start, step_a):
    """One run of at most _STAGE_STEPS steps along the normalized
    subgradient, the k-th of length step_a / (k + 10), which keeps iterates
    bounded even when gradients grow superlinearly far from the minimum.
    Returns (best value, best point, converged): a run converges after
    _STALL_STEPS steps without a relative improvement above 1e-9, or at a
    zero subgradient; one that uses every step while still improving does
    not."""
    x = start
    value, grad = oracle(x)
    best_v, best_x = value, x  # iterates are fresh arrays, never written in place
    last_improve = 0
    for k in range(1, _STAGE_STEPS + 1):
        gn = math.sqrt(grad @ grad)
        if gn <= 1e-300:
            return best_v, best_x, True
        x = x - (step_a / (k + 10.0) / gn) * grad
        value, grad = oracle(x)
        if value < best_v:
            if value < best_v - 1e-9 * max(1.0, abs(best_v)):
                last_improve = k
            best_v, best_x = value, x
        if k - last_improve > _STALL_STEPS:
            return best_v, best_x, True
    return best_v, best_x, False


def _polyak_polish(oracle, start, best_v):
    """_POLISH_CALLS deflected subgradient steps with a Polyak-style length
    against a moving target below the best value seen, 1e-3 relative at
    first and divided by 4 every 200 steps down to 1e-13.

    The deflection (Camerini-Fratta-Maffioli: fold the previous direction in
    whenever it opposes the new subgradient) steers along narrow
    piecewise-linear valleys where raw subgradients zigzag; the shrinking
    target offset then recovers fast convergence to the floor."""
    x = best_x = start  # iterates are fresh arrays, never written in place
    delta = 1e-3 * max(1.0, abs(best_v))
    direction = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, _POLISH_CALLS + 1):
            value, grad = oracle(x)
            if not math.isfinite(value):
                x = best_x
                direction = None
                continue
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


def staged_subgradient(oracle: Callable[[np.ndarray], tuple[float, np.ndarray]],
                       start: np.ndarray, scale: float) -> SubgradientResult:
    """Minimize a convex objective, given as an oracle x -> (value,
    subgradient), by _STAGES subgradient runs (`_stage`) and a Polyak polish.

    Each run restarts from the best point found so far, its step scale that
    of the run before divided by 4, starting at `scale`; this recovers fast
    local convergence on the sharp minima typical of max-of-norms
    objectives.  Returns the best point evaluated; `converged` is the last
    run's.
    """
    best_v, best_x = None, np.asarray(start, dtype=float).copy()
    step_a = max(scale, 1e-12)
    for _ in range(_STAGES):
        value, point, converged = _stage(oracle, best_x, step_a)
        if best_v is None or value < best_v:
            best_v, best_x = value, point
        step_a /= 4.0
    best_v, best_x = _polyak_polish(oracle, best_x, best_v)
    return SubgradientResult(best_v, best_x, converged)
