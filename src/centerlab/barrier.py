"""A damped-Newton log-barrier solver for the conic epigraph models of
restricted centers, the non-LP route of `centers.solve_center`, which
distances and non-polyhedral ball searches reach as restricted centers.

A model is a `LinearProgram` (rows and a linear objective, from the norms'
`epigraph` and the scalarization's `lp_objective`) with the p-norm cones
that `LpBuilder.add_cone` records for the smooth parts.  `barrier_solve`
returns a point, r_f there and a lower bound on the optimum from a dual
point built from the barrier multipliers, so every answer is bracketed.
`centers` imports this module when a solve first needs it, which keeps its
compilation out of the set-up of programs that only solve LPs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .optim import LinearProgram


# the relative gap at which a barrier bracket closes, half the 1e-12 that
# `centers.BarrierCertificate` promises, which leaves room for mapping the
# bracket back to the caller's units; a Newton decrement
# below _CENTERED ends a centring, and a predictor step then takes the first
# of _PREDICT that leaves every slack at least _KEEP of what a straight
# central path would; the Newton steps on the optimality conditions that
# tighten the bracket number at most _SQP_STEPS
_GAP_TOL, _NEWTON_STEPS = 5e-13, 400
_CENTERED, _PREDICT, _KEEP, _SQP_STEPS = 0.25, (0.999, 0.99, 0.9, 0.5), 0.1, 4


class _Cones:
    """Constraints y_k = q[k] @ z + off[k] in a cone, each taken by the
    barrier -sum_r log s_r(y_k) over slacks s_r, concave and of degree one in
    y: "rows" (y >= 0, the slack y), "soc" (T >= |u| with `param` j = -1 on
    u, 1 on T and 0 on padding; the slacks T - |u|^2 / T and T, whose
    barrier is -log(T^2 - |u|^2)) or "power" (x^a v^(1-a) >= |w| for y =
    (x, v, w) with `param` a; for g = x^a v^(1-a) the slacks g - w^2 / g,
    x and v, whose barrier is Chares's -log(x^2a v^(2-2a) - w^2) - (1-a)
    log x - a log v)."""

    def __init__(self, kind, q, off, param=None):
        self.kind, self.q, self.off, self.param = kind, q, off, param
        self.flat = q.reshape(-1, q.shape[2])
        self.flat_abs = np.abs(self.flat)
        if kind == "soc":
            self.e_t = (param > 0) * 1.0
            self.bent = np.eye(q.shape[1]) * (param < 0)[:, None, :]

    def terms(self, y, strict=True):
        """(slacks (K, r), their gradients in y (K, r, m), the Hessian in y
        of each constraint's first slack, the others being linear, None for
        rows), or None outside the interior; not `strict`, the slacks may be
        zero or negative, as long as T, x and v stay positive."""
        if self.kind == "rows":
            return None if strict and not (y > 0).all() else (y, np.ones(y.shape + (1,)), None)
        if self.kind == "soc":
            e_t, u = self.e_t, (self.param < 0) * y
            t, r = (e_t * y).sum(1, keepdims=True), (u * u).sum(1, keepdims=True)
            if not (t > 0).all() or strict and not (t * t > r).all():
                return None
            outer = (u / t)[:, :, None] * e_t[:, None, :]
            hess = (self.bent - outer - outer.transpose(0, 2, 1)
                    + (e_t * r / t ** 2)[:, :, None] * e_t[:, None, :]) * (-2 / t)[:, :, None]
            return np.hstack([t - r / t, t]), np.stack([e_t * (1 + r / t ** 2) - 2 * u / t, e_t], 1), hess
        a, (x, v, w) = self.param, y.T
        if not ((x > 0) & (v > 0)).all():
            return None
        g = x ** a * v ** (1 - a)
        h, ell = w / g, np.column_stack([a / x, (1 - a) / v, 0 * x])
        if strict and not (h * h < 1).all():
            return None
        grads = np.zeros((len(a), 3, 3))
        grads[:, 0], grads[:, 0, 2] = (g * (1 + h * h))[:, None] * ell, -2 * h
        grads[:, 1, 0] = grads[:, 2, 1] = 1.0
        hess = (g * (1 - h * h))[:, None, None] * ell[:, :, None] * ell[:, None, :]
        hess[:, 0, 0] -= g * (1 + h * h) * a / x ** 2
        hess[:, 1, 1] -= g * (1 + h * h) * (1 - a) / v ** 2
        hess[:, :2, 2] = hess[:, 2, :2] = 2 * h[:, None] * ell[:, :2]
        hess[:, 2, 2] = -2 / g
        return np.column_stack([g * (1 - h * h), x, v]), grads, hess

    def into_dual(self, yh):
        """yh raised into the dual cone where it falls short, with a relative
        margin of 1e-15: y >= 0; T >= |u|; v >= (1-a) (|w| / (u/a)^a)^(1/(1-a))
        with u, v >= 0, which is (u/a)^a (v/(1-a))^(1-a) >= |w|; None where
        that is not finite."""
        if self.kind == "rows":
            return np.maximum(yh, 0.0)
        j, yh = self.param, yh.copy()
        if self.kind == "soc":
            norm = np.sqrt(((j < 0) * yh * yh).sum(1, keepdims=True))
            return np.where(j > 0, np.maximum(yh, norm * (1 + 1e-15)), yh)
        yh[:, :2] = np.maximum(yh[:, :2], 0.0)
        u, w = yh[:, 0], np.abs(yh[:, 2]) * (1 + 1e-15)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            yh[:, 1] = np.maximum(yh[:, 1], np.where(
                w > 0, (1 - j) * (w / (u / j) ** j) ** (1 / (1 - j)), 0.0))
        return yh if np.isfinite(yh).all() else None


def _lifted(lp: LinearProgram, cones: list, power) -> tuple:
    """(objective, constraint families, variable count) of the conic model:
    lp's rows; each 2-norm cone as a second-order cone; any other p-norm
    cone ||y||_p <= T lifted to power cones r_j^(1/p) T^(1-1/p) >= |y_j|
    over new variables r_j with a row sum_j r_j <= T (Chares, PhD thesis,
    UCLouvain 2009); and for power = (cols, w, q), new variables e_i with
    weights w_i in the objective and power cones e_i^(1/q) >= |z[cols_i]|."""
    n0, rows = lp.n_vars, len(lp.b_ub)
    lifted = [len(off) for p, _, _, off, _ in cones if p != 2.0]
    extra = 0 if power is None else len(power[0])
    n = n0 + sum(lifted) + extra
    a, b, c = np.zeros((rows + len(lifted), n)), np.zeros(rows + len(lifted)), np.zeros(n)
    a[:rows, :n0], b[:rows], c[:n0] = lp.a_ub, lp.b_ub, lp.objective
    width = 1 + max([len(off) for p, _, _, off, _ in cones if p == 2.0], default=0)
    soc, pw, at, row = [], [], n0, rows
    for p, cols, mat, off, bound in cones:
        k = len(off)
        y = np.zeros((width if p == 2.0 else k + 1, n))
        y[:k, cols], y[k, bound] = mat, 1.0
        if p == 2.0:
            soc.append((y[None], np.pad(off, (0, width - k))[None],
                        np.r_[-np.ones(k), 1.0, np.zeros(width - k - 1)][None]))
            continue
        lift, q = np.arange(at, at + k), np.zeros((k, 3, n))
        a[row, lift], a[row, bound] = 1.0, -1.0
        q[np.arange(k), 0, lift], q[:, 1, bound], q[:, 2] = 1.0, 1.0, y[:k]
        pw.append((q, np.column_stack([np.zeros((k, 2)), off]), np.full(k, 1.0 / p)))
        at, row = at + k, row + 1
    if power is not None:
        cols, w, e = power
        q, lift = np.zeros((extra, 3, n)), np.arange(at, n)
        q[np.arange(extra), 0, lift], q[np.arange(extra), 2, cols], c[lift] = 1.0, 1.0, w
        pw.append((q, np.outer(np.ones(extra), [0.0, 1.0, 0.0]), np.full(extra, 1.0 / e)))
    return c, [_Cones("rows", -a[:, None], b[:, None])] * bool(len(a)) + [
        _Cones(kind, *(np.concatenate(part) for part in zip(*fam)))
        for kind, fam in (("soc", soc), ("power", pw)) if fam], n


def _interior(lp: LinearProgram, cones: list, power, alpha: np.ndarray,
              n: int) -> np.ndarray:
    """A strictly interior point of `_lifted`'s model: alpha, then every
    bound raised, row by row and cone by cone, until each holds by 1 (a
    row's bound is its one coefficient -1 past alpha); each lifted
    cone's r_j between its entries' shares of T and an equal split of the
    rest; each e_i one above z[cols_i]^q."""
    d, n0 = len(alpha), lp.n_vars
    z, bound_of = np.zeros(n), d + lp.a_ub[:, d:].argmin(1)
    z[:d] = alpha
    for _ in range(len(lp.b_ub) + len(cones) + 1):
        raise_by = np.zeros(n)
        np.maximum.at(raise_by, bound_of, 1.0 - lp.b_ub + lp.a_ub @ z[:n0])
        for p, cols, mat, off, bound in cones:
            norm = (np.abs(mat @ z[cols] + off) ** p).sum() ** (1.0 / p)
            raise_by[bound] = max(raise_by[bound], norm + 1.0 - z[bound])
        if not (raise_by > 0).any():
            break
        z += np.maximum(raise_by, 0.0)
    at = n0
    for p, cols, mat, off, bound in cones:
        if p != 2.0:
            share = (np.abs(mat @ z[cols] + off) / z[bound]) ** p
            z[at:at + len(off)] = z[bound] * (share + (1 - share.sum()) / (len(off) + 1))
            at += len(off)
    if power is not None:
        z[at:] = z[power[0]] ** power[2] + 1.0
    return z


def barrier_solve(lp: LinearProgram, cones: list, alpha: np.ndarray, value: Callable,
                  power: tuple | None = None, floor: float = 1.0
                  ) -> tuple[np.ndarray, float, float, int]:
    """Minimize lp.objective @ z, plus sum_i w_i z[cols_i]^q for power =
    (cols, w, q), over lp's rows and the cones (p, cols, mat, off, bound),
    ||mat @ z[cols] + off||_p <= z[bound], of an epigraph model whose first
    len(alpha) variables alpha are free, whose other variables are bounds
    and each of whose rows holds one bound with coefficient -1; the
    optimum is `value` at some alpha.  Returns (alpha, value there, a lower
    bound on the optimum, Newton steps).

    The model is lifted to a linear objective over rows, second-order and
    power cones (`_lifted`) and solved from `_interior` by damped Newton
    steps on tau * objective - sum log s over the slacks s.  Each step
    solves the augmented system [C, G^T; G, -S^2] [dz; w] = [-grad; 0], G
    the slacks' gradients and C the rest of the Hessian, which stays well
    conditioned as slacks vanish; it is equilibrated and refined once.  A
    step is cut to keep each slack, linearised, above 5 % of itself, then
    halved until the point is interior and the Armijo test holds.  Once the
    Newton decrement is below _CENTERED, a predictor step follows the
    central path's tangent in 1/tau and tau grows to match, no further than
    where the path's gap, m / tau for m slacks, is a quarter of the
    tolerance.

    At every step whose decrement is below 1 the bracket is tightened:
    - the lower bound is the Lagrangian at a dual point y in the dual cone:
      at z, (1 / s - w) / tau gives each slack's multiplier and y = -(grad
      + hess q dz) / tau; at the end of up to _SQP_STEPS Newton steps on
      the optimality conditions of the slacks whose multipliers exceed them
      (stationarity, and those slacks zero), least-norm where they leave
      variables free, y = sum mult grad(s).  Both are raised into
      the dual cone where rounding leaves them short.  The Lagrangian c @ z
      - y @ (q z + off) is a Kuhn bound once the residual rho = c - q^T y is
      at rounding level (checked: each entry within 1e-9 of the largest
      |c| + |q|^T |y|), up to rho times the distance from that point to the
      optimum;
    - the upper bound is `value` at alpha of z and of those Newton steps.
    The solve stops when the bracket closes to _GAP_TOL * max(floor,
    |upper|), or after _NEWTON_STEPS steps, or when a step fails."""
    d, upper, point = len(alpha), np.inf, alpha
    c, families, n = _lifted(lp, cones, power)
    z = _interior(lp, cones, power, alpha, n)

    def slopes(terms):
        return np.concatenate([(t[1] @ fam.q).reshape(-1, n) for fam, t in zip(families, terms)])

    def bend(terms, weights):
        """sum_k weights_k hess(s_k) in z, one weight per slack."""
        total, at = np.zeros((n, n)), 0
        for fam, (s, _, hess) in zip(families, terms):
            if hess is not None:
                scaled = weights[at:at + s.size:s.shape[1]][:, None, None] * hess
                total = total + fam.flat.T @ (scaled @ fam.q).reshape(-1, n)
            at += s.size
        return total

    def state(z):
        """(barrier, slacks, its gradient, C, G, the families' terms), or
        None outside the interior."""
        terms = [fam.terms(fam.q @ z + fam.off) for fam in families]
        if any(t is None for t in terms):
            return None
        slack, grads = np.concatenate([t[0].ravel() for t in terms]), slopes(terms)
        return -np.log(slack).sum(), slack, -(1 / slack) @ grads, -bend(terms, 1 / slack), grads, terms

    def dual(z, terms, mult, dz=None, tau=1.0):
        lower, rho, size, at = 0.0, c.copy(), np.abs(c), 0
        for fam, (s, dy, hess) in zip(families, terms):
            yh = (mult[at:at + s.size].reshape(s.shape)[:, None, :] @ dy)[:, 0]
            at += s.size
            if hess is not None and dz is not None:
                yh += (hess @ (fam.q @ dz)[..., None])[..., 0] / (tau * s[:, :1])
            yh = fam.into_dual(yh)
            if yh is None:
                return -np.inf
            lower -= yh.ravel() @ fam.off.ravel()
            rho -= fam.flat.T @ yh.ravel()
            size += fam.flat_abs.T @ np.abs(yh).ravel()
        lower += rho @ z
        return lower if np.isfinite(lower) and (np.abs(rho) <= 1e-9 * size.max()).all() else -np.inf

    st = state(z)
    if st is None:
        raise ValueError("barrier start is not interior")
    m, best = len(st[1]), -np.inf
    tau = m / max(1.0, abs(c @ z))
    kkt, rhs, diag = np.zeros((n + m, n + m)), np.zeros((n + m, 2)), np.arange(n, n + m)
    for steps in range(1, _NEWTON_STEPS + 1):
        grad = st[2] + tau * c
        kkt[:n, :n], kkt[:n, n:], kkt[n:, :n], kkt[diag, diag] = st[3], st[4].T, st[4], -st[1] ** 2
        rhs[:n, 0], rhs[:n, 1] = -grad, -tau * c
        eq = 1 / np.sqrt(np.abs(kkt).max(1))
        scaled = kkt * eq[:, None] * eq
        sol = eq[:, None] * np.linalg.solve(scaled, eq[:, None] * rhs)
        sol += eq[:, None] * np.linalg.solve(scaled, eq[:, None] * (rhs - kkt @ sol))
        dz, w = sol[:n, 0], sol[n:, 0]
        decrement = -grad @ dz
        if decrement < 0:
            break
        if decrement < 1:
            mult = (1 / st[1] - w) / tau
            best, cands = max(best, dual(z, st[5], mult, dz, tau)), [z[:d]]
            active = mult > st[1]
            proj, terms, k = z, st[5], active.sum()
            mult = np.where(active, mult, 0.0)
            for _ in range(_SQP_STEPS * bool(k)):
                grads = slopes(terms)[active]
                slack = np.concatenate([t[0].ravel() for t in terms])[active]
                # least norm: a variable that no active slack holds stays put
                sqp = np.zeros((n + k, n + k))
                sqp[:n, :n], sqp[:n, n:], sqp[n:, :n] = -bend(terms, mult), -grads.T, grads
                step = np.linalg.lstsq(sqp, np.concatenate([grads.T @ mult[active] - c, -slack]),
                                       rcond=None)[0]
                proj, mult[active] = proj + step[:n], mult[active] + step[n:]
                terms = [fam.terms(fam.q @ proj + fam.off, strict=False) for fam in families]
                if any(t is None for t in terms) or not np.abs(step).max() > 1e-15:
                    break
            if k:
                cands.append(proj[:d])
            if k and all(t is not None for t in terms):
                best = max(best, dual(proj, terms, np.maximum(mult, 0.0)))
            for cand in cands:
                top = value(cand)
                if top < upper:
                    upper, point = top, cand
            if upper - best <= _GAP_TOL * max(floor, abs(upper)):
                break
        if decrement < _CENTERED:
            limit = max(1 - 0.25 * tau * _GAP_TOL * max(floor, abs(upper)) / m, 0.5)
            for theta in np.minimum(_PREDICT, limit):
                cand = state(z + theta * sol[:n, 1])
                if cand is not None and (cand[1] >= _KEEP * (1 - theta) * st[1]).all():
                    z, st, tau = z + theta * sol[:n, 1], cand, tau / (1 - theta)
                    break
            else:
                tau *= 2.0
            continue
        length = min(1.0, 0.95 / max((-w * st[1]).max(initial=0.0), 1e-300))
        while length > 1e-12:
            cand = state(z + length * dz)
            if cand is not None and cand[0] - st[0] + tau * length * (c @ dz) <= -0.25 * length * decrement:
                break
            length /= 2
        else:
            break
        z, st = z + length * dz, cand
    return point, float(upper), float(best), steps
