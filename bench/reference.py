"""Seeded instances in centerlab's JSON wire format, and the independent
computations the benchmark checks the program's answers against.

Nothing here imports centerlab.  Norms are evaluated from the wire format
with their textbook formulas, center LPs are rebuilt from explicit generators
and solved with scipy's HiGHS, and the subgradient route is compared with the
smallest enclosing ball (Elzinga & Hearn 1972), Weiszfeld iteration for the
Fermat-Weber point (Kuhn 1973), Nelder-Mead on the benchmark's own r_f and a
triangle-inequality lower bound.
"""

from __future__ import annotations

import itertools

import numpy as np

# Agreement tolerances, relative to max(1, |radius|).  The LP route is exact
# up to the simplex tolerances.  The subgradient route carries no certificate;
# the program's own cross-check between the routes accepts 1e-4, and half of
# that is asked here.  At this writing the route usually lands within 1e-8,
# but one four-point Euclidean minimax instance in several hundred stops
# 4e-6 short.
TOL_EXACT = 1e-7
TOL_SUBGRADIENT = 5e-5
# Infeasibility margins below this are not taken as confirmed.
MIN_MARGIN = 1e-7

HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}


# ---------------------------------------------------------------------------
# seeded instances (wire format)

def _poly(rng, dim: int) -> dict:
    # half of a generator set: the constructor adds the negations
    return {"kind": "polyhedral",
            "generators": rng.normal(size=(dim + 2, dim)).tolist()}


def _leaf(rng, kind: str, dim: int) -> dict:
    if kind == "linf":
        return {"kind": "lp", "p": "inf", "dim": dim}
    if kind == "l1":
        return {"kind": "lp", "p": 1, "dim": dim}
    if kind == "l2":
        return {"kind": "lp", "p": 2, "dim": dim}
    if kind == "l25":
        return {"kind": "lp", "p": 2.5, "dim": dim}
    if kind == "poly":
        return _poly(rng, dim)
    raise ValueError(kind)


def _scalarization(rng, kind: str, n_points: int) -> dict:
    if kind == "max":
        return {"kind": "max"}
    weights = rng.uniform(0.5, 1.5, size=n_points).tolist()
    if kind == "power_sum":
        return {"kind": "power_sum", "p": 2.0, "weights": weights}
    return {"kind": kind, "weights": weights}


def _subspace(rng, dim: int, k: int) -> dict:
    return {"ambient_dim": dim, "basis": rng.normal(size=(k, dim)).tolist()}


def lp_center_instance(rng, i: int) -> dict:
    """The i-th LP-encodable center question.  Kind, dimension, point count,
    feasible set and scalarization cycle with i; the numbers come from rng."""
    kind = ("linf", "l1", "poly", "dsum-max", "dsum-sum")[i % 5]
    dim = 2 + (i // 5) % 5
    n_points = 2 + (i // 2) % 4
    if kind.startswith("dsum"):
        a = 1 + int(rng.integers(dim - 1))
        parts = [_leaf(rng, str(rng.choice(["linf", "l1", "poly"])), d)
                 for d in (a, dim - a)]
        comb = np.eye(2) if kind == "dsum-max" else np.ones((1, 2))
        space = {"kind": "direct_sum", "components": parts,
                 "pi": {"kind": "monotone_polyhedral",
                        "generators": comb.tolist()}}
    else:
        space = _leaf(rng, kind, dim)
    sub = _subspace(rng, dim, 1 + int(rng.integers(dim - 1))) \
        if (i // 3) % 2 else None
    f = _scalarization(rng, ("max", "weighted_max", "weighted_sum")[i % 3],
                       n_points)
    return {"schema": 1, "space": space, "subspace": sub,
            "points": rng.uniform(-2, 2, size=(n_points, dim)).tolist(),
            "f": f}


# (norm kind, dimension, points, scalarization, restricted to a subspace)
SUBGRADIENT_CYCLE = [
    ("l2", 2, 2, "max", False), ("l25", 3, 2, "weighted_max", True),
    ("poly", 2, 2, "power_sum", False), ("l2", 3, 3, "weighted_sum", False),
    ("l25", 2, 2, "max", False), ("l2", 3, 2, "max", False),
    ("poly", 3, 3, "power_sum", True), ("l2", 2, 3, "max", False),
    ("l25", 4, 2, "weighted_sum", False), ("esum", 3, 2, "max", False),
    ("l2", 4, 2, "max", False), ("poly", 4, 2, "power_sum", False),
    ("l25", 3, 3, "max", True), ("l2", 2, 4, "weighted_sum", False),
    ("l2", 3, 4, "max", False), ("poly", 2, 3, "power_sum", False),
    ("l25", 2, 3, "weighted_max", False), ("l2", 4, 3, "max", False),
    ("l2", 2, 2, "weighted_sum", False), ("l25", 4, 2, "max", False),
]


def subgradient_instance(rng, i: int) -> dict:
    """The i-th center question that takes the subgradient route."""
    kind, dim, n_points, f_kind, restricted = \
        SUBGRADIENT_CYCLE[i % len(SUBGRADIENT_CYCLE)]
    if kind == "esum":
        # the l2 part must have dimension >= 2, or the LP route is taken
        space = {"kind": "esum",
                 "components": [_leaf(rng, "l2", 2),
                                _leaf(rng, str(rng.choice(["l1", "linf"])),
                                      dim - 2)],
                 "e_norm": {"kind": "weighted_lp",
                            "p": [1, 2, "inf"][(i // 20) % 3],
                            "weights": rng.uniform(0.5, 2.0, 2).tolist()}}
    else:
        space = _leaf(rng, kind, dim)
    sub = _subspace(rng, dim, dim - 1) if restricted else None
    return {"schema": 1, "space": space, "subspace": sub,
            "points": rng.uniform(-2, 2, size=(n_points, dim)).tolist(),
            "f": _scalarization(rng, f_kind, n_points)}


def signed_permutation(rng, n: int) -> np.ndarray:
    return np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)


def central_counterexample_instance(rng) -> dict:
    """The sup-norm plane in R^3 with three balls that meet in the space but
    not in the plane, moved by a random isometry of the sup norm and scaled."""
    p = signed_permutation(rng, 3)
    s = float(rng.uniform(0.5, 2.0))
    centers = s * np.array([[-2.0, 1, 1], [1, 1, -2], [1, -2, 1]]) @ p.T
    plane = np.array([[1.0, 0, -1], [0, 1, -1]]) @ p.T
    return {"schema": 1, "space": {"kind": "lp", "p": "inf", "dim": 3},
            "subspace": {"ambient_dim": 3, "basis": plane.tolist()},
            "inject": [{"centers": centers.tolist(),
                        "radii": [1.5 * s] * 3}]}


def coordinate_subspace_instance(rng, dim: int, k: int) -> dict:
    """A k-dimensional coordinate subspace of the sup norm, moved by a random
    signed permutation.  It is the range of a norm-one projection, so it is
    central and has the three-ball property."""
    p = signed_permutation(rng, dim)
    return {"schema": 1, "space": {"kind": "lp", "p": "inf", "dim": dim},
            "subspace": {"ambient_dim": dim, "basis": p[:k].tolist()}}


def l1_summand_instance(rng, dims: tuple) -> dict:
    """First summand of a sum-combined direct sum of 1-norms: not an M-ideal,
    so the three-ball checker finds a failing triple."""
    n = sum(dims)
    basis = np.eye(n)[:dims[0]]
    return {"schema": 1,
            "space": {"kind": "direct_sum",
                      "components": [{"kind": "lp", "p": 1, "dim": d}
                                     for d in dims],
                      "pi": {"kind": "monotone_polyhedral",
                             "generators": [[1.0] * len(dims)]}},
            "subspace": {"ambient_dim": n, "basis": basis.tolist()}}


# ---------------------------------------------------------------------------
# norms from the wire format

def _p(value) -> float:
    return np.inf if value in ("inf", "Infinity") else float(value)


def norm_dim(spec: dict) -> int:
    kind = spec["kind"]
    if kind == "lp":
        return int(spec["dim"])
    if kind == "polyhedral":
        return len(spec["generators"][0])
    return sum(norm_dim(c) for c in spec["components"])


def _slices(spec: dict) -> list:
    out, pos = [], 0
    for comp in spec["components"]:
        d = norm_dim(comp)
        out.append(slice(pos, pos + d))
        pos += d
    return out


def _combine(comb: dict, u: np.ndarray) -> np.ndarray:
    """Outer norm of the rows of component norms u (nonnegative)."""
    if comb["kind"] == "monotone_polyhedral":
        return (u @ np.asarray(comb["generators"], dtype=float).T).max(axis=1)
    p, w = _p(comb["p"]), np.asarray(comb["weights"], dtype=float)
    if np.isinf(p):
        return (u * w).max(axis=1)
    return (u ** p @ w) ** (1.0 / p)


def norm_rows(spec: dict, ys: np.ndarray) -> np.ndarray:
    """Norms of the rows of ys."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    kind = spec["kind"]
    if kind == "lp":
        p = _p(spec["p"])
        if np.isinf(p):
            return np.abs(ys).max(axis=1)
        return (np.abs(ys) ** p).sum(axis=1) ** (1.0 / p)
    if kind == "polyhedral":
        return np.abs(ys @ np.asarray(spec["generators"], dtype=float).T).max(axis=1)
    u = np.column_stack([norm_rows(c, ys[:, sl])
                         for c, sl in zip(spec["components"], _slices(spec))])
    return _combine(spec.get("pi") or spec["e_norm"], u)


def f_weights(f: dict, n_points: int) -> np.ndarray:
    return np.asarray(f["weights"], dtype=float) if "weights" in f \
        else np.ones(n_points)


def r_f(inst: dict, v: np.ndarray) -> float:
    """The scalarized distance profile of v against the instance's points."""
    pts = np.asarray(inst["points"], dtype=float)
    t = norm_rows(inst["space"], np.asarray(v, dtype=float)[None, :] - pts)
    f = inst["f"]
    w = f_weights(f, len(pts))
    if f["kind"] in ("max", "weighted_max"):
        return float((w * t).max())
    if f["kind"] == "weighted_sum":
        return float(w @ t)
    if f["kind"] == "power_sum":
        return float(w @ t ** float(f["p"]))
    raise ValueError(f"no reference for scalarization {f['kind']!r}")


def subspace_basis(sub: dict | None, n: int) -> np.ndarray:
    """Columns spanning a wire-format subspace (None is the whole space)."""
    if sub is None:
        return np.eye(n)
    if "basis" in sub:
        return np.asarray(sub["basis"], dtype=float).reshape(-1, n).T
    kernel = np.asarray(sub["kernel"], dtype=float).reshape(-1, n)
    _, s, vt = np.linalg.svd(kernel)
    rank = int((s > 1e-12 * max(1.0, s.max(initial=0.0))).sum())
    return vt[rank:].T


def feasible_basis(inst: dict) -> np.ndarray:
    """Columns spanning the feasible set, as generated (not orthonormalized)."""
    return subspace_basis(inst.get("subspace"), len(inst["points"][0]))


def subspace_residual(basis: np.ndarray, v: np.ndarray) -> float:
    coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
    return float(np.abs(basis @ coef - v).max(initial=0.0))


# ---------------------------------------------------------------------------
# LPs built from explicit generators, solved by HiGHS

def _generators(spec: dict) -> np.ndarray:
    """Explicit generator rows of an LP-encodable leaf norm."""
    if spec["kind"] == "polyhedral":
        g = np.asarray(spec["generators"], dtype=float)
        return np.vstack([g, -g])
    n, p = int(spec["dim"]), _p(spec["p"])
    if np.isinf(p) or n == 1:
        return np.vstack([np.eye(n), -np.eye(n)])
    if p == 1:
        return np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
    raise ValueError(f"p = {p} norm has no LP epigraph")


class _Rows:
    """A growing system A z <= b over a growing list of free variables."""

    def __init__(self, n_vars: int):
        self.n = n_vars
        self.rows: list[tuple[dict, float]] = []

    def var(self) -> int:
        self.n += 1
        return self.n - 1

    def add(self, terms: dict, rhs: float) -> None:
        self.rows.append((terms, rhs))

    def norm_le(self, spec: dict, mat: np.ndarray, off: np.ndarray,
                bound: int) -> None:
        """||mat @ z[:k] - off|| <= z[bound]."""
        if spec["kind"] in ("lp", "polyhedral"):
            for g in _generators(spec):
                coef = g @ mat
                terms = {j: float(c) for j, c in enumerate(coef) if c != 0.0}
                terms[bound] = terms.get(bound, 0.0) - 1.0
                self.add(terms, float(g @ off))
            return
        comb = spec.get("pi") or spec["e_norm"]
        if comb["kind"] == "monotone_polyhedral":
            outer = np.asarray(comb["generators"], dtype=float)
        elif _p(comb["p"]) == 1:
            outer = np.asarray(comb["weights"], dtype=float)[None, :]
        elif np.isinf(_p(comb["p"])):
            outer = np.diag(np.asarray(comb["weights"], dtype=float))
        else:
            raise ValueError("weight norm has no LP epigraph")
        us = []
        for comp, sl in zip(spec["components"], _slices(spec)):
            us.append(self.var())
            self.norm_le(comp, mat[sl], off[sl], us[-1])
        for h in outer:
            terms = {u: float(c) for u, c in zip(us, h) if c != 0.0}
            terms[bound] = terms.get(bound, 0.0) - 1.0
            self.add(terms, 0.0)

    def minimize(self, objective: dict) -> float:
        """The least value of objective @ z over the system, by HiGHS."""
        from scipy.optimize import linprog
        a = np.zeros((len(self.rows), self.n))
        b = np.zeros(len(self.rows))
        for i, (terms, rhs) in enumerate(self.rows):
            for j, c in terms.items():
                a[i, j] = c
            b[i] = rhs
        c = np.zeros(self.n)
        for j, v in objective.items():
            c[j] = v
        res = linprog(c, A_ub=a, b_ub=b, bounds=(None, None), method="highs",
                      options=HIGHS_OPTIONS)
        if res.status != 0:
            raise RuntimeError(f"HiGHS: {res.message}")
        return float(res.fun)


def highs_center_radius(inst: dict) -> float:
    """The restricted radius of an LP-encodable center question."""
    pts = np.asarray(inst["points"], dtype=float)
    basis = feasible_basis(inst)
    f = inst["f"]
    w = f_weights(f, len(pts))
    lp = _Rows(basis.shape[1])
    ts = []
    for x in pts:
        ts.append(lp.var())
        lp.norm_le(inst["space"], basis, x, ts[-1])
    if f["kind"] in ("max", "weighted_max"):
        top = lp.var()
        for t, wi in zip(ts, w):
            lp.add({t: float(wi), top: -1.0}, 0.0)
        return lp.minimize({top: 1.0})
    if f["kind"] == "weighted_sum":
        return lp.minimize({t: float(wi) for t, wi in zip(ts, w)})
    raise ValueError(f"scalarization {f['kind']!r} is not linear")


def highs_ball_margin(space: dict, sub: dict | None, family: dict) -> float:
    """min over v in the subspace of max_i (||v - c_i|| - r_i).  A positive
    value is the margin by which the balls miss the subspace."""
    centers = np.asarray(family["centers"], dtype=float)
    basis = subspace_basis(sub, centers.shape[1])
    lp = _Rows(basis.shape[1])
    gap = lp.var()
    for c, r in zip(centers, family["radii"]):
        t = lp.var()
        lp.norm_le(space, basis, c, t)
        lp.add({t: 1.0, gap: -1.0}, float(r))
    return lp.minimize({gap: 1.0})


# ---------------------------------------------------------------------------
# references for the subgradient route

def smallest_enclosing_ball(pts: np.ndarray) -> float:
    """Euclidean minimax radius: the smallest ball through 2..n+1 of the
    points (pair midpoints, triple circumcentres, ...) that holds them all."""
    n_pts, dim = pts.shape
    best = np.inf
    for size in range(2, min(n_pts, dim + 1) + 1):
        for subset in itertools.combinations(range(n_pts), size):
            base = pts[subset[0]]
            a = pts[list(subset[1:])] - base
            gram = a @ a.T
            if np.linalg.matrix_rank(gram) < size - 1:
                continue
            lam = np.linalg.solve(2.0 * gram, (a * a).sum(axis=1))
            center = base + lam @ a
            r = float(np.linalg.norm(center - base))
            if (np.linalg.norm(pts - center, axis=1) <= r * (1 + 1e-12)).all():
                best = min(best, r)
    return best


def weiszfeld(pts: np.ndarray, w: np.ndarray, iters: int = 20000) -> float:
    """Weighted Fermat-Weber value (Euclidean), with Kuhn's test for an
    optimal data point."""
    for j, x in enumerate(pts):
        d = pts - x
        nd = np.linalg.norm(d, axis=1)
        mask = nd > 0
        pull = (w[mask, None] * d[mask] / nd[mask, None]).sum(axis=0)
        if np.linalg.norm(pull) <= w[j]:
            return float(w @ nd)
    v = (w @ pts) / w.sum()
    for _ in range(iters):
        coef = w / np.linalg.norm(pts - v, axis=1)
        nxt = (coef @ pts) / coef.sum()
        settled = np.linalg.norm(nxt - v) <= 1e-15 * max(1.0, np.linalg.norm(v))
        v = nxt
        if settled:
            break
    return float(w @ np.linalg.norm(pts - v, axis=1))


def nelder_mead_radius(inst: dict) -> float:
    """Numerical minimum of the benchmark's own r_f over the feasible set."""
    from scipy.optimize import minimize
    basis = feasible_basis(inst)
    pts = np.asarray(inst["points"], dtype=float)
    start, *_ = np.linalg.lstsq(basis, pts.mean(axis=0), rcond=None)

    def fun(alpha):
        return r_f(inst, basis @ alpha)

    best = fun(start)
    x = start
    for _ in range(4):
        res = minimize(fun, x, method="Nelder-Mead",
                       options={"xatol": 1e-11, "fatol": 1e-13,
                                "maxiter": 20000, "maxfev": 20000})
        if res.fun < best:
            best, x = float(res.fun), res.x
    return best


def triangle_lower_bound(inst: dict) -> float:
    """A lower bound on the radius from ||v - x_i|| + ||v - x_j|| >=
    ||x_i - x_j||, valid over any feasible set."""
    pts = np.asarray(inst["points"], dtype=float)
    f = inst["f"]
    w = f_weights(f, len(pts))
    best = 0.0
    for i, j in itertools.combinations(range(len(pts)), 2):
        d = float(norm_rows(inst["space"], pts[i] - pts[j])[0])
        wi, wj = w[i], w[j]
        if f["kind"] in ("max", "weighted_max"):
            bound = d * wi * wj / (wi + wj)
        elif f["kind"] == "weighted_sum":
            bound = d * min(wi, wj)
        else:  # power sum: least of wi t^p + wj (d - t)^p
            p = float(f["p"])
            bound = d ** p * (wi ** (1 / (1 - p)) + wj ** (1 / (1 - p))) ** (1 - p)
        best = max(best, bound)
    return best
