"""Independent brute-force oracles used to cross-check solver results.

These deliberately avoid the library's optimization paths: plain grid
refinement and numpy rank computations only.
"""

import itertools
import math

import numpy as np


def grid_minimize(fun, center, halfwidth, steps=11, refinements=6):
    """Minimize `fun` over a box by repeated grid refinement.

    Good to ~halfwidth * (2/ (steps-1)) ** refinements in position, which is
    plenty for the 1e-3 value comparisons in the tests (dims <= 3).
    """
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    best_v = fun(center)
    best_x = center.copy()
    width = float(halfwidth)
    for _ in range(refinements):
        axes = [np.linspace(best_x[i] - width, best_x[i] + width, steps)
                for i in range(d)]
        for point in itertools.product(*axes):
            x = np.array(point)
            v = fun(x)
            if v < best_v:
                best_v = v
                best_x = x
        width *= 2.5 / (steps - 1)
    return best_v, best_x


def svd_rank(rows, tol=1e-9):
    rows = np.asarray(rows, dtype=float)
    if rows.size == 0:
        return 0
    return int(np.linalg.matrix_rank(rows, tol=tol))


# ---------------------------------------------------------------------------
# the per-variant scalar norm evaluation and subgradient selection, one
# vector at a time, as a reference for the norm classes

def _ladder_weight_norm(wnorm, t):
    from centerlab.norms import MonotonePolyhedralNorm
    if isinstance(wnorm, MonotonePolyhedralNorm):
        return float((wnorm.generators @ t).max())
    if np.isinf(wnorm.p):
        return float((wnorm.weights * np.abs(t)).max())
    return float((wnorm.weights @ np.abs(t) ** wnorm.p) ** (1.0 / wnorm.p))


def _ladder_weight_subgradient(wnorm, t):
    from centerlab.norms import MonotonePolyhedralNorm
    if isinstance(wnorm, MonotonePolyhedralNorm):
        return wnorm.generators[int(np.argmax(wnorm.generators @ t))].copy()
    if np.isinf(wnorm.p):
        j = int(np.argmax(wnorm.weights * t))
        g = np.zeros_like(t)
        g[j] = wnorm.weights[j]
        return g
    val = _ladder_weight_norm(wnorm, t)
    if val <= 0:
        return np.zeros_like(t)
    return wnorm.weights * t ** (wnorm.p - 1.0) * val ** (1.0 - wnorm.p)


def _slices(space):
    from centerlab.norms import space_dim
    out, pos = [], 0
    for comp in space.components:
        out.append(slice(pos, pos + space_dim(comp)))
        pos += space_dim(comp)
    return out


def ladder_norm(space, x):
    from centerlab.norms import LpNorm, PolyhedralNorm
    x = np.asarray(x, dtype=float)
    if isinstance(space, PolyhedralNorm):
        return float((space.generators @ x).max())
    if isinstance(space, LpNorm):
        if np.isinf(space.p):
            return float(np.abs(x).max(initial=0.0))
        if space.p == 1:
            return float(np.abs(x).sum())
        return float((np.abs(x) ** space.p).sum() ** (1.0 / space.p))
    t = np.array([ladder_norm(c, x[sl])
                  for c, sl in zip(space.components, _slices(space))])
    return _ladder_weight_norm(space.combiner, t)


def ladder_subgradient(space, x):
    from centerlab.norms import LpNorm, PolyhedralNorm
    x = np.asarray(x, dtype=float)
    if isinstance(space, PolyhedralNorm):
        return space.generators[int(np.argmax(space.generators @ x))].copy()
    if isinstance(space, LpNorm):
        if np.isinf(space.p):
            j = int(np.argmax(np.abs(x)))
            g = np.zeros_like(x)
            g[j] = np.sign(x[j]) if x[j] != 0 else 0.0
            return g
        if space.p == 1:
            return np.sign(x)
        nrm = ladder_norm(space, x)
        if nrm == 0:
            return np.zeros_like(x)
        return np.sign(x) * np.abs(x) ** (space.p - 1.0) * nrm ** (1.0 - space.p)
    slices = _slices(space)
    t = np.array([ladder_norm(c, x[sl]) for c, sl in zip(space.components, slices)])
    h = _ladder_weight_subgradient(space.combiner, t)
    g = np.zeros_like(x)
    for i, (c, sl) in enumerate(zip(space.components, slices)):
        if h[i] != 0:
            g[sl] = h[i] * ladder_subgradient(c, x[sl])
    return g


# ---------------------------------------------------------------------------
# the pairwise np.allclose loops that once symmetrized and checked polyhedral
# generator sets, as a reference for their vectorized replacement

def symmetrized_by_loop(gens):
    """The rows `polyhedral` keeps, and whether it added any negations."""
    rows = [gens[i] for i in range(gens.shape[0])]
    added = []
    for g in rows:
        if not any(np.allclose(-g, h, atol=1e-12) for h in rows + added):
            added.append(-g)
    return (np.vstack(rows + added) if added else gens), bool(added)


def first_asymmetric_by_loop(gens):
    """The first generator whose negation no generator matches, or None."""
    for i in range(gens.shape[0]):
        if not any(np.allclose(-gens[i], gens[j], atol=1e-12)
                   for j in range(gens.shape[0])):
            return gens[i]
    return None


# ---------------------------------------------------------------------------
# vertex enumeration one row subset at a time, and the annihilator's dual
# vertices from the generators, as a reference for the batched basis solves

def vertices_by_loop(a_ub, b_ub, cap=2_000_000):
    """All vertices of {u : a_ub u <= b_ub}, one `np.linalg.solve` per row
    subset, one per 7-digit rounding (the first found), in sorted order;
    None past `cap` subsets."""
    from centerlab.optim import FEAS_TOL
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    m, d = a_ub.shape
    if math.comb(m, d) > cap:
        return None
    scale = np.maximum(1.0, np.abs(b_ub))
    found = {}
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


def annihilator_vertices_by_svd_screen(gens, basis):
    """The vertices of {phi : B^T phi = 0, max_i |phi . g_i|* <= 1} for a
    symmetric generator set G: zero, and G^T mu for the basic solutions mu
    >= 0 of (G B)^T mu = 0, sum(mu) = 1 on supports of k + 1 generators
    whose matrix passes the 1e-10 singular-value screen."""
    m, k = gens.shape[0], basis.shape[1]
    eqs = np.vstack([(gens @ basis).T, np.ones(m)])
    supports = np.array(list(itertools.combinations(range(m), k + 1)))
    mats = eqs[:, supports].transpose(1, 0, 2)
    sv = np.linalg.svd(mats, compute_uv=False)
    regular = sv[:, -1] > 1e-10 * sv[:, 0]
    supports, mats = supports[regular], mats[regular]
    rhs = np.zeros((k + 1, 1))
    rhs[-1] = 1.0
    mu = np.linalg.solve(mats, rhs)[:, :, 0]
    feasible = mu.min(axis=1, initial=0.0) >= -1e-12
    mu, supports = np.maximum(mu[feasible], 0.0), supports[feasible]
    phis = np.einsum("sj,sjn->sn", mu, gens[supports])
    phis -= (phis @ basis) @ basis.T
    return np.vstack([np.zeros(gens.shape[1]), phis])


def sublevel_rows_by_loop(gens, basis, points, weights, level):
    """The rows w_i g S <= level + w_i g x_i of the sublevel set
    {u : max_i w_i ||S u - x_i|| <= level} of a generator norm, one point
    and one generator at a time."""
    rows, rhs = [], []
    for x, w in zip(points, weights):
        for g in gens:
            rows.append(w * (g @ basis))
            rhs.append(level + w * float(g @ x))
    return np.array(rows), np.array(rhs)


# ---------------------------------------------------------------------------
# the checkers' trial-by-trial search, every trial decided by its own
# `balls_intersect` of its family padded by repeated balls, as an
# independent reference for the checkers, which solve each family unpadded

def central_trials(space, sub, trials, seed):
    """The (centers, radii, point) of `central_subspace_check`'s trials
    (witnesses in the whole space), drawn one trial at a time with its
    random calls in its order; the point is the projection of the witness
    onto `sub`."""
    from centerlab.norms import eval_norm_many, space_dim
    n = space_dim(space)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        k = int(rng.integers(2, 5))
        w = np.eye(n) @ rng.normal(size=n) * 1.5
        centers = (sub.basis @ rng.normal(size=(sub.dim, k)) * 1.5).T
        radii = eval_norm_many(space, w[None, :] - centers) * \
            (1.0 + rng.uniform(0.0, 0.2, size=k))
        yield centers, radii, sub.project_euclid(w)


def three_ball_trials(space, z, trials, eps, seed):
    """The (centers, enlarged radii, point) of `mideal_three_ball_check`'s
    trials, drawn one trial at a time with its random calls in its order;
    the point is the projection of the joint point onto `z`."""
    from centerlab.norms import dist_to_subspace_many, eval_norm_many, space_dim
    n = space_dim(space)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        w = rng.normal(size=n) * 1.5
        centers = rng.normal(size=(3, n)) * 1.5
        joint = eval_norm_many(space, w[None, :] - centers)
        meet = dist_to_subspace_many(space, centers, z)
        tight = rng.random(size=3) < 0.5
        infl = 1.0 + rng.uniform(0.0, 0.1, size=3) * (~tight)
        yield centers, np.maximum(joint, meet) * infl + eps, z.project_euclid(w)


def ball_lp_by_rows(space, basis, centers, radii, fold=True):
    """The ball LP of `balls_intersect`, rebuilt row by row: per ball, the
    epigraph rows of ||basis @ alpha - c_i|| <= t_i over columns alpha, t
    and the norm's auxiliaries, then the row t_i <= r_i.  Folded, t_i = r_i
    is moved into b one row at a time (b_j - a_j,t_i r_i on the one t
    column where a row has a nonzero coefficient), the t_i <= r_i rows and
    the t columns are dropped, and the unknowns are alpha and the
    auxiliaries."""
    from centerlab import norms, optim
    builder = optim.LpBuilder()
    alphas = builder.new_vars(basis.shape[1])
    tvars = builder.new_vars(len(radii))
    for center, radius, tv in zip(centers, radii, tvars):
        norms.add_norm_epigraph(builder, space, alphas, basis, -center, tv)
        builder.add_ub([tv], [[1.0]], [radius])
    lp = builder.build()
    if not fold:
        return lp
    others = [j for j in range(lp.n_vars) if j not in tvars]
    rows, b = [], []
    for a_j, b_j in zip(lp.a_ub, lp.b_ub):
        if (a_j[list(tvars)] > 0).any():
            continue  # t_i <= r_i; every epigraph row has a_j,t_i <= 0
        b_j = float(b_j)
        for i, tv in enumerate(tvars):
            if a_j[tv] != 0.0:
                b_j = b_j - a_j[tv] * radii[i]
        rows.append(a_j[others])
        b.append(b_j)
    return optim.LinearProgram(lp.objective[others], np.array(rows), np.array(b))


def search_by_trials(space, sub, families, size):
    """Decide each family (centers, radii) in turn by `balls_intersect` in
    `sub`, padded to `size` balls by repeating its own under a polyhedral
    norm, which leaves the set where they meet as it is but not the LP,
    and stop at the first that is not feasible: (trials run, (centers, radii) of that family or None,
    its result or None)."""
    from centerlab.geometry import FEASIBLE, BallFamily, balls_intersect
    from centerlab.norms import is_lp_encodable
    run = 0
    for centers, radii, *_ in families:
        run += 1
        pad = np.arange(size) % len(radii) if is_lp_encodable(space) else slice(None)
        res = balls_intersect(space, BallFamily(centers[pad], radii[pad]), sub)
        if res.status != FEASIBLE:
            return run, (centers, radii), res
    return run, None, None


def verdict_by_trials(kind, space, sub, trials, seed):
    """The (passed, decided, trials run, note, failing family) that
    `central_subspace_check(space, sub, trials, seed)` (kind "central") or
    `mideal_three_ball_check(space, sub, trials, 1e-6, seed)` (kind
    "mideal") should give, from `search_by_trials` of its trials."""
    from centerlab.geometry import INFEASIBLE
    if kind == "central":
        run, fam, res = search_by_trials(space, sub, central_trials(
            space, sub, trials, seed), 4)
    else:
        run, fam, res = search_by_trials(space, sub, three_ball_trials(
            space, sub, trials, 1e-6, seed), 3)
    if fam is None:
        return True, "sampled", run, f"no counterexample found in {trials} trials", None
    if kind == "mideal":
        note = "enlarged triple misses the subspace"
    elif res.status == INFEASIBLE:
        note = "counterexample with Farkas certificate"
    else:
        note = "candidate counterexample (semi-decided norm)"
    decided = "exact" if res.status == INFEASIBLE else "unresolved"
    return False, decided, run, note, fam


# ---------------------------------------------------------------------------
# the simplex read-out of a stack of tableaus, one LP a row, as a reference
# for the arithmetic of `optim._tight_point` and `optim._farkas_vector`: a
# tableau `dual` is passed as `held` and as the stack of one
# (dual.t[None], dual.basis[None], ...)

def tight_points_by_stack(held, t, basis, costs, scale):
    """The primal point that each basis of a stack holds tight, for
    tableaus with the rows of `held` and these bases, costs and scales:
    a_j x = b_j for each basic dual column j, and x_i = 0 for each
    artificial left basic in row i; not finite where that system is
    numerically singular.

    The system is the transposed basis with its rows unflipped, solved
    afresh from the scaled rows, then given one step of iterative
    refinement: the residual of the caller's rows, scaled, mapped through
    the basis inverse that the artificial columns carry."""
    rows = held.columns[:, basis].transpose(1, 2, 0) * held.tau
    at = np.arange(len(basis))[:, None]
    s, c = scale[at, basis], costs[at, basis]
    lhs, rhs = rows / s[..., None], (c / s)[..., None]
    try:
        x = np.linalg.solve(lhs, rhs)[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(c.shape, np.nan)
        for i in range(len(x)):
            try:
                x[i] = np.linalg.solve(lhs[i], rhs[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
    ext = np.longdouble
    resid = c.astype(ext) - (rows.astype(ext) @ x.astype(ext)[..., None])[..., 0]
    fix = ((resid.astype(float) / s)[:, None, :] @ t[:, :-1, held.n_cols:-1])[:, 0]
    return x + held.tau * fix


def farkas_multipliers_by_stack(held, t, basis, enter, scale):
    """The Farkas multipliers of the unbounded dual ray of each tableau of
    a stack with the rows of `held`, entering columns `enter`, bases and
    scales: y >= 0 with A^T y = 0 and b.y < 0, given one step of iterative
    refinement through the basis inverse, in the caller's units, scaled to
    a largest entry of at most 1."""
    at, n_cols = np.arange(len(enter)), held.n_cols
    y = np.zeros((len(enter), t.shape[2] - 1))
    y[at, enter] = 1.0
    y[at[:, None], basis] = -t[at, :-1, enter]
    fix = t[:, :-1, n_cols:-1] @ ((held.columns / scale[:, None, :]) @ y[..., None])
    y[at[:, None], basis] -= fix[..., 0]
    lam = y[:, :n_cols] / scale[:, :n_cols]
    lam = np.where(lam > 0, lam, 0.0)
    return lam / lam.max(1, keepdims=True, initial=1.0)
