"""Independent brute-force oracles used to cross-check solver results.

These deliberately avoid the library's optimization paths: plain grid
refinement and numpy rank computations only.
"""

import itertools

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
