"""Finite-dimensional normed spaces and their subspace geometry.

A norm is one of three variants: a polyhedral norm (max over a symmetric
generator set of linear functionals), a p-norm, or a sum gluing component
norms with a monotone combiner on the component-norm values.  The combiner is
either a nondecreasing polyhedral norm on the orthant (a direct sum) or a
weighted p-norm (an "E-sum"); both are one `SumNorm`.  Everything polyhedral
reduces to linear programming through the epigraph encoder at the bottom of
the module; the remaining cases go through subgradients.

Each norm object is compiled once, on first use, into a plan (see
`plan`): generator blocks, p-values, component slices and the combiner, held
as arrays.  `space_dim`, `eval_norm`, `eval_norm_many`, `norm_subgradient`
and `eval_weight_norm` all read the plan, and the subgradient oracles call
its `value_and_subgrad_many` directly, which gives the norms and one
subgradient per row of a whole array without a Python loop over the rows.

Vectors are plain numpy arrays.  All norm and subspace objects are immutable
after construction and every operation is a pure function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import optim
from .errors import (
    DependentSetError,
    DimensionMismatchError,
    InvalidNormError,
    OptimizationError,
)

FEAS_TOL = 1e-9


def _frozen(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PolyhedralNorm:
    """max over a symmetric, spanning set of linear functionals."""

    generators: np.ndarray

    @property
    def dim(self) -> int:
        return self.generators.shape[1]


@dataclass(frozen=True, eq=False)
class LpNorm:
    p: float
    dim: int


@dataclass(frozen=True, eq=False)
class MonotonePolyhedralNorm:
    """Polyhedral norm on the nonnegative orthant with all-nonnegative
    generator coefficients, hence componentwise nondecreasing there."""

    generators: np.ndarray

    @property
    def dim(self) -> int:
        return self.generators.shape[1]


@dataclass(frozen=True, eq=False)
class WeightedLpNorm:
    """(sum_i w_i |t_i|^p)^(1/p), or max_i w_i |t_i| for p = inf."""

    p: float
    weights: np.ndarray

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


WeightNorm = Union[MonotonePolyhedralNorm, WeightedLpNorm]


@dataclass(frozen=True, eq=False)
class SumNorm:
    """||x|| = combiner(||x_1||, ..., ||x_k||) over the component slices."""

    components: tuple
    combiner: WeightNorm


NormSpec = Union[PolyhedralNorm, LpNorm, SumNorm]


def polyhedral(generators, symmetrize: bool = True) -> PolyhedralNorm:
    """Build a polyhedral norm; asymmetric generator sets are symmetrized by
    adding negations (with a warning), since the norm must be even."""
    gens = np.asarray(generators, dtype=float)
    if gens.ndim != 2 or gens.size == 0 or not np.isfinite(gens).all():
        raise InvalidNormError("generator matrix must be 2-d, nonempty and finite")
    rows = [gens[i] for i in range(gens.shape[0])]
    added = []
    if symmetrize:
        for g in rows:
            if not any(np.allclose(-g, h, atol=1e-12) for h in rows + added):
                added.append(-g)
        if added:
            warnings.warn("generator set was not symmetric; negations added")
    return PolyhedralNorm(_frozen(np.vstack(rows + added) if added else gens))


def lp_norm(p, dim: int) -> LpNorm:
    p = float(p)
    if not p >= 1:
        raise InvalidNormError("p-norm requires p >= 1")
    if dim < 1:
        raise InvalidNormError("dimension must be positive")
    return LpNorm(p, dim)


def linf(dim: int) -> LpNorm:
    return lp_norm(np.inf, dim)


def l1(dim: int) -> LpNorm:
    return lp_norm(1.0, dim)


def l2(dim: int) -> LpNorm:
    return lp_norm(2.0, dim)


def monotone_polyhedral(generators) -> MonotonePolyhedralNorm:
    gens = np.asarray(generators, dtype=float)
    if gens.ndim != 2 or gens.size == 0 or not np.isfinite(gens).all():
        raise InvalidNormError("generator matrix must be 2-d, nonempty and finite")
    if (gens < 0).any():
        raise InvalidNormError("monotone polyhedral generators must be nonnegative")
    if (gens.max(axis=0) <= 0).any():
        raise InvalidNormError("some coordinate has no positive generator coefficient")
    return MonotonePolyhedralNorm(_frozen(gens))


def max_combiner(k: int) -> MonotonePolyhedralNorm:
    return monotone_polyhedral(np.eye(k))


def sum_combiner(k: int) -> MonotonePolyhedralNorm:
    return monotone_polyhedral(np.ones((1, k)))


def weighted_lp(p, weights) -> WeightedLpNorm:
    p = float(p)
    w = np.asarray(weights, dtype=float)
    if not p >= 1:
        raise InvalidNormError("p must be >= 1")
    if w.ndim != 1 or w.size == 0:
        raise InvalidNormError("weights must be a nonempty list")
    if not (np.isfinite(w).all() and (w > 0).all()):
        raise InvalidNormError("weights must be finite and positive")
    return WeightedLpNorm(p, _frozen(w))


def make_direct_sum(components, pi: MonotonePolyhedralNorm) -> SumNorm:
    if not isinstance(pi, MonotonePolyhedralNorm):
        raise InvalidNormError("direct sum combiner must be monotone polyhedral")
    return make_esum(components, pi)


def make_esum(components, e_norm: WeightNorm) -> SumNorm:
    components = tuple(components)
    if e_norm.dim != len(components):
        raise DimensionMismatchError("combiner dimension must equal component count")
    report = validate_norm(e_norm)
    if not report.ok:
        raise InvalidNormError(f"combiner failed validation: {report.failures}")
    return SumNorm(components, e_norm)


# ---------------------------------------------------------------------------
# compiled plans

# the ufunc reductions, called with a positional axis, cost less per call
# than the ndarray methods on the few rows an oracle passes
_max, _sum = np.maximum.reduce, np.add.reduce


def _power_subgrad(coef, a, vals, p):
    """coef * a^(p-1) * vals^(1-p): the gradient of a finite-p norm whose
    rows have values `vals` at |x| = a, zero on the rows where it vanishes."""
    live = (vals != 0)[:, None]
    return coef * a ** (p - 1.0) * np.where(live, vals[:, None], 1.0) ** (1.0 - p) * live


@dataclass(eq=False, slots=True)
class _GeneratorPlan:
    """max over the rows of `gens`: a polyhedral norm or a monotone combiner."""

    gens: np.ndarray
    dim: int

    def value_many(self, xs):
        return _max(xs @ self.gens.T, 1)

    def value_and_subgrad_many(self, xs):
        prods = xs @ self.gens.T
        return _max(prods, 1), self.gens[prods.argmax(1)]


@dataclass(eq=False, slots=True)
class _PPlan:
    """The p-norm on R^dim."""

    p: float
    dim: int

    def value_many(self, xs):
        a = np.abs(xs)
        if self.p == np.inf:
            return _max(a, 1)
        if self.p == 1:
            return _sum(a, 1)
        return _sum(a ** self.p, 1) ** (1.0 / self.p)

    def value_and_subgrad_many(self, xs):
        p, a, sign = self.p, np.abs(xs), np.sign(xs)
        if p == 1:
            return _sum(a, 1), sign
        if p == np.inf:
            return _max(a, 1), sign * (np.arange(a.shape[1]) == a.argmax(1)[:, None])
        vals = _sum(a ** p, 1) ** (1.0 / p)
        return vals, _power_subgrad(sign, a, vals, p)


@dataclass(eq=False, slots=True)
class _WeightedPlan:
    """The weighted p-norm of an E-sum, p finite, on the nonnegative orthant."""

    p: float
    weights: np.ndarray
    dim: int

    def value_many(self, ts):
        return (ts ** self.p @ self.weights) ** (1.0 / self.p)

    def value_and_subgrad_many(self, ts):
        vals = self.value_many(ts)
        return vals, _power_subgrad(self.weights, ts, vals, self.p)


@dataclass(eq=False, slots=True)
class _SumPlan:
    """combiner(||x_1||, ..., ||x_k||); `parts` holds (slice, plan) pairs."""

    parts: tuple
    combiner: object
    dim: int

    def value_many(self, xs):
        return self.combiner.value_many(np.column_stack(
            [part.value_many(xs[:, sl]) for sl, part in self.parts]))

    def value_and_subgrad_many(self, xs):
        pieces = [part.value_and_subgrad_many(xs[:, sl]) for sl, part in self.parts]
        vals, h = self.combiner.value_and_subgrad_many(
            np.column_stack([t for t, _ in pieces]))
        return vals, np.hstack([h[:, i, None] * g for i, (_, g) in enumerate(pieces)])


def plan(space):
    """The compiled plan of a norm or combiner, built on first use and kept
    on the (immutable) norm object.

    A plan has `dim`, `value_many(xs)`, the norms of the rows of `xs`, and
    `value_and_subgrad_many(xs)`, which also gives one subgradient per row:
    the deterministic selection g with g @ x = ||x|| that takes the first
    maximizing generator or coordinate on ties and is zero where a smooth
    norm vanishes.  Neither loops over rows, and no plan holds an array whose
    size grows with the dimension of a p-norm.
    """
    compiled = getattr(space, "_plan", None)
    if compiled is not None:
        return compiled
    if isinstance(space, (PolyhedralNorm, MonotonePolyhedralNorm)):
        compiled = _GeneratorPlan(space.generators, space.dim)
    elif isinstance(space, LpNorm):
        # in dimension 1 every p-norm is |x|
        compiled = _PPlan(1.0 if space.dim == 1 else space.p, space.dim)
    elif isinstance(space, WeightedLpNorm) and space.p == np.inf:
        # max_i w_i t_i is the max over the rows of diag(w)
        compiled = _GeneratorPlan(np.diag(space.weights), space.dim)
    elif isinstance(space, WeightedLpNorm):
        compiled = _WeightedPlan(space.p, space.weights, space.dim)
    elif isinstance(space, SumNorm):
        parts, pos = [], 0
        for comp in space.components:
            part = plan(comp)
            parts.append((slice(pos, pos + part.dim), part))
            pos += part.dim
        compiled = _SumPlan(tuple(parts), plan(space.combiner), pos)
    else:
        raise TypeError(f"not a norm spec: {type(space)!r}")
    object.__setattr__(space, "_plan", compiled)
    return compiled


def space_dim(space) -> int:
    return plan(space).dim


def component_slices(space) -> list[slice]:
    return [sl for sl, _ in plan(space).parts]


def _check_dim(space, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != space_dim(space):
        raise DimensionMismatchError(
            f"vector of dim {x.shape[-1]} in space of dim {space_dim(space)}")
    return x


def eval_weight_norm(wnorm: WeightNorm, t: np.ndarray) -> float:
    """The combiner norm of |t|."""
    return float(plan(wnorm).value_many(np.abs(np.asarray(t, dtype=float))[None, :])[0])


def eval_norm(space, x) -> float:
    """Norm of a single vector under any NormSpec variant."""
    x = _check_dim(space, x)
    return float(plan(space).value_many(x[None, :])[0])


def eval_norm_many(space, xs: np.ndarray) -> np.ndarray:
    """Vectorized norms of the rows of `xs`."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise DimensionMismatchError("expected a 2-d array of row vectors")
    compiled = plan(space)
    if xs.shape[1] != compiled.dim:
        raise DimensionMismatchError("row width does not match space dimension")
    return compiled.value_many(xs)


def norm_subgradient(space, x) -> np.ndarray:
    """A deterministic subgradient selection g with g @ x = ||x||."""
    x = _check_dim(space, x)
    return plan(space).value_and_subgrad_many(x[None, :])[1][0]


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True, eq=False)
class ValidationReport:
    ok: bool
    failures: tuple


def _sampled_axioms(space, samples: int, seed: int, failures: list) -> None:
    n = space_dim(space)
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(samples, n))
    ys = rng.normal(size=(samples, n))
    cs = rng.uniform(-3.0, 3.0, size=samples)
    nx = eval_norm_many(space, xs)
    ny = eval_norm_many(space, ys)
    nxy = eval_norm_many(space, xs + ys)
    ncx = eval_norm_many(space, cs[:, None] * xs)
    tri = nxy - (nx + ny)
    scale = np.maximum(1.0, nx + ny)
    bad = np.flatnonzero(tri > 1e-9 * scale)
    if bad.size:
        failures.append(("triangle inequality", (xs[bad[0]], ys[bad[0]])))
    hom = np.abs(ncx - np.abs(cs) * nx)
    bad = np.flatnonzero(hom > 1e-9 * np.maximum(1.0, np.abs(cs) * nx))
    if bad.size:
        failures.append(("homogeneity", (cs[bad[0]], xs[bad[0]])))


def validate_norm(space, samples: int = 300, seed: int = 0) -> ValidationReport:
    """Structural axioms checked exactly; triangle inequality and homogeneity
    smoke-tested on a seeded sample (1e-9 relative)."""
    failures: list = []
    if isinstance(space, PolyhedralNorm):
        gens = space.generators
        for i in range(gens.shape[0]):
            if not any(np.allclose(-gens[i], gens[j], atol=1e-12)
                       for j in range(gens.shape[0])):
                failures.append(("symmetry", gens[i]))
                break
        rank = np.linalg.matrix_rank(gens)
        if rank < space.dim:
            _, _, vt = np.linalg.svd(gens)
            failures.append(("definiteness", vt[-1]))
        if not failures:
            _sampled_axioms(space, samples, seed, failures)
    elif isinstance(space, MonotonePolyhedralNorm):
        gens = space.generators
        if (gens < 0).any():
            i, j = np.argwhere(gens < 0)[0]
            failures.append(("nonnegative coefficients", (int(i), int(j))))
        cols = gens.max(axis=0)
        if (cols <= 0).any():
            failures.append(("per-coordinate positivity", int(np.argmax(cols <= 0))))
    elif isinstance(space, WeightedLpNorm):
        if space.p < 1:
            failures.append(("p >= 1", space.p))
        if (space.weights <= 0).any():
            failures.append(("positive weights", space.weights))
    elif isinstance(space, LpNorm):
        if space.p < 1:
            failures.append(("p >= 1", space.p))
    elif isinstance(space, SumNorm):
        combiner = space.combiner
        if combiner.dim != len(space.components):
            failures.append(("combiner dimension", combiner.dim))
        sub = validate_norm(combiner, samples, seed)
        failures.extend(sub.failures)
        for comp in space.components:
            sub = validate_norm(comp, samples, seed)
            failures.extend(sub.failures)
        if not failures:
            _sampled_axioms(space, samples, seed, failures)
    else:
        failures.append(("unknown norm kind", type(space).__name__))
    return ValidationReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# explicit generator expansion (for vertex work in small dimension)

def explicit_generators(space, cap: int = 100_000) -> np.ndarray:
    """Flatten any fully polyhedral NormSpec into one symmetric generator set.

    p-norms other than 1/inf (except in dimension 1) are not polyhedral and
    raise InvalidNormError.  The product construction for sums is capped to
    avoid combinatorial blowups outside the intended small-dimension uses.
    """
    if isinstance(space, PolyhedralNorm):
        return np.array(space.generators)
    if isinstance(space, LpNorm):
        if space.dim == 1:
            return np.array([[1.0], [-1.0]])
        if np.isinf(space.p):
            return np.vstack([np.eye(space.dim), -np.eye(space.dim)])
        if space.p == 1:
            if 2 ** space.dim > cap:
                raise InvalidNormError("sign expansion of the 1-norm exceeds cap")
            signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * space.dim),
                                         indexing="ij")).reshape(space.dim, -1).T
            return signs
        raise InvalidNormError(f"p = {space.p} norm is not polyhedral")
    if isinstance(space, SumNorm):
        combiner = space.combiner
        if isinstance(combiner, MonotonePolyhedralNorm):
            outer = np.array(combiner.generators)
        elif combiner.p == 1:
            outer = combiner.weights[None, :]
        elif np.isinf(combiner.p):
            outer = np.diag(combiner.weights)
        else:
            raise InvalidNormError("weight norm is not polyhedral")
        comp_gens = [explicit_generators(c, cap) for c in space.components]
        total = outer.shape[0]
        for g in comp_gens:
            total *= g.shape[0]
        if total > cap:
            raise InvalidNormError("generator product exceeds cap")
        slices = component_slices(space)
        n = space_dim(space)
        rows = []
        for h in outer:
            partial = [np.zeros(n)]
            for i, (g, sl) in enumerate(zip(comp_gens, slices)):
                new = []
                for base in partial:
                    for gen in g:
                        row = base.copy()
                        row[sl] = h[i] * gen
                        new.append(row)
                partial = new
            rows.extend(partial)
        return np.array(rows)
    raise TypeError(f"not a norm spec: {type(space)!r}")


def is_lp_encodable(space) -> bool:
    """True when the epigraph of the norm admits an exact LP description."""
    if isinstance(space, PolyhedralNorm):
        return True
    if isinstance(space, LpNorm):
        return space.dim == 1 or space.p == 1 or np.isinf(space.p)
    if isinstance(space, SumNorm):
        combiner = space.combiner
        if isinstance(combiner, WeightedLpNorm):
            if not (combiner.p == 1 or np.isinf(combiner.p) or combiner.dim == 1):
                return False
        return all(is_lp_encodable(c) for c in space.components)
    return False


def add_norm_epigraph(builder: optim.LpBuilder, space, cols, mat: np.ndarray,
                      off: np.ndarray, bound: int) -> None:
    """Append rows enforcing ||mat @ u[cols] + off|| <= u[bound].

    `cols` indexes builder variables; `mat` has one row per ambient coordinate
    of `space`.  Auxiliary variables are created as needed.  Raises
    InvalidNormError on non-encodable norms.
    """
    mat = np.asarray(mat, dtype=float)
    off = np.asarray(off, dtype=float)
    n = space_dim(space)
    if mat.shape != (n, len(cols)) or off.shape != (n,):
        raise DimensionMismatchError("affine expression shape mismatch")

    def _linear_row(coeffs: np.ndarray, extra: dict, rhs: float) -> None:
        terms = {c: float(v) for c, v in zip(cols, coeffs) if v != 0.0}
        for k, v in extra.items():
            terms[k] = terms.get(k, 0.0) + v
        builder.add_ub(terms, rhs)

    if isinstance(space, PolyhedralNorm):
        for g in space.generators:
            _linear_row(g @ mat, {bound: -1.0}, -float(g @ off))
        return
    if isinstance(space, LpNorm):
        if np.isinf(space.p) or space.dim == 1:
            for i in range(n):
                _linear_row(mat[i], {bound: -1.0}, -float(off[i]))
                _linear_row(-mat[i], {bound: -1.0}, float(off[i]))
            return
        if space.p == 1:
            svars = builder.new_vars(n)
            for i in range(n):
                _linear_row(mat[i], {svars[i]: -1.0}, -float(off[i]))
                _linear_row(-mat[i], {svars[i]: -1.0}, float(off[i]))
            builder.add_ub({**{s: 1.0 for s in svars}, bound: -1.0}, 0.0)
            return
        raise InvalidNormError(f"p = {space.p} norm has no LP epigraph")
    if isinstance(space, SumNorm):
        combiner = space.combiner
        tvars = builder.new_vars(len(space.components))
        for comp, sl, tv in zip(space.components, component_slices(space), tvars):
            add_norm_epigraph(builder, comp, cols, mat[sl], off[sl], tv)
        if isinstance(combiner, MonotonePolyhedralNorm):
            for h in combiner.generators:
                terms = {tv: float(hi) for tv, hi in zip(tvars, h) if hi != 0.0}
                terms[bound] = terms.get(bound, 0.0) - 1.0
                builder.add_ub(terms, 0.0)
        elif combiner.p == 1 or combiner.dim == 1:
            terms = {tv: float(w) for tv, w in zip(tvars, combiner.weights)}
            terms[bound] = -1.0
            builder.add_ub(terms, 0.0)
        elif np.isinf(combiner.p):
            for tv, w in zip(tvars, combiner.weights):
                builder.add_ub({tv: float(w), bound: -1.0}, 0.0)
        else:
            raise InvalidNormError("weight norm has no LP epigraph")
        return
    raise TypeError(f"not a norm spec: {type(space)!r}")


# ---------------------------------------------------------------------------
# subspaces

def _independent_rows(rows: np.ndarray, tol: float = FEAS_TOL) -> list[int]:
    """Indices of a maximal independent subset, by Gaussian elimination with
    pivot tolerance relative to the largest row scale."""
    if rows.shape[0] == 0:
        return []
    work = np.array(rows, dtype=float)
    scale = max(1.0, float(np.abs(work).max()))
    picked: list[int] = []
    used_cols: list[int] = []
    for i in range(work.shape[0]):
        row = work[i].copy()
        for r, c in zip(picked, used_cols):
            row -= row[c] * work[r]
        piv = int(np.argmax(np.abs(row)))
        if abs(row[piv]) <= tol * scale:
            continue
        row = row / row[piv]
        work[i] = row
        # keep picked rows mutually reduced so later eliminations stay exact
        for r in picked:
            work[r] = work[r] - work[r][piv] * row
        picked.append(i)
        used_cols.append(piv)
    return picked


@dataclass(frozen=True, eq=False)
class Subspace:
    """Linear subspace with an orthonormal basis (columns) and an orthonormal
    set of kernel functionals (rows) spanning its annihilator.

    The orthonormalization is for conditioning only; all metric structure
    lives in the ambient NormSpec.
    """

    ambient_dim: int
    basis: np.ndarray
    kernel: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, _frozen(np.eye(n)), _frozen(np.zeros((0, n))))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, _frozen(np.zeros((n, 0))), _frozen(np.eye(n)))

    def contains(self, x, tol: float = FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if self.kernel.shape[0] == 0:
            return True
        resid = np.abs(self.kernel @ x).max(initial=0.0)
        return resid <= tol * max(1.0, float(np.abs(x).max(initial=0.0)))

    def coords(self, x) -> np.ndarray:
        return self.basis.T @ np.asarray(x, dtype=float)

    def embed(self, alpha) -> np.ndarray:
        return self.basis @ np.asarray(alpha, dtype=float)

    def project_euclid(self, x) -> np.ndarray:
        return self.basis @ (self.basis.T @ np.asarray(x, dtype=float))

    def is_subspace_of(self, other: "Subspace", tol: float = FEAS_TOL) -> bool:
        return all(other.contains(self.basis[:, j], tol) for j in range(self.dim))


def _ambient_dim(ambient) -> int:
    return ambient if isinstance(ambient, (int, np.integer)) else space_dim(ambient)


def subspace_from_basis(ambient, vectors) -> Subspace:
    """Span of the given vectors; raises DependentSetError on dependence.

    `ambient` may be a dimension or a NormSpec (the norm plays no role in the
    linear span, only its dimension is used)."""
    ambient_dim = _ambient_dim(ambient)
    vecs = np.asarray(vectors, dtype=float)
    if not np.isfinite(vecs).all():
        raise ValueError("subspace vectors must be finite")
    if vecs.size == 0:
        return Subspace.zero(ambient_dim)
    vecs = vecs.reshape(-1, ambient_dim)
    k = vecs.shape[0]
    u, s, vt = np.linalg.svd(vecs, full_matrices=True)
    tol = max(vecs.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int((s > max(tol, 1e-12)).sum())
    if rank < k:
        raise DependentSetError("basis vectors are linearly dependent")
    basis = vt[:rank].T
    kernel = vt[rank:]
    return Subspace(ambient_dim, _frozen(basis), _frozen(kernel))


def subspace_from_kernel(ambient, functionals) -> Subspace:
    """Common kernel of the given functionals; `ambient` as in
    subspace_from_basis."""
    ambient_dim = _ambient_dim(ambient)
    funcs = np.asarray(functionals, dtype=float)
    if not np.isfinite(funcs).all():
        raise ValueError("subspace vectors must be finite")
    if funcs.size == 0:
        return Subspace.full(ambient_dim)
    funcs = funcs.reshape(-1, ambient_dim)
    m = funcs.shape[0]
    u, s, vt = np.linalg.svd(funcs, full_matrices=True)
    tol = max(funcs.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int((s > max(tol, 1e-12)).sum())
    if rank < m:
        raise DependentSetError("kernel functionals are linearly dependent")
    kernel = vt[:rank]
    basis = vt[rank:].T
    return Subspace(ambient_dim, _frozen(basis), _frozen(kernel))


def sum_subspaces(y: Subspace, z: Subspace) -> Subspace:
    """Span of the union of bases; rank by elimination with pivot tolerance."""
    if y.ambient_dim != z.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    stacked = np.vstack([y.basis.T, z.basis.T])
    if stacked.shape[0] == 0:
        return Subspace.zero(y.ambient_dim)
    keep = _independent_rows(np.array(stacked))
    if not keep:
        return Subspace.zero(y.ambient_dim)
    return subspace_from_basis(y.ambient_dim, stacked[keep])


def intersect_subspaces(y: Subspace, z: Subspace) -> Subspace:
    if y.ambient_dim != z.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    stacked = np.vstack([y.kernel, z.kernel])
    if stacked.shape[0] == 0:
        return Subspace.full(y.ambient_dim)
    keep = _independent_rows(np.array(stacked))
    return subspace_from_kernel(y.ambient_dim, stacked[keep])


def dist_to_subspace(space, x, sub: Subspace) -> tuple[float, np.ndarray]:
    """min over y in the subspace of ||x - y||, with a minimizer.

    Polyhedral norms go through the LP kernel; other norms use staged
    subgradient descent and raise OptimizationError if unconverged.
    """
    x = _check_dim(space, x)
    if sub.ambient_dim != space_dim(space):
        raise DimensionMismatchError("subspace ambient dim mismatch")
    if sub.dim == 0:
        return eval_norm(space, x), np.zeros_like(x)
    if sub.contains(x):
        return 0.0, x.copy()
    if is_lp_encodable(space):
        builder = optim.LpBuilder()
        alphas = builder.new_vars(sub.dim)
        t = builder.new_var()
        builder.add_objective({t: 1.0})
        add_norm_epigraph(builder, space, alphas, -np.array(sub.basis), x, t)
        out = optim.lp_solve(builder.build())
        if out.status != optim.OPTIMAL:
            raise OptimizationError(f"distance LP ended with status {out.status}")
        alpha = out.x[:sub.dim]
        return float(out.value), sub.embed(alpha)

    compiled, basis, basis_t = plan(space), sub.basis, sub.basis.T

    def oracle(alpha):
        vals, grads = compiled.value_and_subgrad_many((x - basis @ alpha)[None, :])
        return float(vals[0]), -(basis_t @ grads[0])

    start = sub.coords(x)
    scale = max(1.0, float(np.linalg.norm(x - sub.embed(start))))
    res = optim.staged_subgradient(oracle, None, start, scale=scale)
    if not res.converged:
        raise OptimizationError("subgradient distance solve hit iteration limit")
    return res.value, sub.embed(res.point)


@dataclass(frozen=True, eq=False)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen(self.center))
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")


# ---------------------------------------------------------------------------
# JSON wire format

def _p_to_json(p: float):
    return "inf" if np.isinf(p) else p


def _p_from_json(p) -> float:
    return np.inf if p in ("inf", "Infinity") else float(p)


def _whole(value, what: str) -> int:
    """A count read from JSON: refuses fractions, NaN and infinities."""
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{what} must be a whole number, not {value!r}")
    return int(number)


def weight_norm_to_json(w: WeightNorm) -> dict:
    if isinstance(w, MonotonePolyhedralNorm):
        return {"kind": "monotone_polyhedral", "generators": w.generators.tolist()}
    return {"kind": "weighted_lp", "p": _p_to_json(w.p), "weights": w.weights.tolist()}


def weight_norm_from_json(data: dict) -> WeightNorm:
    if data["kind"] == "monotone_polyhedral":
        return monotone_polyhedral(data["generators"])
    if data["kind"] == "weighted_lp":
        return weighted_lp(_p_from_json(data["p"]), data["weights"])
    raise ValueError(f"unknown weight norm kind {data['kind']!r}")


def norm_to_json(space) -> dict:
    if isinstance(space, PolyhedralNorm):
        return {"kind": "polyhedral", "generators": space.generators.tolist()}
    if isinstance(space, LpNorm):
        return {"kind": "lp", "p": _p_to_json(space.p), "dim": space.dim}
    if isinstance(space, SumNorm):
        # a monotone polyhedral combiner is written as a direct sum, any other
        # as an E-sum; both kinds load back to the same SumNorm
        kind, key = (("direct_sum", "pi")
                     if isinstance(space.combiner, MonotonePolyhedralNorm)
                     else ("esum", "e_norm"))
        return {"kind": kind,
                "components": [norm_to_json(c) for c in space.components],
                key: weight_norm_to_json(space.combiner)}
    raise TypeError(f"not a norm spec: {type(space)!r}")


def norm_from_json(data: dict):
    kind = data["kind"]
    if kind == "polyhedral":
        space = polyhedral(data["generators"])
        # a seminorm is refused by rank alone; a full validate_norm would add
        # sampled evaluations to every parse
        if np.linalg.matrix_rank(space.generators) < space.dim:
            raise InvalidNormError("polyhedral generators do not span the space")
        return space
    if kind == "lp":
        return lp_norm(_p_from_json(data["p"]), _whole(data["dim"], "dim"))
    if kind == "direct_sum":
        comps = [norm_from_json(c) for c in data["components"]]
        return make_direct_sum(comps, weight_norm_from_json(data["pi"]))
    if kind == "esum":
        comps = [norm_from_json(c) for c in data["components"]]
        return make_esum(comps, weight_norm_from_json(data["e_norm"]))
    raise ValueError(f"unknown norm kind {kind!r}")


def subspace_to_json(sub: Subspace) -> dict:
    if sub.dim <= sub.ambient_dim - sub.dim:
        return {"ambient_dim": sub.ambient_dim, "basis": sub.basis.T.tolist()}
    return {"ambient_dim": sub.ambient_dim, "kernel": sub.kernel.tolist()}


def subspace_from_json(data: dict) -> Subspace:
    rows = data.get("basis", data.get("kernel"))
    if rows is None:
        raise ValueError("subspace JSON needs a 'basis' or 'kernel' field")
    n = _whole(data.get("ambient_dim", len(rows[0]) if rows else 0), "ambient_dim")
    if "basis" in data:
        return subspace_from_basis(n, data["basis"])
    return subspace_from_kernel(n, data["kernel"])
