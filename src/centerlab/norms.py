"""Finite-dimensional normed spaces and their subspace geometry.

A norm is one of three variants: a polyhedral norm (max over a symmetric
generator set of linear functionals), a p-norm, or a sum gluing component
norms with a monotone combiner on the component-norm values.  The combiner is
either a nondecreasing polyhedral norm on the orthant (a direct sum) or a
weighted p-norm (an "E-sum"); both are one `SumNorm`.  Everything polyhedral
reduces to linear programming through the epigraph rows the norm emits; the
remaining cases go through subgradients.

Each kind of norm or combiner is one class that carries its own arithmetic,
LP rows, JSON and unchecked axioms (see `_Norm`), with everything it needs
(generator blocks, p-values, component slices) built when it is
constructed.  `space_dim`, `eval_norm`, `eval_norm_many` and
`norm_subgradient` call its methods; `value_and_subgrad_many`, which
`norm_subgradient` reads one row of, gives the norms and one subgradient
per row of a whole array without a Python loop over the rows.

A distance to a subspace is the restricted radius of one point, solved by
`centers.solve_center` (`dist_to_subspace`), or, for the rows of an array, a
max over the vertices of the dual unit ball within the subspace's
annihilator (`dist_to_subspace_many`), enumerated once per norm and subspace
from the norm's generators and kept on the subspace.

Vectors are plain numpy arrays.  All norm and subspace objects are immutable
after construction and every operation is a pure function.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import optim
from .errors import DependentSetError, DimensionMismatchError, InvalidNormError
from .optim import FEAS_TOL


def _frozen(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _checked_generators(generators) -> np.ndarray:
    gens = np.asarray(generators, dtype=float)
    if gens.ndim != 2 or gens.size == 0 or not np.isfinite(gens).all():
        raise InvalidNormError("generator matrix must be 2-d, nonempty and finite")
    return gens


# the most entries one block of the comparisons in `_missing_negations` holds
_CLOSE_BLOCK = 1 << 18


def _missing_negations(gens: np.ndarray) -> np.ndarray:
    """The indices i, in order, of the generators whose negation a
    symmetrization adds: those for which -g_i is close (as np.allclose,
    atol 1e-12) to no generator and to no negation added for an earlier one.
    The set is symmetric when there are none.  All pairs are compared at
    once, over blocks of rows of at most _CLOSE_BLOCK entries."""
    m, neg = gens.shape[0], -gens
    both, close = np.vstack([gens, neg]), np.empty((m, 2 * m), dtype=bool)
    step = max(1, _CLOSE_BLOCK // both.size)
    for lo in range(0, m, step):
        close[lo:lo + step] = np.isclose(neg[lo:lo + step, None], both,
                                         atol=1e-12).all(axis=2)
    lone = np.flatnonzero(~close[:, :m].any(axis=1))
    near, added = close[lone][:, m + lone], []
    for k in range(lone.size):
        if not near[k, added].any():
            added.append(k)
    return lone[added]


# the ufunc reductions, called with a positional axis, cost less per call
# than the ndarray methods on the few rows an oracle passes
_max, _sum = np.maximum.reduce, np.add.reduce


def _power_subgrad(coef, a, vals, p):
    """coef * a^(p-1) * vals^(1-p): the gradient of a finite-p norm whose
    rows have values `vals` at |x| = a, zero on the rows where it vanishes."""
    live = (vals != 0)[:, None]
    return coef * a ** (p - 1.0) * np.where(live, vals[:, None], 1.0) ** (1.0 - p) * live


class _Norm:
    """What every norm and combiner kind carries: `dim`; `value_many(xs)`,
    the norms of the rows of `xs`; `value_and_subgrad_many(xs)`, which also
    gives one subgradient per row, the deterministic selection g with
    g @ x = ||x|| that takes the first maximizing generator or coordinate on
    ties and is zero where a smooth norm vanishes; `lp_encodable`;
    `epigraph(builder, cols, mat, off, bound)`, the rows enforcing
    ||mat @ u[cols] + off|| <= u[bound]; `epigraph_rhs(off)`, the right-hand
    side of those rows, the one place `epigraph` takes it from, over any
    leading axes of `off`; `generator_set(cap)`, generators whose max is the
    norm (these three raise InvalidNormError where it is not polyhedral);
    `to_json()`; and `axiom_failures()` (see `validate_norm`).
    No method loops over rows, and no norm holds an array whose size grows
    with the dimension of a p-norm."""

    lp_encodable = True

    def axiom_failures(self) -> list:
        return []


class _GeneratorNorm(_Norm):
    """max over the rows of `generators`: a polyhedral norm or a monotone
    combiner."""

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    def value_many(self, xs):
        return _max(xs @ self.generators.T, 1)

    def value_and_subgrad_many(self, xs):
        prods = xs @ self.generators.T
        return _max(prods, 1), self.generators[prods.argmax(1)]

    def epigraph(self, builder, cols, mat, off, bound):
        # one stacked vector product per generator: each row rounds as g @ mat
        # does, where the matrix product gens @ mat (BLAS gemm) would not
        stacked = self.generators[:, None, :]
        block = np.empty((self.generators.shape[0], len(cols) + 1))
        block[:, :-1], block[:, -1] = (stacked @ mat)[:, 0], -1.0
        builder.add_ub([*cols, bound], block, self.epigraph_rhs(off))

    def epigraph_rhs(self, off):
        # one vector product g @ off per generator and offset, whatever the
        # leading axes of `off`: vecdot, like a stacked matmul of a row and
        # a column, takes each with one BLAS dot
        return -np.vecdot(self.generators, off[..., None, :])

    def generator_set(self, cap):
        return np.array(self.generators)


@dataclass(frozen=True, eq=False)
class PolyhedralNorm(_GeneratorNorm):
    """max over a symmetric, spanning set of linear functionals."""

    generators: np.ndarray

    def axiom_failures(self) -> list:
        """The first generator whose negation is missing (symmetry), and a
        direction that no generator detects (definiteness)."""
        gens = self.generators
        failures = [("symmetry", gens[i]) for i in _missing_negations(gens)[:1]]
        if np.linalg.matrix_rank(gens) < self.dim:
            failures.append(("definiteness", np.linalg.svd(gens)[2][-1]))
        return failures

    def to_json(self) -> dict:
        return {"kind": "polyhedral", "generators": self.generators.tolist()}


@dataclass(frozen=True, eq=False)
class LpNorm(_Norm):
    """The p-norm on R^dim.  In dimension 1, where every p-norm is |x|, it
    computes as p = inf (`_p`), which keeps its values and LP rows exact."""

    p: float
    dim: int
    _p: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        if not self.p >= 1:
            raise InvalidNormError("p-norm requires p >= 1")
        if self.dim < 1:
            raise InvalidNormError("dimension must be positive")
        object.__setattr__(self, "_p", np.inf if self.dim == 1 else self.p)

    @property
    def lp_encodable(self):
        return self._p in (1.0, np.inf)

    def value_many(self, xs):
        p, a = self._p, np.abs(xs)
        if p == np.inf:
            return _max(a, 1)
        if p == 1:
            return _sum(a, 1)
        return _sum(a ** p, 1) ** (1.0 / p)

    def value_and_subgrad_many(self, xs):
        p, a, sign = self._p, np.abs(xs), np.sign(xs)
        if p == 1:
            return _sum(a, 1), sign
        if p == np.inf:
            return _max(a, 1), sign * (np.arange(a.shape[1]) == a.argmax(1)[:, None])
        vals = _sum(a ** p, 1) ** (1.0 / p)
        return vals, _power_subgrad(sign, a, vals, p)

    def epigraph(self, builder, cols, mat, off, bound):
        # the rows +-(mat[i] @ u + off[i]) <= ..., interleaved, with one
        # column for u[bound] (p = inf) or one for each s_i (p = 1); a cone
        # for any other p
        if not self.lp_encodable:
            return builder.add_cone(self._p, cols, mat, off, bound)
        rhs, m = self.epigraph_rhs(off), len(cols)
        block = np.zeros((2 * self.dim, m + (1 if self._p == np.inf else self.dim)))
        block[0::2, :m], block[1::2, :m] = mat, -mat
        if self._p == np.inf:
            block[:, -1] = -1.0
            builder.add_ub([*cols, bound], block, rhs)
        else:
            # |mat[i] @ u + off[i]| <= s_i and sum_i s_i <= u[bound]
            svars = builder.new_vars(self.dim)
            np.fill_diagonal(block[0::2, m:], -1.0)
            np.fill_diagonal(block[1::2, m:], -1.0)
            builder.add_ub([*cols, *svars], block, rhs[:-1])
            builder.add_ub([*svars, bound], [[1.0] * self.dim + [-1.0]], rhs[-1:])

    def epigraph_rhs(self, off):
        # -off[i] and off[i], interleaved, then 0 for the 1-norm's sum row
        if not self.lp_encodable:
            raise InvalidNormError(f"p = {self.p} norm has no LP epigraph")
        rhs = np.zeros(off.shape[:-1] + (2 * self.dim + (self._p == 1),))
        rhs[..., 0:2 * self.dim:2], rhs[..., 1:2 * self.dim:2] = -off, off
        return rhs

    def generator_set(self, cap):
        if self._p == np.inf:
            return np.vstack([np.eye(self.dim), -np.eye(self.dim)])
        if self._p != 1:
            raise InvalidNormError(f"p = {self.p} norm is not polyhedral")
        if 2 ** self.dim > cap:
            raise InvalidNormError("sign expansion of the 1-norm exceeds cap")
        return np.array(np.meshgrid(*([[-1.0, 1.0]] * self.dim),
                                    indexing="ij")).reshape(self.dim, -1).T

    def to_json(self) -> dict:
        return {"kind": "lp", "p": _p_to_json(self.p), "dim": self.dim}


@dataclass(frozen=True, eq=False)
class MonotonePolyhedralNorm(_GeneratorNorm):
    """Polyhedral norm on the nonnegative orthant with all-nonnegative
    generator coefficients, hence componentwise nondecreasing there."""

    generators: np.ndarray
    # the kind and key of a sum with this combiner in JSON
    _sum_json = ("direct_sum", "pi")

    def __post_init__(self):
        gens = _checked_generators(self.generators)
        if (gens < 0).any():
            raise InvalidNormError("monotone polyhedral generators must be nonnegative")
        if (gens.max(axis=0) <= 0).any():
            raise InvalidNormError("some coordinate has no positive generator coefficient")
        object.__setattr__(self, "generators", _frozen(gens))

    def to_json(self) -> dict:
        return {"kind": "monotone_polyhedral", "generators": self.generators.tolist()}


@dataclass(frozen=True, eq=False)
class WeightedLpNorm(_Norm):
    """(sum_i w_i |t_i|^p)^(1/p), or max_i w_i |t_i| for p = inf.  That max
    is the max over the rows of diag(w), and in dimension 1 the norm is
    w^(1/p) |t|, so in both cases it computes as such a max (`_diag`).
    `_poly` is its polyhedral form, built once: `_diag`, or for p = 1 the
    one row of weights; None for any other p."""

    p: float
    weights: np.ndarray
    _diag: MonotonePolyhedralNorm = field(init=False, repr=False)
    _poly: MonotonePolyhedralNorm = field(init=False, repr=False)
    _sum_json = ("esum", "e_norm")

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        w = np.asarray(self.weights, dtype=float)
        if not self.p >= 1:
            raise InvalidNormError("p must be >= 1")
        if w.ndim != 1 or w.size == 0:
            raise InvalidNormError("weights must be a nonempty list")
        if not (np.isfinite(w).all() and (w > 0).all()):
            raise InvalidNormError("weights must be finite and positive")
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "_diag", MonotonePolyhedralNorm(
            np.diag(w if self.p == np.inf else w ** (1.0 / self.p)))
            if self.p == np.inf or w.size == 1 else None)
        object.__setattr__(self, "_poly", self._diag if self._diag is not None
                           or self.p != 1 else MonotonePolyhedralNorm(w[None, :]))

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def lp_encodable(self):
        return self._poly is not None

    def value_many(self, ts):
        if self._diag is not None:
            return self._diag.value_many(ts)
        return (ts ** self.p @ self.weights) ** (1.0 / self.p)

    def value_and_subgrad_many(self, ts):
        if self._diag is not None:
            return self._diag.value_and_subgrad_many(ts)
        vals = self.value_many(ts)
        return vals, _power_subgrad(self.weights, ts, vals, self.p)

    def epigraph(self, builder, cols, mat, off, bound):
        if self._poly is None:
            root = self.weights[:, None] ** (1.0 / self.p)
            return builder.add_cone(self.p, cols, root * mat, root[:, 0] * off, bound)
        self._poly.epigraph(builder, cols, mat, off, bound)

    def epigraph_rhs(self, off):
        return self._polyhedral().epigraph_rhs(off)

    def generator_set(self, cap):
        return self._polyhedral().generator_set(cap)

    def _polyhedral(self) -> MonotonePolyhedralNorm:
        if self._poly is None:
            raise InvalidNormError(f"weighted p = {self.p} norm is not polyhedral")
        return self._poly

    def to_json(self) -> dict:
        return {"kind": "weighted_lp", "p": _p_to_json(self.p), "weights": self.weights.tolist()}


WeightNorm = Union[MonotonePolyhedralNorm, WeightedLpNorm]


@dataclass(frozen=True, eq=False)
class SumNorm(_Norm):
    """||x|| = combiner(||x_1||, ..., ||x_k||) over the component slices;
    `parts` holds the (slice, component) pairs."""

    components: tuple
    combiner: WeightNorm
    parts: tuple = field(init=False, repr=False)
    dim: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not isinstance(self.combiner, (MonotonePolyhedralNorm, WeightedLpNorm)):
            raise InvalidNormError("combiner must be a monotone polyhedral or "
                                   "weighted p-norm")
        if self.combiner.dim != len(self.components):
            raise DimensionMismatchError("combiner dimension must equal component count")
        ends = itertools.accumulate(_norm(c).dim for c in self.components)
        parts = tuple((slice(end - c.dim, end), c) for c, end in zip(self.components, ends))
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "dim", parts[-1][0].stop)

    @property
    def lp_encodable(self):
        return self.combiner.lp_encodable and all(c.lp_encodable for c in self.components)

    def value_many(self, xs):
        return self.combiner.value_many(np.column_stack(
            [comp.value_many(xs[:, sl]) for sl, comp in self.parts]))

    def value_and_subgrad_many(self, xs):
        pieces = [comp.value_and_subgrad_many(xs[:, sl]) for sl, comp in self.parts]
        vals, h = self.combiner.value_and_subgrad_many(
            np.column_stack([t for t, _ in pieces]))
        return vals, np.hstack([h[:, i, None] * g for i, (_, g) in enumerate(pieces)])

    def epigraph(self, builder, cols, mat, off, bound):
        # ||x_i|| <= t_i for each component, then combiner(t) <= u[bound],
        # which is exact because the combiner is monotone on the orthant
        k = len(self.parts)
        tvars = builder.new_vars(k)
        for (sl, comp), tv in zip(self.parts, tvars):
            comp.epigraph(builder, cols, mat[sl], off[sl], tv)
        self.combiner.epigraph(builder, tvars, np.eye(k), np.zeros(k), bound)

    def epigraph_rhs(self, off):
        # the components' rows in order, then the combiner's, as `epigraph`
        # adds them
        zeros = np.zeros(off.shape[:-1] + (len(self.parts),))
        return np.concatenate([comp.epigraph_rhs(off[..., sl]) for sl, comp in self.parts]
                              + [self.combiner.epigraph_rhs(zeros)], axis=-1)

    def generator_set(self, cap):
        """h_i * g_i on component i's slice, for every combiner generator h
        and choice of component generators g_i (the last varies fastest)."""
        outer = self.combiner.generator_set(cap)
        inner = [comp.generator_set(cap) for comp in self.components]
        if outer.shape[0] * math.prod(g.shape[0] for g in inner) > cap:
            raise InvalidNormError("generator product exceeds cap")
        hs, rows = outer, np.zeros((outer.shape[0], 0))
        for i, g in enumerate(inner):
            hs = np.repeat(hs, g.shape[0], axis=0)
            rows = np.hstack([np.repeat(rows, g.shape[0], axis=0),
                              hs[:, i, None] * np.tile(g, (rows.shape[0], 1))])
        return rows

    def axiom_failures(self) -> list:
        return [failure for comp in self.components for failure in comp.axiom_failures()]

    def to_json(self) -> dict:
        # a monotone polyhedral combiner is written as a direct sum, any other
        # as an E-sum; both kinds load back to the same SumNorm
        kind, key = self.combiner._sum_json
        return {"kind": kind, "components": [c.to_json() for c in self.components],
                key: self.combiner.to_json()}


NormSpec = Union[PolyhedralNorm, LpNorm, SumNorm]


def polyhedral(generators, symmetrize: bool = True) -> PolyhedralNorm:
    """Build a polyhedral norm; asymmetric generator sets are symmetrized by
    adding negations (with a warning), since the norm must be even."""
    gens = _checked_generators(generators)
    missing = _missing_negations(gens) if symmetrize else ()
    if len(missing):
        warnings.warn("generator set was not symmetric; negations added")
        gens = np.vstack([gens, -gens[missing]])
    return PolyhedralNorm(_frozen(gens))


def lp_norm(p, dim: int) -> LpNorm:
    return LpNorm(p, dim)


def linf(dim: int) -> LpNorm:
    return lp_norm(np.inf, dim)


def l1(dim: int) -> LpNorm:
    return lp_norm(1.0, dim)


def l2(dim: int) -> LpNorm:
    return lp_norm(2.0, dim)


def monotone_polyhedral(generators) -> MonotonePolyhedralNorm:
    return MonotonePolyhedralNorm(generators)


def max_combiner(k: int) -> MonotonePolyhedralNorm:
    return monotone_polyhedral(np.eye(k))


def sum_combiner(k: int) -> MonotonePolyhedralNorm:
    return monotone_polyhedral(np.ones((1, k)))


def weighted_lp(p, weights) -> WeightedLpNorm:
    return WeightedLpNorm(p, weights)


def make_direct_sum(components, pi: MonotonePolyhedralNorm) -> SumNorm:
    if not isinstance(pi, MonotonePolyhedralNorm):
        raise InvalidNormError("direct sum combiner must be monotone polyhedral")
    return SumNorm(components, pi)


def make_esum(components, e_norm: WeightNorm) -> SumNorm:
    return SumNorm(components, e_norm)


def _norm(space) -> _Norm:
    """`space`, refused unless it is a norm or a combiner."""
    if not isinstance(space, _Norm):
        raise TypeError(f"not a norm spec: {type(space)!r}")
    return space


def space_dim(space) -> int:
    return _norm(space).dim


def component_slices(space) -> list[slice]:
    return [sl for sl, _ in space.parts]


def _check_dim(space, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != space_dim(space):
        raise DimensionMismatchError(
            f"vector of dim {x.shape[-1]} in space of dim {space_dim(space)}")
    return x


def eval_norm(space, x) -> float:
    """Norm of a single vector under any NormSpec variant."""
    x = _check_dim(space, x)
    return float(space.value_many(x[None, :])[0])


def eval_norm_many(space, xs: np.ndarray) -> np.ndarray:
    """Vectorized norms of the rows of `xs`."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise DimensionMismatchError("expected a 2-d array of row vectors")
    if xs.shape[1] != space_dim(space):
        raise DimensionMismatchError("row width does not match space dimension")
    return space.value_many(xs)


def norm_subgradient(space, x) -> np.ndarray:
    """A deterministic subgradient selection g with g @ x = ||x||."""
    x = _check_dim(space, x)
    return space.value_and_subgrad_many(x[None, :])[1][0]


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True, eq=False)
class ValidationReport:
    ok: bool
    failures: tuple


def validate_norm(space) -> ValidationReport:
    """The axioms that construction leaves unchecked, checked exactly: the
    generators of a polyhedral norm, and of each polyhedral component of a
    sum, must be symmetric and span the space (definiteness).  Every other
    kind refuses a non-norm when it is built, so it always passes."""
    failures = tuple(_norm(space).axiom_failures())
    return ValidationReport(not failures, failures)


# ---------------------------------------------------------------------------
# LP descriptions, read off the norm

def explicit_generators(space, cap: int = 100_000) -> np.ndarray:
    """Flatten any fully polyhedral NormSpec into one symmetric generator set,
    its rows sorted and distinct.

    p-norms other than 1/inf (except in dimension 1) are not polyhedral and
    raise InvalidNormError.  The product construction for sums is capped to
    avoid combinatorial blowups outside the intended small-dimension uses.
    """
    # a sum's product construction repeats rows (a max combiner pairs a
    # component generator with every choice for the other components); the
    # rows are sorted and repeats dropped by hand, because np.unique(axis=0)
    # imports numpy.ma, half a MiB of resident memory
    gens = _norm(space).generator_set(cap)
    gens = gens[np.lexsort(gens.T[::-1])]
    return gens[np.concatenate([[True], (gens[1:] != gens[:-1]).any(axis=1)])]


def is_lp_encodable(space) -> bool:
    """True when the epigraph of the norm admits an exact LP description."""
    return _norm(space).lp_encodable


def sublevel_vertices(space, basis: np.ndarray, points: np.ndarray,
                      weights: np.ndarray, level: float, generator_cap: int,
                      subset_cap: int) -> np.ndarray | None:
    """The vertices, in the coordinates u of `basis` S, of the sublevel set
    {u : max_i w_i ||S u - x_i|| <= level}, as `optim.enumerate_vertices`
    gives them from the rows w_i g S <= level + w_i g x_i (each point, then
    each generator g; one vector product a row, as in
    `_GeneratorNorm.epigraph`).  None where S has more than 4 columns, the
    norm is not polyhedral or passes `generator_cap`, or the rows have more
    than `subset_cap` subsets."""
    if basis.shape[1] > 4:
        return None
    try:
        gens = explicit_generators(space, generator_cap)
    except InvalidNormError:
        return None
    w = weights[:, None]
    rows = w[:, :, None] * (gens[:, None, :] @ basis)[:, 0]
    rhs = level + w * np.vecdot(gens, points[:, None, :])
    return optim.enumerate_vertices(rows.reshape(-1, basis.shape[1]), rhs.ravel(),
                                    cap=subset_cap)


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
    if not space.lp_encodable:
        raise InvalidNormError("norm has no LP epigraph")
    space.epigraph(builder, cols, mat, off, bound)


# ---------------------------------------------------------------------------
# subspaces

def _independent_rows(rows: np.ndarray, tol: float = FEAS_TOL) -> list[int]:
    """Indices of a maximal independent subset, by Gaussian elimination with
    pivot tolerance relative to the largest row scale."""
    if rows.shape[0] == 0:
        return []
    work = np.array(rows, dtype=float)
    scale = max(1.0, float(np.abs(work).max()))
    picked, used_cols = [], []
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
    # `_annihilator_vertices` by norm, filled on first use
    _dual_vertices: dict = field(default_factory=dict, init=False, repr=False)

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
        resid = np.abs(self.kernel @ x).max(initial=0.0)
        return resid <= tol * max(1.0, float(np.abs(x).max(initial=0.0)))

    def embed(self, alpha) -> np.ndarray:
        return self.basis @ np.asarray(alpha, dtype=float)

    def project_euclid(self, x) -> np.ndarray:
        return self.basis @ (self.basis.T @ np.asarray(x, dtype=float))

    def is_subspace_of(self, other: "Subspace", tol: float = FEAS_TOL) -> bool:
        return all(other.contains(self.basis[:, j], tol) for j in range(self.dim))


def _split(ambient, rows, what: str) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, orthonormal rows spanning the given rows, orthonormal rows spanning
    their orthogonal complement), from one SVD; raises DependentSetError
    when the given rows are dependent."""
    n = ambient if isinstance(ambient, (int, np.integer)) else space_dim(ambient)
    rows = np.asarray(rows, dtype=float)
    if not np.isfinite(rows).all():
        raise ValueError("subspace vectors must be finite")
    if rows.size == 0:
        return n, np.zeros((0, n)), np.eye(n)
    rows = rows.reshape(-1, n)
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    tol = max(rows.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int((s > max(tol, 1e-12)).sum())
    if rank < rows.shape[0]:
        raise DependentSetError(f"{what} are linearly dependent")
    return n, vt[:rank], vt[rank:]


def subspace_from_basis(ambient, vectors) -> Subspace:
    """Span of the given vectors; raises DependentSetError on dependence.

    `ambient` may be a dimension or a NormSpec (the norm plays no role in the
    linear span, only its dimension is used)."""
    n, span, complement = _split(ambient, vectors, "basis vectors")
    return Subspace(n, _frozen(span.T), _frozen(complement))


def subspace_from_kernel(ambient, functionals) -> Subspace:
    """Common kernel of the given functionals; `ambient` as in
    subspace_from_basis."""
    n, span, complement = _split(ambient, functionals, "kernel functionals")
    return Subspace(n, _frozen(complement.T), _frozen(span))


def sum_subspaces(y: Subspace, z: Subspace) -> Subspace:
    """Span of the union of bases; rank by elimination with pivot tolerance."""
    if y.ambient_dim != z.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    stacked = np.vstack([y.basis.T, z.basis.T])
    keep = _independent_rows(np.array(stacked))
    return subspace_from_basis(y.ambient_dim, stacked[keep])


def intersect_subspaces(y: Subspace, z: Subspace) -> Subspace:
    if y.ambient_dim != z.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    stacked = np.vstack([y.kernel, z.kernel])
    keep = _independent_rows(np.array(stacked))
    return subspace_from_kernel(y.ambient_dim, stacked[keep])


def dist_to_subspace(space, x, sub: Subspace) -> tuple[float, np.ndarray]:
    """min over y in the subspace of ||x - y||, with a minimizer.

    The distance is the restricted radius of {x} in the subspace: one
    `centers.solve_center` call, an LP for polyhedral norms (its minimizer
    the lexicographically smallest nearest point) and otherwise a barrier
    solve whose Kuhn dual bound closes to 1e-12 * max(1, distance), or
    raises OptimizationError.
    """
    x = _check_dim(space, x)
    if sub.ambient_dim != space_dim(space):
        raise DimensionMismatchError("subspace ambient dim mismatch")
    if sub.dim == 0:
        return eval_norm(space, x), np.zeros_like(x)
    if sub.contains(x):
        return 0.0, x.copy()
    from . import centers  # centers imports norms
    res = centers.solve_center(centers.CenterProblem(
        space, sub, centers.FiniteSet([x]), centers.WeightedSum([1.0])))
    return res.rad, res.minimizer


# the most generators, and the most supports, that an annihilator vertex
# enumeration takes on; past either, distances are one LP each
_DUAL_VERTEX_CAP = 4096


def _enumerate_annihilator_vertices(space, basis: np.ndarray):
    """The vertices of {phi : B^T phi = 0, ||phi||_* <= 1}, B = `basis`, one
    per row, or None where the norm is not polyhedral or the enumeration
    would pass _DUAL_VERTEX_CAP.

    The norm is the max over the rows g_i of a symmetric generator set G, so
    the dual unit ball is their hull and the set is the image under G^T of
    {mu >= 0, sum(mu) <= 1, (G B)^T mu = 0}.  Its vertices are zero and the
    basic solutions of the k + 1 equations (G B)^T mu = 0, sum(mu) = 1
    (independent, because G is symmetric), each on a support of k + 1
    generators, solved by `optim.solve_regular`, which skips the supports
    whose equations are singular.
    """
    try:
        gens = explicit_generators(space, _DUAL_VERTEX_CAP)
    except InvalidNormError:
        return None
    m, k = gens.shape[0], basis.shape[1]
    if m > _DUAL_VERTEX_CAP or math.comb(m, k + 1) > _DUAL_VERTEX_CAP:
        return None
    eqs = np.vstack([(gens @ basis).T, np.ones(m)])
    supports = np.array(list(itertools.combinations(range(m), k + 1)))
    rhs = np.zeros((supports.shape[0], k + 1))
    rhs[:, -1] = 1.0
    regular, mu = optim.solve_regular(eqs[:, supports].transpose(1, 0, 2), rhs)
    supports = supports[regular]
    # a zero weight of a degenerate vertex may come out a rounding below zero
    feasible = mu.min(axis=1, initial=0.0) >= -1e-12
    mu, supports = np.maximum(mu[feasible], 0.0), supports[feasible]
    phis = np.einsum("sj,sjn->sn", mu, gens[supports])
    # B^T phi is zero up to rounding; taking it out keeps phi(x) blind to
    # the component of x along the subspace
    phis -= (phis @ basis) @ basis.T
    return np.vstack([np.zeros(gens.shape[1]), phis])


def _annihilator_vertices(space, sub: Subspace):
    """`_enumerate_annihilator_vertices` of the subspace's basis, built on
    first use and kept in the subspace's cache, keyed by the norm object."""
    cache = sub._dual_vertices
    if space not in cache:
        cache[space] = _enumerate_annihilator_vertices(space, sub.basis)
    return cache[space]


def dist_to_subspace_many(space, xs, sub: Subspace) -> np.ndarray:
    """The distances of the rows of `xs` to the subspace, values only.

    For a polyhedral norm, dist(x, Y) = max{phi(x) : phi in the annihilator
    of Y, ||phi||_* <= 1} (Singer, Best Approximation in Normed Linear
    Spaces, 1970, ch. I), and that feasible set does not depend on x: its
    vertices are enumerated once per (norm, subspace), after which every
    distance is the max of one matrix-vector product.  Where they are not
    enumerated (a norm that is not polyhedral, or more generators or
    supports than _DUAL_VERTEX_CAP), each row goes through
    `dist_to_subspace`.  As there, a zero subspace gives the norms and a row
    in the subspace gives 0.0.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise DimensionMismatchError("expected a 2-d array of row vectors")
    xs = _check_dim(space, xs)
    if sub.ambient_dim != space_dim(space):
        raise DimensionMismatchError("subspace ambient dim mismatch")
    if sub.dim == 0:
        return eval_norm_many(space, xs)
    verts = _annihilator_vertices(space, sub)
    if verts is None:
        return np.array([dist_to_subspace(space, x, sub)[0] for x in xs])
    # Subspace.contains, row by row
    resid = _max(np.abs(xs @ sub.kernel.T), 1, initial=0.0)
    inside = resid <= FEAS_TOL * np.maximum(1.0, _max(np.abs(xs), 1, initial=0.0))
    dists = _max(xs @ verts.T, 1)
    dists[inside] = 0.0
    return dists


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


def weight_norm_from_json(data: dict) -> WeightNorm:
    if data["kind"] == "monotone_polyhedral":
        return monotone_polyhedral(data["generators"])
    if data["kind"] == "weighted_lp":
        return weighted_lp(_p_from_json(data["p"]), data["weights"])
    raise ValueError(f"unknown weight norm kind {data['kind']!r}")


def norm_to_json(space) -> dict:
    return _norm(space).to_json()


def norm_from_json(data: dict):
    kind = data["kind"]
    if kind == "polyhedral":
        space = polyhedral(data["generators"])
        # polyhedral() symmetrizes, so only definiteness can fail here
        if space.axiom_failures():
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
