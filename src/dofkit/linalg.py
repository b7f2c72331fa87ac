"""Exact rational linear algebra: matrices over Fraction, subspaces,
block channel matrices, and the fixed-point-free cross-link search.

The exact kernels compute on each matrix's cached integer form,
RatMatrix.int_form: its entries over their least common denominator,
cleared once per matrix.  __mul__ takes integer dot products, and rank,
determinant, inverse, null space and column space all read their answers
off one routine, _eliminate: fraction-free Gauss-Jordan elimination on
Python ints.  Intermediate entries stay minors of the input, which keeps
bit growth polynomial instead of the exponential blowup of naive Fraction
elimination, and the exact RREF is the result divided by one integer.

This module alone reads numerators and denominators: every exact path
that computes on integers takes them from _over_lcm (rationals over their
least common denominator, also behind int_form) or _lattice (points over
one denominator).  A ChannelMatrix caches its derangement certificate,
so the KM/2 bound is decided once per channel.

Matrices are assembled from pieces by two builders only:
RatMatrix.from_columns (column j is columns[j]; a scalar is a 1-vector)
and RatMatrix.from_blocks (a grid of blocks).  Every caller that has
columns or blocks goes through them, so the row-major entry layout is
decided in this module alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    AmbientDimMismatch,
    DimMismatch,
    InputError,
    InvariantViolated,
    NonSquare,
    UserCountMismatch,
    _check_ints,
)

Q = Fraction


def _q(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _vec(point) -> tuple[Fraction, ...]:
    if isinstance(point, (tuple, list)):
        return tuple(map(_q, point))
    return (_q(point),)


@dataclass(frozen=True)
class RatMatrix:
    """Immutable rows x cols matrix with Fraction entries (row-major).
    Equality and hashing read only the fields, not the cached int_form."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        # exact ints skip the call, which the search's loop would pay per matrix
        if type(self.rows) is not int or type(self.cols) is not int:
            _check_ints(rows=self.rows, cols=self.cols)
        if self.rows < 0 or self.cols < 0:
            raise InputError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise InputError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise InputError("ragged rows")
        return cls(r, c, tuple(_q(x) for row in rows for x in row))

    @classmethod
    def from_columns(cls, columns: Iterable, rows: int | None = None
                     ) -> "RatMatrix":
        """Column j is columns[j]; a scalar column is a 1-vector.  rows,
        when given, is the length every column must have; it is required
        when there are no columns."""
        cols = [_vec(c) for c in columns]
        if rows is None:
            if not cols:
                raise InputError("a matrix with no columns needs a row count")
            rows = len(cols[0])
        if any(len(c) != rows for c in cols):
            raise DimMismatch("columns must all have length %d" % rows)
        return cls(rows, len(cols), tuple(x for r in zip(*cols) for x in r))

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence["RatMatrix"]]) -> "RatMatrix":
        """Block matrix with block (a, b) = grid[a][b].  The blocks of one
        grid row share a row count, those of one grid column a column
        count."""
        if not grid or not grid[0]:
            raise InputError("block matrix of no blocks")
        widths = [b.cols for b in grid[0]]
        ent = []
        for brow in grid:
            if ([b.cols for b in brow] != widths
                    or any(b.rows != brow[0].rows for b in brow)):
                raise DimMismatch("blocks of one grid row must share a height "
                                  "and those of one grid column a width")
            ent.extend(x for i in range(brow[0].rows) for b in brow
                       for x in b.row(i))
        return cls(sum(brow[0].rows for brow in grid), sum(widths), tuple(ent))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, tuple(Q(1) if i == j else Q(0)
                               for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, (Q(0),) * (rows * cols))

    @cached_property
    def int_form(self) -> tuple[tuple[int, ...], int]:
        """(ints, L) with entries[i] == ints[i] / L, L the least common
        denominator of the entries."""
        ints, L = _over_lcm(self.entries)
        return tuple(ints), L

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return self.entries[j::self.cols] if self.cols else ()

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        return RatMatrix.from_columns(map(self.row, range(self.rows)), self.cols)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimMismatch("inner dimensions differ: %d vs %d"
                              % (self.cols, other.rows))
        (a, La), (b, Lb) = self.int_form, other.int_form
        n, c, den = self.cols, other.cols, La * Lb
        cols = [b[j::c] for j in range(c)]
        return RatMatrix(self.rows, c, tuple(  # integer dot products over den
            Q(sum(map(mul, a[i * n:(i + 1) * n], col)), den)
            for i in range(self.rows) for col in cols))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimMismatch("shape mismatch in addition")
        return RatMatrix(self.rows, self.cols,
                         tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "RatMatrix":
        c = _q(c)
        return RatMatrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    @staticmethod
    def hstack(mats: Sequence["RatMatrix"]) -> "RatMatrix":
        return RatMatrix.from_blocks([mats])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def to_float_rows(self) -> list[list[float]]:
        return [[float(x) for x in self.row(i)] for i in range(self.rows)]


def _over_lcm(xs: Iterable[Fraction]) -> tuple[list[int], int]:
    """The rationals xs as integers over their least common denominator
    L: xs[i] == ints[i] / L.  L is 1 exactly when every x is an integer."""
    xs = tuple(xs)
    dens = [x.denominator for x in xs]
    L = lcm(*set(dens))
    return [x.numerator * (L // d) for x, d in zip(xs, dens)], L


def _lattice(points: Sequence[Sequence[Fraction]]
             ) -> tuple[list[tuple[int, ...]], int]:
    """Points of one dimension as integer tuples over their common
    denominator L, in the given order (repeats kept)."""
    m = len(points[0]) if points else 0
    if any(len(p) != m for p in points):
        raise DimMismatch("points of unequal dimension")
    ints, L = _over_lcm(x for p in points for x in p)
    return [tuple(ints[i * m:(i + 1) * m]) for i in range(len(points))], L


def _eliminate(A: RatMatrix) -> tuple[list[list[int]], list[int], int, int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968, with the rows
    above each pivot cleared too).

    The rows are A's cached integer form, A times the least common
    denominator L of its entries; that changes neither the rank nor the
    RREF, and det A is det(rows) / L**A.rows.  A pivot p in row r, column
    c then updates every other row i by
        row_i[j] = (row_i[j] * p - row_i[c] * row_r[j]) / prev,
    prev being the previous pivot (1 at the start).  Each division is exact:
    by Sylvester's identity every entry after a step is a minor of the
    cleared input (for a pivot row, the pivot block's minor with its own
    column swapped for column j); a remainder would mean a broken
    invariant and raises InvariantViolated.  Every pivot ends equal to the
    last one: a new pivot row is zero in every earlier pivot column, so
    each step multiplies an earlier pivot, which equals prev, by p / prev.
    The RREF is therefore the returned rows divided by the last pivot.

    Returns (rows, pivot columns, last pivot, sign of the row swaps,
    L**A.rows).
    """
    ints, L = A.int_form
    m = [list(ints[i * A.cols:(i + 1) * A.cols]) for i in range(A.rows)]
    pivots: list[int] = []
    prev = sign = 1
    for c in range(A.cols):
        r = len(pivots)
        piv = next((i for i in range(r, A.rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        pivot_row, p = m[r], m[r][c]
        for i in range(A.rows):
            if i == r:
                continue
            f = m[i][c]
            out = []
            for a, b in zip(m[i], pivot_row):
                q, rem = divmod(a * p - f * b, prev)
                if rem:
                    raise InvariantViolated("fraction-free step is not exact")
                out.append(q)
            m[i] = out
        prev = p
        pivots.append(c)
    return m, pivots, prev, sign, L ** A.rows


def mat_rank(A: RatMatrix) -> int:
    return len(_eliminate(A)[1])


def mat_det(A: RatMatrix) -> Fraction:
    if not A.is_square():
        raise NonSquare("determinant of a %dx%d matrix" % (A.rows, A.cols))
    _, pivots, last, sign, scale = _eliminate(A)
    if len(pivots) < A.rows:
        return Q(0)
    return Q(sign * last, scale)


def mat_inverse(A: RatMatrix) -> RatMatrix:
    """A^{-1}, read off the right half of the RREF of [A | I]."""
    if not A.is_square():
        raise NonSquare("inverse of a %dx%d matrix" % (A.rows, A.cols))
    n = A.rows
    m, pivots, last, _, _ = _eliminate(RatMatrix.hstack([A, RatMatrix.identity(n)]))
    if pivots[:n] != list(range(n)):
        raise InputError("matrix is singular")
    return RatMatrix(n, n, tuple(Q(x, last) for row in m for x in row[n:]))


def null_space(A: RatMatrix) -> RatMatrix:
    """Basis of the right null space, returned as columns (possibly none):
    one vector per free column of the RREF."""
    n = A.cols
    m, pivots, last, _, _ = _eliminate(A)
    free = [c for c in range(n) if c not in pivots]
    row_of = {pc: rr for rr, pc in enumerate(pivots)}
    return RatMatrix(n, len(free), tuple(
        Q(-m[row_of[i]][f], last) if i in row_of else Q(int(i == f))
        for i in range(n) for f in free))


def column_space(A: RatMatrix) -> "Subspace":
    """Span of the columns, with the pivot columns as basis."""
    return Subspace(A.rows, RatMatrix.from_columns(
        map(A.col, _eliminate(A)[1]), A.rows))


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^ambient_dim given by a full-column-rank basis.

    Zero-dimensional subspaces are legal and carry an ambient x 0 basis.
    """

    ambient_dim: int
    basis: RatMatrix

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise AmbientDimMismatch("basis lives in dimension %d, ambient is %d"
                                     % (self.basis.rows, self.ambient_dim))
        if mat_rank(self.basis) != self.basis.cols:
            raise InputError("basis columns are linearly dependent")

    @classmethod
    def from_columns(cls, ambient_dim: int, columns: Sequence[Sequence]) -> "Subspace":
        return cls(ambient_dim, RatMatrix.from_columns(columns, ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RatMatrix.zeros(ambient_dim, 0))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def orthogonal_complement(self) -> "Subspace":
        return Subspace(self.ambient_dim, null_space(self.basis.transpose()))

    def contains(self, vector: Sequence) -> bool:
        v = RatMatrix.from_columns([vector], self.ambient_dim)
        return mat_rank(RatMatrix.hstack([self.basis, v])) == self.dim


def projected_dim(target: Subspace, source: Subspace) -> int:
    """Dimension of the orthogonal projection of `source` onto `target`.

    With B the target basis (full column rank) the projector is
    B (B^T B)^{-1} B^T, and B (B^T B)^{-1} is injective, so the image
    dimension equals rank(B^T S).
    """
    if target.ambient_dim != source.ambient_dim:
        raise DimMismatch("projection between ambient dims %d and %d"
                          % (target.ambient_dim, source.ambient_dim))
    if target.dim == 0 or source.dim == 0:
        return 0
    return mat_rank(target.basis.transpose() * source.basis)


@dataclass(frozen=True)
class ChannelMatrix:
    """K x K grid of M x M rational blocks; block (i, j) couples
    transmitter j into receiver i (0-indexed internally).  Equality and
    hashing read only the fields, not the cached derangement."""

    K: int
    M: int
    blocks: tuple[tuple[RatMatrix, ...], ...]

    def __post_init__(self):
        _check_ints(K=self.K, M=self.M)
        if self.K < 2:
            raise UserCountMismatch("need at least 2 users, got %d" % self.K)
        if self.M < 1:
            raise InputError("block size must be positive")
        if len(self.blocks) != self.K or any(len(r) != self.K for r in self.blocks):
            raise DimMismatch("block grid is not K x K")
        for brow in self.blocks:
            for b in brow:
                if (b.rows, b.cols) != (self.M, self.M):
                    raise DimMismatch("block is not M x M")

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[RatMatrix]]) -> "ChannelMatrix":
        K = len(blocks)
        M = blocks[0][0].rows if K else 0
        return cls(K, M, tuple(tuple(r) for r in blocks))

    @classmethod
    def from_rows(cls, K: int, M: int, rows: Sequence[Sequence]) -> "ChannelMatrix":
        _check_ints(K=K, M=M)  # before K and M size the blocks
        big = RatMatrix.from_rows(rows)
        if (big.rows, big.cols) != (K * M, K * M):
            raise DimMismatch("expected a %d x %d array" % (K * M, K * M))
        return cls.from_blocks([[RatMatrix.from_rows(
            [big.row(a)[j * M:(j + 1) * M] for a in range(i * M, (i + 1) * M)])
            for j in range(K)] for i in range(K)])

    def block(self, i: int, j: int) -> RatMatrix:
        return self.blocks[i][j]

    @cached_property
    def derangement(self) -> "DerangementCert | None":
        """find_derangement's answer, decided once per channel."""
        return _derangement(self)

    def full_matrix(self) -> RatMatrix:
        return RatMatrix.from_blocks(self.blocks)

    def is_parallel(self) -> bool:
        return all(self._is_diag(self.blocks[i][j])
                   for i in range(self.K) for j in range(self.K))

    @staticmethod
    def _is_diag(b: RatMatrix) -> bool:
        return all(b.at(a, c) == 0 for a in range(b.rows)
                   for c in range(b.cols) if a != c)


@dataclass(frozen=True)
class DerangementCert:
    """Witness sigma for the K/2 outer bound: sigma(i) != i and the block
    (i, sigma(i)) is nonsingular for every i.  sigma is 1-indexed."""

    sigma: tuple[int, ...]
    verified: bool


def _kuhn_match(allowed: Sequence[Sequence[int]], n_cols: int) -> list[int] | None:
    # Kuhn's augmenting-path matching saturating every row, or None.
    match_col = [-1] * n_cols

    def try_row(i: int, seen: list[bool]) -> bool:
        for j in allowed[i]:
            if not seen[j]:
                seen[j] = True
                if match_col[j] == -1 or try_row(match_col[j], seen):
                    match_col[j] = i
                    return True
        return False

    for i in range(len(allowed)):
        if not try_row(i, [False] * n_cols):
            return None
    return match_col


def find_derangement(H: ChannelMatrix) -> DerangementCert | None:
    """Lexicographically smallest fixed-point-free assignment i -> sigma(i)
    with det H_{i, sigma(i)} != 0, or None when no such assignment exists;
    decided on the channel's first call and cached on it."""
    return H.derangement


def _derangement(H: ChannelMatrix) -> DerangementCert | None:
    K = H.K
    allowed = [[j for j in range(K) if j != i and mat_det(H.block(i, j)) != 0]
               for i in range(K)]

    def completable(start: int, used: set[int]) -> bool:
        rows = [[c for c in allowed[r] if c not in used] for r in range(start, K)]
        return _kuhn_match(rows, K) is not None

    if not completable(0, set()):
        return None
    chosen: list[int] = []
    used: set[int] = set()
    for i in range(K):
        for j in allowed[i]:
            if j not in used and completable(i + 1, used | {j}):
                chosen.append(j)
                used.add(j)
                break
    return DerangementCert(sigma=tuple(j + 1 for j in chosen), verified=True)
