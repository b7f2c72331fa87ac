"""Exact rational linear algebra: matrices over Fraction, subspaces,
block channel matrices, and the fixed-point-free cross-link search.

Rank and determinant use fraction-free Bareiss elimination over the
integers (rows are cleared of denominators first); intermediate entries
stay minors of the input, which keeps bit growth polynomial instead of
the exponential blowup of naive Fraction elimination.  Inverses, null
spaces and column spaces read their answers off one Fraction RREF (_rref).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import (
    AmbientDimMismatch,
    DimMismatch,
    InputError,
    InvariantViolated,
    NonSquare,
    UserCountMismatch,
)

Q = Fraction


def _q(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class RatMatrix:
    """Immutable rows x cols matrix with Fraction entries (row-major)."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
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
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, tuple(Q(1) if i == j else Q(0)
                               for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, (Q(0),) * (rows * cols))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return self.entries[j::self.cols] if self.cols else ()

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows,
                         tuple(self.at(i, j)
                               for j in range(self.cols)
                               for i in range(self.rows)))

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimMismatch("inner dimensions differ: %d vs %d"
                              % (self.cols, other.rows))
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                cj = other.col(j)
                out.append(sum((a * b for a, b in zip(ri, cj)), Q(0)))
        return RatMatrix(self.rows, other.cols, tuple(out))

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
        if not mats:
            raise InputError("hstack of nothing")
        r = mats[0].rows
        if any(m.rows != r for m in mats):
            raise DimMismatch("hstack requires equal row counts")
        ent = []
        for i in range(r):
            for m in mats:
                ent.extend(m.row(i))
        return RatMatrix(r, sum(m.cols for m in mats), tuple(ent))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def to_float_rows(self) -> list[list[float]]:
        return [[float(x) for x in self.row(i)] for i in range(self.rows)]


def _integer_rows(A: RatMatrix) -> tuple[list[list[int]], int]:
    """Rows of A cleared of denominators, and the product of the row
    multipliers.  Clearing row by row changes neither the rank nor which
    leading minors vanish, and lets Bareiss work in plain ints."""
    out = []
    scale = 1
    for i in range(A.rows):
        row = A.row(i)
        m = lcm(*(x.denominator for x in row)) if row else 1
        scale *= m
        out.append([int(x * m) for x in row])
    return out, scale


def _bareiss(m: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free elimination in place. Returns (rank, sign, last_pivot)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    prev = 1
    sign = 1
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                num = m[i][j] * m[r][c] - m[i][c] * m[r][j]
                q, rem = divmod(num, prev)
                if rem:  # Sylvester's identity guarantees exactness
                    raise InvariantViolated("Bareiss step is not exact")
                m[i][j] = q
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r, sign, prev


def mat_rank(A: RatMatrix) -> int:
    if A.rows == 0 or A.cols == 0:
        return 0
    rank, _, _ = _bareiss(_integer_rows(A)[0])
    return rank


def mat_det(A: RatMatrix) -> Fraction:
    if not A.is_square():
        raise NonSquare("determinant of a %dx%d matrix" % (A.rows, A.cols))
    n = A.rows
    if n == 0:
        return Q(1)
    m, scale = _integer_rows(A)
    rank, sign, last = _bareiss(m)
    if rank < n:
        return Q(0)
    return Q(sign * last, scale)


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions
    (in place), and its pivot columns."""
    cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Q(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def mat_inverse(A: RatMatrix) -> RatMatrix:
    """A^{-1}, read off the right half of the RREF of [A | I]."""
    if not A.is_square():
        raise NonSquare("inverse of a %dx%d matrix" % (A.rows, A.cols))
    n = A.rows
    aug, pivots = _rref([list(A.row(i)) + [Q(1) if i == j else Q(0)
                                           for j in range(n)]
                         for i in range(n)])
    if pivots[:n] != list(range(n)):
        raise InputError("matrix is singular")
    return RatMatrix.from_rows([row[n:] for row in aug])


def null_space(A: RatMatrix) -> RatMatrix:
    """Basis of the right null space, returned as columns (possibly none):
    one vector per free column of the RREF."""
    n = A.cols
    rows, pivots = _rref([list(A.row(i)) for i in range(A.rows)])
    free = [c for c in range(n) if c not in pivots]
    cols = []
    for f in free:
        v = [Q(0)] * n
        v[f] = Q(1)
        for rr, pc in enumerate(pivots):
            v[pc] = -rows[rr][f]
        cols.append(v)
    if not cols:
        return RatMatrix.zeros(n, 0)
    return RatMatrix(n, len(cols),
                     tuple(cols[j][i] for i in range(n) for j in range(len(cols))))


def column_space(A: RatMatrix) -> "Subspace":
    """Span of the columns, with the pivot columns as basis."""
    _, piv_cols = _rref([list(A.row(i)) for i in range(A.rows)])
    if not piv_cols:
        return Subspace.zero(A.rows)
    ent = tuple(A.at(i, c) for i in range(A.rows) for c in piv_cols)
    return Subspace(A.rows, RatMatrix(A.rows, len(piv_cols), ent))


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
        if not columns:
            return cls(ambient_dim, RatMatrix.zeros(ambient_dim, 0))
        cols = [[_q(x) for x in col] for col in columns]
        if any(len(c) != ambient_dim for c in cols):
            raise DimMismatch("column length differs from ambient dimension")
        ent = tuple(cols[j][i] for i in range(ambient_dim) for j in range(len(cols)))
        return cls(ambient_dim, RatMatrix(ambient_dim, len(cols), ent))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RatMatrix.zeros(ambient_dim, 0))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def orthogonal_complement(self) -> "Subspace":
        return Subspace(self.ambient_dim, null_space(self.basis.transpose()))

    def contains(self, vector: Sequence) -> bool:
        v = RatMatrix(self.ambient_dim, 1, tuple(_q(x) for x in vector))
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


def subspace_sum_dim(parts: Sequence[Subspace]) -> int:
    """dim(S_1 + ... + S_n) inside a shared ambient space."""
    if not parts:
        raise InputError("sum of no subspaces")
    amb = parts[0].ambient_dim
    if any(p.ambient_dim != amb for p in parts):
        raise DimMismatch("subspace sum across different ambient spaces")
    return mat_rank(RatMatrix.hstack([p.basis for p in parts]))


@dataclass(frozen=True)
class ChannelMatrix:
    """K x K grid of M x M rational blocks; block (i, j) couples
    transmitter j into receiver i (0-indexed internally)."""

    K: int
    M: int
    blocks: tuple[tuple[RatMatrix, ...], ...]

    def __post_init__(self):
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
        big = RatMatrix.from_rows(rows)
        if (big.rows, big.cols) != (K * M, K * M):
            raise DimMismatch("expected a %d x %d array" % (K * M, K * M))
        blocks = []
        for i in range(K):
            brow = []
            for j in range(K):
                ent = tuple(big.at(i * M + a, j * M + b)
                            for a in range(M) for b in range(M))
                brow.append(RatMatrix(M, M, ent))
            blocks.append(tuple(brow))
        return cls(K, M, tuple(blocks))

    def block(self, i: int, j: int) -> RatMatrix:
        return self.blocks[i][j]

    def full_matrix(self) -> RatMatrix:
        rows = []
        for i in range(self.K):
            for a in range(self.M):
                row = []
                for j in range(self.K):
                    row.extend(self.blocks[i][j].row(a))
                rows.append(row)
        return RatMatrix.from_rows(rows)

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
    with det H_{i, sigma(i)} != 0, or None when no such assignment exists."""
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
