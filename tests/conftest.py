"""Shared helpers: seeded random channels, direction sets, scalings, and
a Fraction RREF oracle.

Everything here uses `random.Random(seed)` so that every randomized suite
is reproducible run-to-run; no test draws from global RNG state.
"""

import random
from fractions import Fraction as Q

from dofkit import ChannelMatrix, RatMatrix
from dofkit.linalg import mat_det, mat_rank


def rand_q(rng: random.Random, lo=-9, hi=9, max_den=9, nonzero=False) -> Q:
    while True:
        q = Q(rng.randint(lo, hi), rng.randint(1, max_den))
        if q != 0 or not nonzero:
            return q


def rand_matrix(rng: random.Random, rows: int, cols: int, **kw) -> RatMatrix:
    return RatMatrix(rows, cols,
                     tuple(rand_q(rng, **kw) for _ in range(rows * cols)))


def rand_nonsingular(rng: random.Random, n: int, **kw) -> RatMatrix:
    while True:
        A = rand_matrix(rng, n, n, **kw)
        if mat_det(A) != 0:
            return A


def rand_full_rank(rng: random.Random, rows: int, cols: int) -> RatMatrix:
    """Random rows x cols matrix with independent columns (cols <= rows)."""
    while True:
        A = rand_matrix(rng, rows, cols)
        if mat_rank(A) == cols:
            return A


def rand_channel(rng: random.Random, K: int, M: int,
                 derangeable: bool = False) -> ChannelMatrix:
    """Random K-user channel with M x M rational blocks.

    With derangeable=True every off-diagonal block is nonsingular, so the
    bound certificate always exists.
    """
    blocks = []
    for i in range(K):
        row = []
        for j in range(K):
            if derangeable and i != j:
                row.append(rand_nonsingular(rng, M, nonzero=True))
            else:
                row.append(rand_matrix(rng, M, M))
        blocks.append(row)
    return ChannelMatrix.from_blocks(blocks)


def rand_scheme_dirs(rng: random.Random, K: int, M: int,
                     max_d: int | None = None) -> list[RatMatrix]:
    """One full-column-rank direction matrix per user, dims in [0, max_d]."""
    if max_d is None:
        max_d = M
    dirs = []
    for _ in range(K):
        d = rng.randint(0, max_d)
        dirs.append(rand_full_rank(rng, M, d) if d else RatMatrix.zeros(M, 0))
    return dirs


def rref_reference(rows: list[list[Q]]) -> tuple[list[list[Q]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions
    (in place), and its pivot columns: an oracle independent of the
    library's fraction-free integer kernel."""
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
