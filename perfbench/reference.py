"""Reference answers for the benchmark, computed without dofkit.

Nothing here imports dofkit: exact answers come from plain-Fraction
elimination, brute-force enumeration and closed forms, so a defect in the
library cannot hide behind an identical defect in its own check.  Inputs
are plain nested lists of ints and Fractions (row-major K*M x K*M channel
arrays), exactly as the workload generators hand them to dofkit.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

Q = Fraction


def frac_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank by Gauss-Jordan elimination over Fractions."""
    m = [list(map(Q, row)) for row in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def blocks_of(rows: Sequence[Sequence], K: int, M: int) -> list[list[list[list[Fraction]]]]:
    """Split a KM x KM array into K x K blocks of M x M Fraction rows."""
    return [[[[Q(rows[i * M + a][j * M + b]) for b in range(M)]
              for a in range(M)] for j in range(K)] for i in range(K)]


def mat_vec(A: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> tuple:
    return tuple(sum((a * x for a, x in zip(row, v)), Q(0)) for row in A)


def derangement_bound(rows: Sequence[Sequence], K: int, M: int) -> Optional[Fraction]:
    """KM/2 when some fixed-point-free permutation has every cross block
    nonsingular (the outer-bound certificate), else None."""
    blocks = blocks_of(rows, K, M)
    for sigma in itertools.permutations(range(K)):
        if any(sigma[i] == i for i in range(K)):
            continue
        if all(frac_rank(blocks[i][sigma[i]]) == M for i in range(K)):
            return Q(K * M, 2)
    return None


def search_reference(rows, K: int, M: int, pools, dims):
    """Brute-force lexicographic-first argmax of the rank-rule total.

    Assignments are visited in the order of itertools.product over each
    user's index combinations; an assignment whose direction set has
    dependent columns is skipped.  Returns (best total, per-user tuple of
    chosen vectors, bound)."""
    blocks = blocks_of(rows, K, M)
    vecs = [[tuple(map(Q, v)) for v in pool] for pool in pools]
    images = [[[mat_vec(blocks[i][j], v) for v in vecs[j]] for j in range(K)]
              for i in range(K)]
    choices = [list(itertools.combinations(range(len(vecs[j])), dims[j]))
               for j in range(K)]
    full_rank = [{c: frac_rank([[vecs[j][t][a] for t in c] for a in range(M)])
                  == len(c) for c in choices[j]} for j in range(K)]

    ranks: dict = {}

    def rank_of(i, assignment, users):
        """Rank of receiver i's image columns of `users`, memoized on the
        subsets those users chose."""
        key = (i,) + tuple(assignment[j] if j in users else None for j in range(K))
        if key not in ranks:
            cols = [images[i][j][t] for j in users for t in assignment[j]]
            ranks[key] = (frac_rank([[c[a] for c in cols] for a in range(M)])
                          if cols else 0)
        return ranks[key]

    best_total, best = None, None
    for assignment in itertools.product(*choices):
        if not all(full_rank[j][assignment[j]] for j in range(K)):
            continue
        total = 0
        for i in range(K):
            total += (rank_of(i, assignment, range(K))
                      - rank_of(i, assignment, [j for j in range(K) if j != i]))
        if best_total is None or total > best_total:
            best_total, best = total, assignment
    chosen = tuple(tuple(vecs[j][t] for t in best[j]) for j in range(K))
    return Q(best_total), chosen, derangement_bound(rows, K, M)


def entropy_bits(counts, total: int) -> float:
    """Shannon entropy in bits of count/total; fsum is exactly rounded, so
    the result does not depend on summation order."""
    return -math.fsum((c / total) * math.log2(c / total) for c in counts)


def construct_reference(rows, K: int, M: int, k: int):
    """Per-receiver (full, interference) entropy bits and their total for
    the N=1 uniform-grid constructor, by Counter enumeration on the integer
    lattice.

    The grid coarsening p is the smallest with 2^p >= 8 K M H_max, the grid
    is 2^{-(k-p)} {0, ..., 2^{k-p}} and each user's input is uniform over
    grid^M.  Points are kept in units of the grid step, so every sum is an
    integer vector.  The contraction condition r <= m/(m+M) is confirmed
    from the lattice: distinct points differ by at least one step, so
    m >= step, and M is the largest coordinate span."""
    ints = [[int(x) for x in row] for row in rows]
    if any(Q(x) != y for row, irow in zip(rows, ints) for x, y in zip(row, irow)):
        raise ValueError("reference expects an integer channel")
    h_max = max(abs(x) for row in ints for x in row)
    p = max(1, (8 * K * M * h_max - 1).bit_length())
    levels = range(2 ** (k - p) + 1)  # grid values in units of the step
    codewords = list(itertools.product(levels, repeat=M))
    r = Q(1, 2 ** k)
    blocks = [[[ints[i * M + a][j * M: (j + 1) * M] for a in range(M)]
               for j in range(K)] for i in range(K)]

    def sumset(i: int, users) -> Counter:
        acc = Counter({(0,) * M: 1})
        for j in users:
            imgs = Counter(tuple(sum(h * x for h, x in zip(row, w))
                                 for row in blocks[i][j]) for w in codewords)
            nxt: Counter = Counter()
            for y, cy in acc.items():
                for z, cz in imgs.items():
                    nxt[tuple(a + b for a, b in zip(y, z))] += cy * cz
            acc = nxt
        return acc

    def certified(dist: Counter) -> bool:
        if len(dist) == 1:
            return True
        span = max(max(pt[a] for pt in dist) - min(pt[a] for pt in dist)
                   for a in range(M))
        return r <= Q(1, 1 + span)  # step/(step + span*step)

    per_rx = []
    for i in range(K):
        full = sumset(i, range(K))
        intf = sumset(i, [j for j in range(K) if j != i])
        if not (certified(full) and certified(intf)):
            raise ValueError("reference cannot certify receiver %d" % (i + 1))
        n = len(codewords)
        per_rx.append((entropy_bits(full.values(), n ** K),
                       entropy_bits(intf.values(), n ** (K - 1))))
    total = math.fsum(hf - hi for hf, hi in per_rx)
    return tuple(per_rx), total, float(k), derangement_bound(rows, K, M)


def mixture_total(alphas, K: int, M: int) -> Fraction:
    """Closed-form mixture total: sum over receivers of
    M(1 - prod_all(1-a)) - M(1 - prod_{j != i}(1-a))."""
    a = [Q(x) for x in alphas]
    total = Q(0)
    for i in range(K):
        full = M * (1 - math.prod((1 - x for x in a), start=Q(1)))
        intf = M * (1 - math.prod((1 - a[j] for j in range(K) if j != i),
                                  start=Q(1)))
        total += full - intf
    return total


def subspace_total(rows, K: int, M: int, directions) -> Fraction:
    """Rank-rule total for fixed per-user direction columns."""
    blocks = blocks_of(rows, K, M)
    total = 0
    for i in range(K):
        imgs = [[mat_vec(blocks[i][j], v) for v in directions[j]] for j in range(K)]
        full = [c for cs in imgs for c in cs]
        intf = [c for j, cs in enumerate(imgs) if j != i for c in cs]
        total += (frac_rank([[c[a] for c in full] for a in range(M)])
                  - frac_rank([[c[a] for c in intf] for a in range(M)]))
    return Q(total)


def selfsimilar_reference(weights, support, K: int):
    """Exact entropy-ratio answer for a scalar channel whose every row is
    `weights` (so all receivers see the same sumset) and whose users share
    one uniform support.  Returns (per-receiver (full, interference) bits,
    total bits)."""
    def dist(ws) -> Counter:
        acc = Counter({Q(0): 1})
        for w in ws:
            nxt: Counter = Counter()
            for y, cy in acc.items():
                for z in support:
                    nxt[y + w * Q(z)] += cy
            acc = nxt
        return acc

    per_rx = []
    n = len(support)
    for i in range(K):
        full = dist(weights)
        intf = dist([w for j, w in enumerate(weights) if j != i])
        per_rx.append((entropy_bits(full.values(), n ** K),
                       entropy_bits(intf.values(), n ** (K - 1))))
    return tuple(per_rx), math.fsum(hf - hi for hf, hi in per_rx)
