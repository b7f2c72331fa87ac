#!/usr/bin/env python3
"""Recompute the frozen expected values used in the test suite.

Every derived constant that appears as a literal in tests/ is recomputed
here with an independent route (sympy matrices, brute-force enumeration,
plain Fraction arithmetic, a numpy replay of the Monte Carlo estimator) so
the library itself is never in the loop.
Run from the repo root:

    python scripts/derive_oracles.py

and compare the printed values against the literals in the tests.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import sympy


def frac_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])


def entropy_bits(probs):
    # fsum of p*log2(p): exactly-rounded sum, order-independent.
    return -math.fsum(float(p) * math.log2(float(p)) for p in probs if float(p) != 0.0)


def subspace_dof(blocks, directions):
    """Sum of rank(full stack) - rank(interference stack) over receivers.

    blocks: K x K nested list of sympy matrices; directions: per-user sympy
    matrices (M x d_j).
    """
    K = len(blocks)
    total = 0
    per_rx = []
    for i in range(K):
        cols_full = [blocks[i][j] * directions[j] for j in range(K)]
        cols_int = [blocks[i][j] * directions[j] for j in range(K) if j != i]
        full = sympy.Matrix.hstack(*cols_full).rank() if cols_full else 0
        intf = sympy.Matrix.hstack(*cols_int).rank() if cols_int else 0
        per_rx.append((full, intf))
        total += full - intf
    return total, per_rx


# -- Monte Carlo estimator, re-derived without the library --------------------
# The same Philox streams and float operations as dofkit.estimator, but every
# resolution is quantized on its own and its cells are grouped by sorting
# Python tuples, so the frozen estimates do not rest on the library's cell
# grouping.

def philox_chunks(seed, user, n, draw):
    """Concatenate draw(gen, size) over 2^16-sample batches, keyed by
    (seed xor batch, user)."""
    chunks = []
    for start in range(0, n, 1 << 16):
        key = np.array([seed ^ (start >> 16), user], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        chunks.append(draw(gen, min(1 << 16, n - start)))
    return np.concatenate(chunks, axis=0)


def cell_probs(x, k):
    """Per-cell probabilities in lexicographic cell order, and each
    sample's cell index."""
    q = np.floor(x.reshape(len(x), -1) * float(2 ** k)).astype(np.int64)
    cells = [tuple(row) for row in q.tolist()]
    order = sorted(Counter(cells).items())
    index = {cell: t for t, (cell, _) in enumerate(order)}
    counts = np.array([c for _, c in order])
    return counts / len(cells), np.array([index[c] for c in cells])


def plugin_entropy(p):
    return float(-np.sum(p * np.log2(p)))


def estimate_dim_oracle(x, k1, k2):
    """(value, stderr) of the two-point entropy slope and its uncertainty
    proxy: noise, occupancy bias and curvature in quadrature."""
    n, span = len(x), k2 - k1
    p1, inv1 = cell_probs(x, k1)
    p2, inv2 = cell_probs(x, k2)
    h1, h2 = plugin_entropy(p1), plugin_entropy(p2)
    value = (h2 - h1) / span
    g = (np.log2(p1[inv1]) - np.log2(p2[inv2])) / span
    s_noise = float(np.std(g, ddof=1) / math.sqrt(n))
    s_bias = (len(p2) - len(p1)) / (2.0 * n * math.log(2) * span)
    s_curv = 0.0
    if span >= 2:
        mid = (k1 + k2) // 2
        hm = plugin_entropy(cell_probs(x, mid)[0])
        s_curv = abs((h2 - hm) / (k2 - mid) - (hm - h1) / (mid - k1))
    return value, math.hypot(s_noise, s_bias, s_curv)


def receiver_estimates(rows, K, M, samples, k1, k2):
    """float.hex of (full value, full stderr, interference value,
    interference stderr) per receiver."""
    out = []
    for i in range(K):
        B = [np.array([[float(Fraction(v)) for v in r[j * M:(j + 1) * M]]
                       for r in rows[i * M:(i + 1) * M]]) for j in range(K)]
        full = sum(samples[j] @ B[j].T for j in range(K))
        intf = sum(samples[j] @ B[j].T for j in range(K) if j != i)
        out.append(tuple(v.hex() for v in estimate_dim_oracle(full, k1, k2)
                         + estimate_dim_oracle(intf, k1, k2)))
    return out


def main() -> None:
    print("== determinant of [[1,1,-1],[-1,1,1],[1,-1,1]] ==")
    print(frac_matrix([[1, 1, -1], [-1, 1, 1], [1, -1, 1]]).det())

    print("\n== dim of orthogonal projection of span((1,2)) onto span((3,-1)) ==")
    b = frac_matrix([[3], [-1]])
    proj = b * (b.T * b) ** -1 * b.T
    print((proj * frac_matrix([[1], [2]])).rank())

    print("\n== mixture dimension, alpha=(1/2,1/2), M=2 ==")
    a = [sympy.Rational(1, 2)] * 2
    print(2 * (1 - (1 - a[0]) * (1 - a[1])))

    print("\n== mixture dof total, K=3, M=2, alpha=(1/2,1/2,1/2) ==")
    al = [Fraction(1, 2)] * 3
    coeff = sum(al[i] * math.prod(1 - al[j] for j in range(3) if j != i) for i in range(3))
    print(2 * coeff)

    print("\n== mixture dof total, K=2, M=2, alpha=(1/2,1/2) ==")
    al = [Fraction(1, 2)] * 2
    coeff = sum(al[i] * math.prod(1 - al[j] for j in range(2) if j != i) for i in range(2))
    print(2 * coeff)

    print("\n== Cantor dimension r=1/3, W=uniform{0,2} ==")
    print(repr(1.0 / math.log2(3)))
    print("entropy of W:", entropy_bits([Fraction(1, 2)] * 2))

    print("\n== self-similar dof, K=2, M=1, H=[[1,1],[1,1]], r=1/3, W=uniform{0,2} ==")
    # sumset of two independent uniform{0,2}: {0:1/4, 2:1/2, 4:1/4}
    h_full = entropy_bits([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])
    h_int = entropy_bits([Fraction(1, 2), Fraction(1, 2)])
    log2inv = math.log2(3)
    per_term = h_full / log2inv - h_int / log2inv
    print("per-receiver full bits", h_full, "interference bits", h_int)
    print("total:", repr(2 * per_term))

    # ------------------------------------------------------------------
    ex1_rows = [
        [1, 0, 1, 0, 1, 0],
        [1, 1, 1, 1, 0, 1],
        [1, 0, 1, 0, 1, 0],
        [2, 2, 0, 1, 1, 1],
        [1, 0, 2, 0, 1, 1],
        [0, 1, 0, 1, 0, 1],
    ]
    ex1_blocks = [
        [frac_matrix([r[2 * j : 2 * j + 2] for r in ex1_rows[2 * i : 2 * i + 2]]) for j in range(3)]
        for i in range(3)
    ]
    dirs_ex1 = [frac_matrix([[1], [1]]), frac_matrix([[1], [2]]), frac_matrix([[1], [3]])]
    total, per_rx = subspace_dof(ex1_blocks, dirs_ex1)
    print("\n== three-user M=2 line-direction fixture ==")
    print("per-receiver (full, interference):", per_rx, "total:", total)
    print("off-diagonal block dets:",
          {(i + 1, j + 1): ex1_blocks[i][j].det() for i in range(3) for j in range(3) if i != j})

    print("\n== lexicographic-first argmax over the 5-vector pool, d=(1,1,1) ==")
    pool = [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3)]
    best = None
    winners = []
    for idx in itertools.product(range(5), repeat=3):
        dirs = [frac_matrix([[pool[t][0]], [pool[t][1]]]) for t in idx]
        tot, _ = subspace_dof(ex1_blocks, dirs)
        if best is None or tot > best:
            best = tot
            winners = [idx]
        elif tot == best:
            winners.append(idx)
    print("best:", best, "first argmax:", winners[0], "→", [pool[t] for t in winners[0]])
    print("number of ties:", len(winners))

    # ------------------------------------------------------------------
    print("\n== block-diagonal stacked fixture (two alternating 3x3 subchannels) ==")
    sub1 = [[1, 1, -1], [-1, 1, 1], [1, -1, 1]]
    sub2 = [[1, -1, 1], [1, 1, -1], [-1, 1, 1]]
    stacked_blocks = [
        [sympy.diag(sympy.Rational(sub1[i][j]), sympy.Rational(sub2[i][j])) for j in range(3)]
        for i in range(3)
    ]
    ones = frac_matrix([[1], [1]])
    total, per_rx = subspace_dof(stacked_blocks, [ones] * 3)
    print("per-receiver:", per_rx, "total:", total, "normalized:", sympy.Rational(total, 2))

    print("\n== gain-from-joint-coding fixture, lambda=(1,2) ==")
    lam = [1, 2]
    pg = lambda i, j: sympy.diag(*[sympy.Rational([[1, 0, 0], [1, lam[m], 0], [1, 1, 1]][i][j]) for m in range(2)])
    pg_blocks = [[pg(i, j) for j in range(3)] for i in range(3)]
    dirs_pg = [ones, ones, frac_matrix([[1], [0]])]
    total, per_rx = subspace_dof(pg_blocks, dirs_pg)
    print("per-receiver:", per_rx, "total:", total)

    print("\n   best independent per-subchannel value (activity patterns over pool {[1]}):")
    for m in range(2):
        sub = [[sympy.Rational([[1, 0, 0], [1, lam[m], 0], [1, 1, 1]][i][j]) for j in range(3)] for i in range(3)]
        best_m = 0
        for active in itertools.product([0, 1], repeat=3):
            blocks1 = [[sympy.Matrix([[sub[i][j]]]) for j in range(3)] for i in range(3)]
            dirs1 = [sympy.Matrix([[1]]) if a else sympy.Matrix(1, 0, []) for a in active]
            tot, _ = subspace_dof(blocks1, dirs1)
            best_m = max(best_m, tot)
        print(f"   subchannel {m + 1}: {best_m}")

    # ------------------------------------------------------------------
    print("\n== alignment feasibility fixture (three lines, M=2) ==")
    U = [frac_matrix([[1], [1]]), frac_matrix([[1], [2]]), frac_matrix([[1], [3]])]
    V = [frac_matrix([[3], [-1]]), frac_matrix([[4], [-1]]), frac_matrix([[1], [-1]])]
    ok = True
    for i in range(3):
        for j in range(3):
            if i != j and (V[i].T * ex1_blocks[i][j] * U[j]) != sympy.zeros(1, 1):
                ok = False
                print("   (a) fails at", i + 1, j + 1)
    for i in range(3):
        img = ex1_blocks[i][i] * U[i]
        b = V[i]
        proj = b * (b.T * b) ** -1 * b.T
        if (proj * img).rank() != 1:
            ok = False
            print("   (b) fails at", i + 1)
        comp = sympy.Matrix.hstack(*img.T.nullspace())
        assembled = sympy.Matrix.hstack(V[i], comp)
        if assembled.det() == 0:
            ok = False
            print("   (c) fails at", i + 1)
    print("   all conditions hold:", ok, "ell = 3")

    # ------------------------------------------------------------------
    print("\n== standard-form reduction of [[1,1,-1],[-1,1,1],[1,-1,1]] ==")
    h = frac_matrix(sub1)
    r1 = sympy.Integer(1)
    c2 = 1 / h[0, 1]
    c3 = 1 / h[0, 2]
    r2 = h[0, 2] / h[1, 2]
    c1 = h[1, 2] / (h[1, 0] * h[0, 2])
    r3 = h[1, 0] * h[0, 2] / (h[2, 0] * h[1, 2])
    S = sympy.diag(r1, r2, r3) * h * sympy.diag(c1, c2, c3)
    print("standard matrix:", S.tolist())
    print("(a,b,c,d) =", (S[0, 0], S[1, 1], S[2, 2], S[2, 1]))

    # ------------------------------------------------------------------
    print("\n== folded-grid construction: K=2, M=1, H=[[1,1],[1,-1]], N=2, k=4 ==")
    grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
    r = Fraction(1, 16)
    folded = sorted(set(v1 + r * v2 for v1 in grid for v2 in grid))
    print("|folded support| =", len(folded), "(9 expected, injective fold)")

    def minmax(pts):
        ds = [abs(a - b) for a, b in itertools.combinations(pts, 2)]
        return min(ds), max(ds)

    H = [[1, 1], [1, -1]]
    rN = r ** 2
    sumsets = {}
    for i in range(2):
        full = {}
        for w1 in folded:
            for w2 in folded:
                y = H[i][0] * w1 + H[i][1] * w2
                full[y] = full.get(y, Fraction(0)) + Fraction(1, 81)
        intf = {H[i][1 - i] * w: Fraction(1, 9) for w in folded}
        sumsets[(i, "full")] = full
        sumsets[(i, "interference")] = intf
    for key, dist in sumsets.items():
        m, Mx = minmax(sorted(dist))
        print(f"   rx{key[0] + 1} {key[1]}: {len(dist)} points, m={m}, M={Mx}, "
              f"open-set (r^N={rN} <= {m}/{m + Mx}): {rN <= Fraction(m, 1) / (m + Mx)}")
    per_rx_vals = []
    for i in range(2):
        hf = entropy_bits(sumsets[(i, 'full')].values())
        hi = entropy_bits(sumsets[(i, 'interference')].values())
        per_rx_vals.append((hf, hi))
        print(f"   rx{i + 1}: H_full={hf!r}  H_int={hi!r}  d_full={hf / 8!r}  d_int={hi / 8!r}")
    total = math.fsum((hf - hi) / 8 for hf, hi in per_rx_vals)
    print("   total:", repr(total))

    print("\n== M=2 constructor instance: ex1, k=8, N=1 (tests/test_constructor.py) ==")
    # 8 K M H_max = 96 <= 2^7, so p = 7; the grid is {0, 1/2, 1} per
    # coordinate, N=1 makes the fold the identity, and r = 2^-8.
    grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
    codewords = list(itertools.product(grid, repeat=2))
    r = Fraction(1, 2 ** 8)

    def linf_minmax(pts):
        ds = [max(abs(x - y) for x, y in zip(a, b))
              for a, b in itertools.combinations(pts, 2)]
        return min(ds), max(ds)

    def block(i, j):
        return [row[2 * j:2 * j + 2] for row in ex1_rows[2 * i:2 * i + 2]]

    bits = []
    for i in range(3):
        per = []
        for users in (range(3), [j for j in range(3) if j != i]):
            dist = {}
            for combo in itertools.product(codewords, repeat=len(users)):
                y = tuple(sum(block(i, j)[c][t] * w[t] for j, w in zip(users, combo)
                              for t in range(2)) for c in range(2))
                dist[y] = dist.get(y, Fraction(0)) + Fraction(1, 9 ** len(users))
            m, Mx = linf_minmax(sorted(dist))
            if r > Fraction(m) / (m + Mx):
                print("   rx%d: open-set check fails" % (i + 1))
            per.append(entropy_bits(dist.values()))
        bits.append(per)
        print("   rx%d: H_full=%s  H_int=%s" % (i + 1, per[0].hex(), per[1].hex()))
    print("   total bits:", math.fsum(hf - hi for hf, hi in bits).hex(),
          " log2(1/r) = 8.0")

    print("\n== ex1, k=11, N=1 (tests/test_constructor.py, tests/test_cli.py) ==")
    # p = 7 again, so the grid is {0, 1/16, ..., 1} per coordinate: on the
    # integer lattice the codewords are the 17 x 17 box {0..16}^2, and each
    # sumset is a dict fold of integer counts, one user at a time.  Distinct
    # lattice points are at distance m >= 1, so r = 2^-11 <= m/(m+M) holds
    # whenever the sumset's range M is at most 2^11 - 1.
    box11 = list(itertools.product(range(17), repeat=2))
    for i in range(3):
        per = []
        for users in (range(3), [j for j in range(3) if j != i]):
            dist = {(0, 0): 1}
            for j in users:
                A = block(i, j)
                step = {}
                for y, c in dist.items():
                    for w in box11:
                        z = (y[0] + A[0][0] * w[0] + A[0][1] * w[1],
                             y[1] + A[1][0] * w[0] + A[1][1] * w[1])
                        step[z] = step.get(z, 0) + c
                dist = step
            W = 17 ** (2 * len(users))
            Mx = max(max(c) - min(c) for c in zip(*dist))
            per.append((len(dist), entropy_bits(Fraction(c, W)
                                                for c in dist.values()), Mx))
        print("   rx%d: |full| = %d  H_full = %r  |interference| = %d  "
              "H_int = %r  ranges %d, %d (open set: both < 2^11)"
              % (i + 1, per[0][0], per[0][1], per[1][0], per[1][1],
                 per[0][2], per[1][2]))

    print("\n== geometric sumset minimum distances ==")
    for pts, rr, ell, in ((grid, Fraction(1, 16), 2), ([Fraction(0), Fraction(2)], Fraction(1, 2), 3)):
        sums = {math.fsum([])}  # placeholder replaced below
        sums = {Fraction(0)}
        for t in range(ell):
            sums = {s + rr ** t * v for s in sums for v in pts}
        m, _ = minmax(sorted(sums))
        print(f"   V={pts}, r={rr}, ell={ell}: (min_dist, cardinality) = ({m}, {len(sums)})")

    # ------------------------------------------------------------------
    print("\n== cyclic channel totals ==")
    for K, M in ((3, 2), (3, 4), (4, 6)):
        shift = sympy.zeros(M, M)
        shift[0, M - 1] = 1
        for t in range(1, M):
            shift[t, t - 1] = 1
        blocks = [[sympy.eye(M) if i == j else shift for j in range(K)] for i in range(K)]
        evens = sympy.Matrix.hstack(*[sympy.eye(M)[:, c] for c in range(1, M, 2)])
        total, _ = subspace_dof(blocks, [evens] * K)
        print(f"   (K={K}, M={M}): total {total}  (KM/2 = {K * M // 2})")

    # ------------------------------------------------------------------
    print("\n== smallest p with 2^-p <= 1/(8KM*Hmax) ==")
    for K, M, hmax in ((2, 1, 2), (2, 1, 1)):
        p = 1
        while Fraction(1, 2 ** p) > Fraction(1, 8 * K * M * hmax):
            p += 1
        print(f"   K={K}, M={M}, Hmax={hmax}: p = {p}")

    print("\n== complex 1x1 stacking determinant, h=3+4i ==")
    print(frac_matrix([[3, -4], [4, 3]]).det())

    # ------------------------------------------------------------------
    print("\n== frozen estimates (tests/test_estimator.py, float.hex) ==")
    n = 100_000
    rows = [[1, 0, 1, Fraction(1, 3)], [0, 1, Fraction(1, 4), 1],
            [1, Fraction(1, 5), 1, 0], [Fraction(1, 6), 1, 0, 1]]

    def mixture_draw(gen, size):
        mask = gen.random(size) < 0.5
        return gen.random((size, 2)) * mask[:, None]
    samples = [philox_chunks(7, u, n, mixture_draw) for u in range(2)]
    print("   mixture, seed 7, k=(3,6):", receiver_estimates(rows, 2, 2, samples, 3, 6))

    rows = [[1 if (a if i == j else (a - 1) % 2) == b else 0
             for j in range(3) for b in range(2)] for i in range(3) for a in range(2)]
    line = np.array([[1.0, 0.0]])  # each user on the first coordinate
    samples = [philox_chunks(11, u, n, lambda gen, size: gen.random((size, 1)) @ line)
               for u in range(3)]
    print("   cyclic(3,2), seed 11, k=(2,5):", receiver_estimates(rows, 3, 2, samples, 2, 5))

    # Cantor: depth D is the smallest with 3^-D * 2 / (2/3) < 2^-(12+2)
    D = next(d for d in itertools.count(1)
             if Fraction(1, 3) ** d * 3 < Fraction(1, 2 ** 14))
    weights = (1.0 / 3.0) ** np.arange(D)
    pts = np.array([[0.0], [2.0]])
    x = philox_chunks(20260815, 0, 200_000, lambda gen, size: (
        pts[gen.choice(2, size=(size, D), p=np.array([0.5, 0.5]))]
        * weights[None, :, None]).sum(axis=1))
    print("   Cantor, seed 20260815, k=(8,12), depth %d:" % D,
          tuple(v.hex() for v in estimate_dim_oracle(x, 8, 12)))

    # ------------------------------------------------------------------
    print("\n== elimination outputs (tests/test_linalg.py, ELIMINATION_FROZEN) ==")
    print("   (null-space basis, column-space basis, inverse) as rows")

    def as_rows(cols, n_rows):
        m = sympy.Matrix.hstack(*cols) if cols else sympy.zeros(n_rows, 0)
        return [[str(x) for x in m.row(i)] for i in range(n_rows)]

    F = Fraction
    for name, rows in (
            ("rank_deficient_3x3", [[1, 2, 3], [2, 4, 6], [1, 0, 1]]),
            ("wide_2x4", [[0, F(1, 2), 0, 3], [2, 1, F(1, 3), -1]]),
            ("tall_4x2", [[1, 2], [3, 4], [5, 6], [7, 8]]),
            ("tall_rank_deficient_4x3",
             [[0, 0, 0], [2, 4, 6], [1, 2, 3], [1, 1, F(-1, 2)]]),
            ("zero_2x3", [[0, 0, 0], [0, 0, 0]]),
            ("nonsingular_3x3", [[0, F(1, 3), 2], [1, 1, -1], [F(5, 2), 0, 4]]),
            ("permutation_3x3", [[0, 0, 1], [0, 2, 0], [3, 0, 0]])):
        A = frac_matrix(rows)
        inv = None
        if A.rows == A.cols:
            inv = ("singular" if A.det() == 0 else
                   [[str(x) for x in A.inv().row(i)] for i in range(A.rows)])
        print("  ", name, as_rows(A.nullspace(), A.cols),
              as_rows(A.columnspace(), A.rows), inv)

    # ------------------------------------------------------------------
    print("\n== sample stream digests (tests/test_estimator.py, SAMPLE_FROZEN) ==")
    n = (1 << 17) + 1

    def digest(arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(a.tobytes())
        return h.hexdigest()

    dirs = [np.array([[1.0], [1.0 / 3.0]]), np.array([[1.0, -0.5], [0.0, 2.0]]),
            None]  # the third user has no directions

    def subspace_draw(V, latent):
        if V is None:
            return lambda gen, size: np.zeros((size, 2))
        return lambda gen, size: getattr(gen, latent)((size, V.shape[1])) @ V.T

    for tag, latent in (("uniform01", "random"), ("gaussian", "standard_normal")):
        print("   subspace_%s:" % tag, digest(
            [philox_chunks(2024, u, n, subspace_draw(V, latent))
             for u, V in enumerate(dirs)]))

    def mixture_draw_alpha(a):
        def draw(gen, size):
            mask = gen.random(size) < a
            return gen.random((size, 2)) * mask[:, None]
        return draw
    print("   mixture:", digest([philox_chunks(2024, u, n, mixture_draw_alpha(a))
                                 for u, a in enumerate((0.5, 1.0 / 3.0, 1.0))]))

    weights = (1.0 / 3.0) ** np.arange(5)

    def ifs_draw(pts, probs):
        pts, probs = np.array(pts), np.array(probs)
        return lambda gen, size: (
            pts[gen.choice(len(pts), size=(size, 5), p=probs)]
            * weights[None, :, None]).sum(axis=1)
    print("   selfsimilar:", digest([
        philox_chunks(2024, 0, n, ifs_draw([[0.0, 0.0], [2.0, 1.0]], [0.5, 0.5])),
        philox_chunks(2024, 1, n, ifs_draw([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]],
                                           [0.25, 0.25, 0.5]))]))


if __name__ == "__main__":
    main()
