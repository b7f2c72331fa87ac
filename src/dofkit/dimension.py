"""Exact information-dimension rules.

Three evaluation paths, one per scheme family:
  * rank rule          -- d(sum_j A_j Xtilde_j) = rank [A_1 ... A_K]
  * mixture formula    -- d = M (1 - prod_j (1 - alpha_j))
  * entropy ratio      -- d = H(W) / log2(1/r) for self-similar sums,
    guarded by the sufficient contraction condition r <= m/(m+M) on the
    support's minimum/maximum pairwise l-infinity distances.

The third path only certifies the formula under the sufficient condition;
when it fails the answer may still be correct, but this module refuses to
guess (OpenSetUnverified).  It computes on integers: a FiniteDist is
stored as integer points over L with integer counts over W.
convolve_linear forms each term's images as integer dot products, packs
each into one int key (digits in a base above the sumset's range, so keys
add like points and sort like tuples), folds the keys with the counts
and returns that form.  open_set_check works on the sumset's lattice
(m/(m+M) does not change under scaling), where m is an integer: it
decides m >= t = ceil(r M / (1 - r)) with a sweep capped at t that stops
at 1, so t <= 1 costs one range pass.  entropy_finite takes p = c / W.
Other point sets are cleared to integers by linalg's _lattice first.
Sizes are decided only here: CONVOLVE_CAP caps each fold step's work
and, through _check_power, the base^exponent points a builder enumerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from operator import mul, sub
from typing import Iterable, Sequence

from .errors import (
    AlphaOutOfRange,
    DimMismatch,
    InputError,
    OpenSetUnverified,
    RatioOutOfRange,
    SupportTooLarge,
    TooFewPoints,
)
from .linalg import RatMatrix, _lattice, _vec, mat_rank
from .schemes import FiniteDist

Q = Fraction

CONVOLVE_CAP = 10 ** 6


def _check_power(what: str, base: int, exponent: int,
                 unit: str = "points") -> None:
    """Raise SupportTooLarge when base^exponent, exponent >= 1, exceeds
    CONVOLVE_CAP; since base >= 2 gives at least 2^exponent, a long power
    is never formed."""
    if base >= 2 and (exponent >= CONVOLVE_CAP.bit_length()
                      or base ** exponent > CONVOLVE_CAP):
        raise SupportTooLarge("%s of %d^%d %s exceeds cap %d"
                              % (what, base, exponent, unit, CONVOLVE_CAP))


@dataclass(frozen=True)
class DimValue:
    """An information-dimension value with its provenance.

    kind "rational":      exact Fraction (rank and mixture paths)
    kind "entropy-ratio": entropy_bits / log2_inv_ratio (self-similar path)
    kind "estimate":      Monte Carlo point estimate with optional stderr
    """

    kind: str
    rational: Fraction | None = None
    entropy_bits: float | None = None
    log2_inv_ratio: float | None = None
    estimate: float | None = None
    stderr: float | None = None

    @staticmethod
    def from_rational(q) -> "DimValue":
        return DimValue(kind="rational", rational=Q(q))

    @staticmethod
    def from_entropy_ratio(bits: float, log2_inv_ratio: float) -> "DimValue":
        if log2_inv_ratio <= 0:
            raise RatioOutOfRange("log2(1/r) must be positive")
        return DimValue(kind="entropy-ratio", entropy_bits=float(bits),
                        log2_inv_ratio=float(log2_inv_ratio))

    @staticmethod
    def from_estimate(value: float, stderr: float | None = None) -> "DimValue":
        return DimValue(kind="estimate", estimate=float(value),
                        stderr=None if stderr is None else float(stderr))

    def as_float(self) -> float:
        if self.kind == "rational":
            return float(self.rational)
        if self.kind == "entropy-ratio":
            return self.entropy_bits / self.log2_inv_ratio
        return self.estimate

    def minus(self, other: "DimValue") -> "DimValue":
        if self.kind != other.kind:
            raise DimMismatch("cannot combine %s with %s dimension values"
                              % (self.kind, other.kind))
        if self.kind == "rational":
            return DimValue.from_rational(self.rational - other.rational)
        if self.kind == "entropy-ratio":
            if self.log2_inv_ratio != other.log2_inv_ratio:
                raise DimMismatch("entropy ratios with different denominators")
            return DimValue.from_entropy_ratio(
                self.entropy_bits - other.entropy_bits, self.log2_inv_ratio)
        se = None
        if self.stderr is not None and other.stderr is not None:
            se = math.hypot(self.stderr, other.stderr)
        return DimValue.from_estimate(self.estimate - other.estimate, se)


def sum_dims(values: Sequence[DimValue]) -> DimValue:
    """Sum of same-kind dimension values (entropy ratios must share the
    denominator; estimate standard errors combine in quadrature)."""
    if not values:
        raise InputError("sum of no dimension values")
    kinds = {v.kind for v in values}
    if len(kinds) != 1:
        raise DimMismatch("mixed dimension kinds in one aggregate")
    kind = kinds.pop()
    if kind == "rational":
        return DimValue.from_rational(sum((v.rational for v in values), Q(0)))
    if kind == "entropy-ratio":
        L = values[0].log2_inv_ratio
        if any(v.log2_inv_ratio != L for v in values):
            raise DimMismatch("entropy ratios with different denominators")
        return DimValue.from_entropy_ratio(
            fsum(v.entropy_bits for v in values), L)
    ses = [v.stderr for v in values]
    se = None if any(s is None for s in ses) else math.sqrt(fsum(s * s for s in ses))
    return DimValue.from_estimate(fsum(v.estimate for v in values), se)


def _coord_range(pts: Sequence[tuple[int, ...]]) -> int:
    """The largest coordinate range of integer points: their maximum
    pairwise l-infinity distance."""
    return max(max(c) - min(c) for c in zip(*pts))


def _pair_range(pts: list[tuple[int, ...]]) -> int:
    """_coord_range of distinct points, after checking there are two."""
    if len(pts) < 2:
        raise TooFewPoints("need at least 2 distinct points, got %d" % len(pts))
    return _coord_range(pts)


def _sweep(pts: list[tuple[int, ...]], cap: int) -> int:
    """min(cap, m) for the minimum pairwise l-infinity distance m of two or
    more sorted distinct integer points.  A sweep: the first-coordinate gap
    bounds the distance from below, so each scan stops once it reaches the
    best so far, which starts at cap; and the sweep ends once the best is
    1, since distinct integer points are never closer."""
    m = cap
    for i, a in enumerate(pts):
        for j in range(i + 1, len(pts)):
            if m == 1:
                return 1
            b = pts[j]
            if b[0] - a[0] >= m:
                break
            m = min(m, max(abs(x - y) for x, y in zip(a, b)))
    return m


def _distinct(points: Iterable) -> tuple[list[tuple[int, ...]], int]:
    """The distinct points, sorted, as integer tuples over their common
    denominator L.  Int tuples of one length (a FiniteDist's lattice) are
    read as they are, with L = 1; any other set is read as rationals."""
    pts, L = list(points), 1
    if not all(type(p) is tuple and len(p) == len(pts[0])
               and all(type(x) is int for x in p) for p in pts):
        pts, L = _lattice(list(map(_vec, pts)))
    return sorted(set(pts)), L


def minmax_dist(points: Iterable) -> tuple[Fraction, Fraction]:
    """Minimum and maximum pairwise l-infinity distance of a point set."""
    pts, L = _distinct(points)
    M = _pair_range(pts)
    return Q(_sweep(pts, M), L), Q(M, L)


def open_set_check(r, points: Iterable) -> bool:
    """Sufficient condition r <= m/(m+M) for the contraction images of the
    point set to stay disjoint.  Single-point sets pass trivially.  The
    ratio is scale-free, so it is taken on the integer lattice, and a
    FiniteDist's lattice may be passed for its points.  There m is an
    integer, so the condition is m >= t = ceil(r M / (1 - r)): the sweep
    is capped at t and only decides whether m reaches it.  Since m >= 1,
    t <= 1 passes after the range pass alone, with no pair compared."""
    r = Q(r)
    if not (0 < r < 1):
        raise RatioOutOfRange("ratio must lie in (0,1), got %s" % (r,))
    pts = _distinct(points)[0]
    if len(pts) == 1:
        return True
    M = _pair_range(pts)
    t = math.ceil(r * M / (1 - r))
    return t <= M and _sweep(pts, t) >= t


def entropy_finite(D: FiniteDist) -> float:
    """Shannon entropy in bits; fsum keeps the result exactly rounded and
    independent of summation order.  A probability that rounds to float 0
    adds 0, which is its term rounded too: -p log2 p < 2^-1064 there.
    p = c / W is int division, rounded once like float(Fraction(c, W))."""
    return -fsum(p * math.log2(p) for p in (c / D.W for c in D.counts) if p)


def convolve_linear(terms: Sequence[tuple[RatMatrix, FiniteDist]]
                    ) -> FiniteDist:
    """Exact distribution of sum_j A_j Z_j for independent Z_j ~ D_j, by a
    fold that adds each term's images to the points so far and merges
    coinciding points.  The fold runs on integers.  A_j is cleared once to
    integers over L_A, and D_j is stored over L_D with counts over W_j, so
    an image A_j z is an integer dot product over L_A L_D; every image is
    scaled to the lcm L of those products, and the counts sum to
    prod_j W_j.  Each image y is packed into one int key sum_i y_i B^(d-1-i)
    for a base B above the sumset's range in every coordinate: keys are
    linear in y, so the fold adds ints, and no digit of a sum leaves its
    range, so distinct sums get distinct keys that sort like the tuples.
    The keys are unpacked once, after sorting.  The result is that lattice
    form; no Fraction is built.  A fold step whose work, |points so far|
    x |D_j|, exceeds CONVOLVE_CAP is refused before it runs."""
    if not terms:
        raise InputError("convolution of no terms")
    out_dim = terms[0][0].rows
    for A, D in terms:
        if A.rows != out_dim:
            raise DimMismatch("terms map into different output dimensions")
        if A.cols != D.dim:
            raise DimMismatch("matrix takes dimension %d, support has %d"
                              % (A.cols, D.dim))
    rows = [_lattice(list(map(A.row, range(out_dim)))) for A, _ in terms]
    L = math.lcm(*(LA * D.L for (_, LA), (_, D) in zip(rows, terms)))
    images = [[tuple(L // (LA * D.L) * sum(map(mul, row, z)) for row in rows_A)
               for z in D.lattice] for (rows_A, LA), (_, D) in zip(rows, terms)]
    # the sumset's least and greatest coordinates: sums over the terms
    lo = [sum(c) for c in zip(*(map(min, zip(*im)) for im in images))]
    hi = [sum(c) for c in zip(*(map(max, zip(*im)) for im in images))]
    B = 1 + max(map(sub, hi, lo), default=0)
    powers = [B ** (out_dim - 1 - i) for i in range(out_dim)]
    acc = {0: 1}
    total = 1
    for im, (_, D) in zip(images, terms):
        if len(acc) * len(im) > CONVOLVE_CAP:
            raise SupportTooLarge("fold step of %d x %d points exceeds cap %d"
                                  % (len(acc), len(im), CONVOLVE_CAP))
        keys = [sum(map(mul, y, powers)) for y in im]
        merged: dict[int, int] = {}
        for y, cy in acc.items():
            for key, cz in zip(keys, D.counts):
                point = y + key
                merged[point] = merged.get(point, 0) + cy * cz
        acc = merged
        total *= D.W
    keys = sorted(acc)
    base = sum(map(mul, lo, powers))
    pts = [tuple((key - base) // b % B + x for b, x in zip(powers, lo))
           for key in keys]
    return FiniteDist.on_lattice(pts, L, [acc[key] for key in keys], total)


def dim_subspace_sum(terms: Sequence[RatMatrix]) -> int:
    """d(sum_j A_j Xtilde_j) for independent jointly absolutely continuous
    latents: the rank of the column-concatenation [A_1 ... A_K]."""
    if not terms:
        return 0
    rows = terms[0].rows
    if any(t.rows != rows for t in terms):
        raise DimMismatch("terms with different output dimensions")
    return mat_rank(RatMatrix.hstack(list(terms)))


def dim_mixture_sum(alphas: Sequence, M: int) -> Fraction:
    """d(sum_j B_j X_j) for nonsingular B_j and coordinate-wise mixtures:
    M * (1 - prod_j (1 - alpha_j)).  The caller guarantees nonsingularity."""
    prod = Q(1)
    for j, a in enumerate(alphas):
        a = Q(a)
        if not (0 <= a <= 1):
            raise AlphaOutOfRange("alpha_%d = %s outside [0,1]" % (j + 1, a))
        prod *= 1 - a
    return M * (1 - prod)


def log2_inv_ratio(r) -> float:
    """log2(1/r); refuses a ratio whose reciprocal overflows a float."""
    try:
        return math.log2(Q(1) / r)
    except OverflowError:
        raise RatioOutOfRange("1/r overflows a float for r = %s" % (r,)) from None


def dim_selfsimilar(r, D: FiniteDist) -> DimValue:
    """H(D)/log2(1/r), certified only under the sufficient contraction
    condition; refuses (rather than guesses) when the check fails."""
    r = Q(r)
    if not open_set_check(r, D.lattice):
        raise OpenSetUnverified(
            "cannot certify r = %s against the support's distance ratio" % (r,))
    return DimValue.from_entropy_ratio(entropy_finite(D), log2_inv_ratio(r))
