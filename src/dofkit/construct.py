"""Self-similar input construction for integer channels.

The uniform grid codewords built here do not reach full DoF: every sumset
on an integer channel lies on one lattice, so H(full) - H(interference)
stays at O(1) bits per receiver and the normalized DoF falls like 1/k
(on ex1 with N=1: 0.1252, 0.1050, 0.0911, 0.0816 at k = 8, 9, 10, 11).

Pipeline: size a dyadic grid from the channel (grid_build), put an i.i.d.
uniform distribution on the grid box of M x N codewords, fold each
codeword into W = sum_n r^{n-1} x^{(n)} with r = 2^{-k} (fold_codewords;
box and fold are each one convolve_linear), and lift the result to a
self-similar input with ratio r^N (lift_selfsimilar).  constructed_dof
checks that the scheme's ratio is r^N and hands it to dof_eval, whose
entropy-ratio rule gives the per-receiver ratios H(sumset)/(N k)
exactly and re-verifies every sumset against the contraction sufficient
condition rather than trusting the sizing chain that motivated the grid.
Each function caps only what it builds: grid_build and uniform_codewords
the codeword box |grid|^{MN}, convolve_linear each step of every fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dimension import _check_power, convolve_linear, minmax_dist
from .engine import DofReport, dof_eval
from .errors import (
    ConditionViolated,
    InputError,
    InvariantViolated,
    OpenSetUnverified,
    ResolutionTooCoarse,
    TooFewPoints,
    _check_ints,
)
from .linalg import ChannelMatrix, RatMatrix, _over_lcm
from .schemes import FiniteDist, SelfSimilarScheme

Q = Fraction


@dataclass(frozen=True)
class ConstructionParams:
    """Resolution exponent k (single-letter ratio r = 2^{-k}), grid
    coarsening p, blocklength N, and the channel magnitude the sizing
    used.  k > p is structural; the sizing inequality 2^{-p} <= 1/(8KM
    H_max) is grid_build's postcondition, not re-checked here, so
    hand-built params can explore finer grids than the sizing allows
    (all downstream safety comes from direct sumset checks).  k, p and N
    must be ints; a float or a bool raises InputError."""

    k: int
    p: int
    N: int
    H_max: Fraction

    def __post_init__(self):
        _check_ints(k=self.k, p=self.p, N=self.N)
        if self.k < 1 or self.p < 1 or self.N < 1:
            raise InputError("k, p, N must be positive integers")
        if self.k <= self.p:
            raise ResolutionTooCoarse(
                "need k > p, got k=%d, p=%d" % (self.k, self.p))

    @property
    def r(self) -> Fraction:
        return Q(1, 2 ** self.k)

    @property
    def grid_step(self) -> Fraction:
        return Q(1, 2 ** (self.k - self.p))


def clear_to_integers(H: ChannelMatrix) -> ChannelMatrix:
    """Scale each transmitter's column block by the lcm of its entry
    denominators; the result has integer entries and identical dof."""
    mults = [_over_lcm(x for i in range(H.K) for x in H.block(i, j).entries)[1]
             for j in range(H.K)]
    return ChannelMatrix.from_blocks(
        [[H.block(i, j).scale(mults[j]) for j in range(H.K)]
         for i in range(H.K)])


def grid_build(H: ChannelMatrix, k: int, N: int = 1
               ) -> tuple[ConstructionParams, tuple[Fraction, ...]]:
    """Smallest grid coarsening p with 2^{-p} <= 1/(8 K M H_max), then the
    dyadic grid 2^{-(k-p)} {0, 1, ..., 2^{k-p}}.  H must already have
    integer entries (see clear_to_integers).  A grid whose codeword box
    (2^{k-p}+1)^{MN} uniform_codewords would refuse is refused before any
    grid value is built, and a long grid before its size is formed."""
    if _over_lcm(x for row in H.blocks for b in row for x in b.entries)[1] != 1:
        raise InputError("grid sizing needs integer entries; "
                         "clear denominators first")
    h_max = max(abs(x) for row in H.blocks for b in row for x in b.entries)
    if h_max == 0:
        raise InputError("all-zero channel has no grid sizing")
    need = 8 * H.K * H.M * int(h_max)  # want 2^p >= need
    p = max(1, (need - 1).bit_length())
    params = ConstructionParams(k=k, p=p, N=N, H_max=Q(h_max))
    _check_power("grid", 2, k - p, "steps")
    _check_power("codeword box", 2 ** (k - p) + 1, H.M * N)
    step = params.grid_step
    return params, tuple(t * step for t in range(2 ** (k - p) + 1))


def uniform_codewords(grid: Sequence, K: int, M: int, N: int
                      ) -> tuple[FiniteDist, ...]:
    """The default multi-letter input: i.i.d. uniform over the grid (not
    empty, no repeats) in each of the M*N codeword entries, identical
    across users.  Its support, the box grid^{MN} in lexicographic order,
    is one convolve_linear of the grid through the M*N unit columns.  A
    box or unit columns ((MN)^2 entries) over the cap are refused first."""
    _check_ints(K=K, M=M, N=N)
    if min(K, M, N) < 1:
        raise InputError("K, M, N must be positive, got %d, %d, %d"
                         % (K, M, N))
    _check_power("codeword box", len(grid), M * N)
    _check_power("unit columns", M * N, 2, "entries")
    box = FiniteDist.uniform(grid)
    dist = convolve_linear([(RatMatrix.from_columns([e]), box)
                            for e in RatMatrix.identity(M * N).to_rows()])
    return (dist,) * K


def fold_codewords(codeword_dists: Sequence[FiniteDist],
                   params: ConstructionParams) -> tuple[FiniteDist, ...]:
    """Push each user's codeword distribution through the linear folding
    map W = sum_{n=1..N} r^{n-1} x^{(n)} = [I, rI, ..., r^{N-1}I] x
    (codeword entries laid out letter by letter) with convolve_linear.
    The fold must be injective, which holds exactly when the folded
    support has as many points as the codewords; one that merges
    codewords is refused with OpenSetUnverified rather than returned.
    Users that share one distribution object share one fold (so the K
    users of uniform_codewords fold once)."""
    r = params.r
    N = params.N
    folds: dict[int, FiniteDist] = {}
    for u, dist in enumerate(codeword_dists):
        if id(dist) in folds:
            continue
        if dist.dim % N != 0:
            raise InputError("user %d codewords have %d entries, not a "
                             "multiple of N=%d" % (u + 1, dist.dim, N))
        M = dist.dim // N
        F = RatMatrix.hstack([RatMatrix.identity(M).scale(r ** n)
                              for n in range(N)])
        folded = convolve_linear([(F, dist)])
        if len(folded.lattice) != len(dist.lattice):
            raise OpenSetUnverified("user %d: folding at r=%s merges "
                                    "codewords" % (u + 1, r))
        folds[id(dist)] = folded
    return tuple(folds[id(dist)] for dist in codeword_dists)


def lift_selfsimilar(folded: Sequence[FiniteDist],
                     params: ConstructionParams) -> SelfSimilarScheme:
    """Repeat the folded block geometrically: ratio r^N, supports as-is."""
    return SelfSimilarScheme(ratio=params.r ** params.N,
                             supports=tuple(folded))


def constructed_dof(H: ChannelMatrix, scheme: SelfSimilarScheme,
                    params: ConstructionParams) -> DofReport:
    """Exact per-receiver entropy ratios H(sumset)/(N k) for a scheme from
    this pipeline: the check that the scheme's ratio is r^N, then dof_eval,
    which refuses unless both the full and the interference sumset of
    every receiver pass the contraction check with ratio r^N.  For the
    dyadic r^N = 2^{-Nk}, dof_eval's log2(1/r^N) is exactly N k."""
    if scheme.ratio != params.r ** params.N:
        raise InputError("scheme ratio %s does not match params (r^N = %s)"
                         % (scheme.ratio, params.r ** params.N))
    return dof_eval(H, scheme)


def minkowski_check(V: Sequence, r, ell: int) -> tuple[Fraction, int]:
    """Minimum distance and cardinality of V + rV + ... + r^{ell-1}V, one
    convolve_linear of the uniform V through the 1x1 terms [[r^t]]; |V|^ell
    points over the cap are refused before any term.  Requires r <=
    m(V)/(m(V)+M(V)), under which the sum has |V|^ell points at distance
    >= r^{ell-1} m(V); both facts are checked on the enumeration."""
    vals = sorted({Q(v) for v in V})
    if len(vals) < 2:
        raise TooFewPoints("need at least 2 distinct values, got %d"
                           % len(vals))
    _check_ints(ell=ell)
    if ell < 1:
        raise InputError("ell must be at least 1")
    _check_power("Minkowski sum", len(vals), ell)
    r = Q(r)
    m, M = minmax_dist(vals)
    if not (0 < r < 1) or r > Q(m, m + M):
        raise ConditionViolated(
            "r=%s exceeds the injectivity threshold m/(m+M)=%s"
            % (r, Q(m, m + M)))
    V = FiniteDist.uniform(vals)
    S = convolve_linear([(RatMatrix.from_rows([[r ** t]]), V)
                         for t in range(ell)])
    sums = [x for (x,) in S.lattice]
    min_dist = Q(min(b - a for a, b in zip(sums, sums[1:])), S.L)
    if min_dist < r ** (ell - 1) * m or len(sums) != len(vals) ** ell:
        raise InvariantViolated(
            "Minkowski sum has %d points at distance %s; expected %d at "
            "distance >= %s" % (len(sums), min_dist, len(vals) ** ell,
                                r ** (ell - 1) * m))
    return min_dist, len(sums)
