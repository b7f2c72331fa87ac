"""Self-similar input construction for integer channels.

The uniform grid codewords built here do not reach full DoF: every sumset
on an integer channel lies on one lattice, so H(full) - H(interference)
stays at O(1) bits per receiver and the normalized DoF falls like 1/k
(on ex1 with N=1: 0.1252, 0.1050, 0.0911 at k = 8, 9, 10).

Pipeline: size a dyadic grid from the channel (grid_build), put an i.i.d.
uniform codeword distribution on grid-valued M x N codewords, fold each
codeword into a single vector W = sum_n r^{n-1} x^{(n)} with r = 2^{-k}
(fold_codewords), and lift the folded distribution to a self-similar
input with ratio r^N (lift_selfsimilar).  constructed_dof checks that the
scheme's ratio is r^N and hands it to dof_eval, whose entropy-ratio rule
gives the per-receiver ratios H(sumset)/(N k) exactly and re-verifies
every sumset against the contraction sufficient condition rather than
trusting the sizing chain that motivated the grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dimension import (CONVOLVE_CAP, convolve_linear, minmax_dist,
                        open_set_check)
from .engine import DofReport, dof_eval
from .errors import (
    ConditionViolated,
    InputError,
    InvariantViolated,
    OpenSetUnverified,
    ResolutionTooCoarse,
    SupportTooLarge,
    TooFewPoints,
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
    (all downstream safety comes from direct sumset checks)."""

    k: int
    p: int
    N: int
    H_max: Fraction

    def __post_init__(self):
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
    integer entries (see clear_to_integers).  A grid whose codeword
    support (2^{k-p}+1)^{MN} exceeds CONVOLVE_CAP, which uniform_codewords
    would refuse, is refused before any grid value is built."""
    if _over_lcm(x for row in H.blocks for b in row for x in b.entries)[1] != 1:
        raise InputError("grid sizing needs integer entries; "
                         "clear denominators first")
    h_max = max(abs(x) for row in H.blocks for b in row for x in b.entries)
    if h_max == 0:
        raise InputError("all-zero channel has no grid sizing")
    need = 8 * H.K * H.M * int(h_max)  # want 2^p >= need
    p = max(1, (need - 1).bit_length())
    params = ConstructionParams(k=k, p=p, N=N, H_max=Q(h_max))
    # (2^{k-p}+1)^{MN} > 2^{(k-p)MN}: a long enough exponent alone decides
    if ((k - p) * H.M * N >= CONVOLVE_CAP.bit_length()
            or (2 ** (k - p) + 1) ** (H.M * N) > CONVOLVE_CAP):
        raise SupportTooLarge("codeword support of (2^%d+1)^%d points exceeds "
                              "cap %d" % (k - p, H.M * N, CONVOLVE_CAP))
    step = params.grid_step
    return params, tuple(t * step for t in range(2 ** (k - p) + 1))


def uniform_codewords(grid: Sequence, K: int, M: int, N: int
                      ) -> tuple[FiniteDist, ...]:
    """The default multi-letter input: i.i.d. uniform over the grid in
    every one of the M*N codeword entries, identical across users (FiniteDist
    refuses an empty or repeating grid).  The fold is injective, so each
    receiver's full sumset convolves K supports of n_points each, and a
    product n_points^K over CONVOLVE_CAP is refused before any codeword."""
    n_points = len(grid) ** (M * N)
    if n_points > CONVOLVE_CAP:
        raise SupportTooLarge("codeword support of %d points exceeds cap %d"
                              % (n_points, CONVOLVE_CAP))
    if n_points ** K > CONVOLVE_CAP:
        raise SupportTooLarge("full sumset product of %d^%d points exceeds "
                              "cap %d" % (n_points, K, CONVOLVE_CAP))
    dist = FiniteDist.uniform(tuple(itertools.product(grid, repeat=M * N)))
    return tuple(dist for _ in range(K))


def fold_codewords(codeword_dists: Sequence[FiniteDist],
                   params: ConstructionParams) -> tuple[FiniteDist, ...]:
    """Push each user's codeword distribution through the linear folding
    map W = sum_{n=1..N} r^{n-1} x^{(n)} = [I, rI, ..., r^{N-1}I] x
    (codeword entries laid out letter by letter) with convolve_linear.
    Folding is injective whenever r <= m/(m+M) for the set of
    codeword entry values; that condition is checked per user and a
    failure refuses rather than silently merging codewords."""
    r = params.r
    N = params.N
    out = []
    for u, dist in enumerate(codeword_dists):
        if dist.dim % N != 0:
            raise InputError("user %d codewords have %d entries, not a "
                             "multiple of N=%d" % (u + 1, dist.dim, N))
        M = dist.dim // N
        values = {x for pt in dist.lattice for x in pt}
        if not open_set_check(r, values):
            raise OpenSetUnverified(
                "user %d: folding injectivity not certified for r=%s"
                % (u + 1, r))
        F = RatMatrix.hstack([RatMatrix.identity(M).scale(r ** n)
                              for n in range(N)])
        folded = convolve_linear([(F, dist)])
        if len(folded.lattice) != len(dist.lattice):  # certified above
            raise InvariantViolated("user %d: folding is not injective"
                                    % (u + 1,))
        out.append(folded)
    return tuple(out)


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
    """Enumerate V + rV + ... + r^{ell-1}V exactly and return its minimum
    distance and cardinality.  Requires r <= m(V)/(m(V)+M(V)); under that
    condition the sum has |V|^ell distinct points with minimum distance at
    least r^{ell-1} m(V), and both facts are checked on the enumeration."""
    vals = sorted({Q(v) for v in V})
    if len(vals) < 2:
        raise TooFewPoints("need at least 2 distinct values, got %d"
                           % len(vals))
    if ell < 1:
        raise InputError("ell must be at least 1")
    r = Q(r)
    m, M = minmax_dist(vals)
    if not (0 < r < 1) or r > Q(m, m + M):
        raise ConditionViolated(
            "r=%s exceeds the injectivity threshold m/(m+M)=%s"
            % (r, Q(m, m + M)))
    sums = sorted({
        sum((r ** t * combo[t] for t in range(ell)), Q(0))
        for combo in itertools.product(vals, repeat=ell)})
    min_dist = min(b - a for a, b in zip(sums, sums[1:]))
    if min_dist < r ** (ell - 1) * m or len(sums) != len(vals) ** ell:
        raise InvariantViolated(
            "Minkowski sum has %d points at distance %s; expected %d at "
            "distance >= %s" % (len(sums), min_dist, len(vals) ** ell,
                                r ** (ell - 1) * m))
    return min_dist, len(sums)
