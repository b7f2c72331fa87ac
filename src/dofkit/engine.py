"""Degrees-of-freedom evaluation for K-user vector interference channels.

The central quantity is, per receiver i,

    term_i = d( sum_j H_{i,j} X_j ) - d( sum_{j != i} H_{i,j} X_j ),

i.e. the dimension of everything the receiver sees minus the dimension of
the interference alone; the channel total is the sum over receivers.  Each
scheme family dispatches to its exact dimension rule.  On top of that this
module provides the K/2 outer bound via a fixed-point-free cross-link
certificate, row/column scaling transforms, parallel-subchannel extraction
and composition, the MIMO zero-forcing feasibility test, complex-channel
stacking, the cyclic-delay construction, the 3-user standard form, the
rational-strictness predicate, and a finite exhaustive direction search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .dimension import (
    DimValue,
    convolve_linear,
    dim_mixture_sum,
    dim_subspace_sum,
    entropy_finite,
    log2_inv_ratio,
    open_set_check,
    sum_dims,
)
from .errors import (
    BudgetExceeded,
    DimMismatch,
    InputError,
    InvariantViolated,
    NotFullyConnected,
    NotParallel,
    NotStandardForm,
    OddM,
    OpenSetUnverified,
    SingularBlock,
    SingularScaling,
    TooFewUsers,
    UserCountMismatch,
    _check_ints,
)
from .linalg import (
    ChannelMatrix,
    RatMatrix,
    Subspace,
    _vec,
    column_space,
    find_derangement,
    mat_det,
    mat_rank,
    projected_dim,
)
from .schemes import (
    FiniteDist,
    MixtureScheme,
    Scheme,
    SelfSimilarScheme,
    SubspaceScheme,
    validate_scheme,
)

Q = Fraction

SEARCH_BUDGET = 10 ** 6

# A total at most this far above the bound (floating-point paths only) still
# counts as meeting it; exact paths compare exactly.
_FLOAT_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class ReceiverTerms:
    full_dim: DimValue
    interference_dim: DimValue
    term: DimValue


@dataclass(frozen=True)
class DofReport:
    """Per-receiver dimension terms plus channel-level aggregates.

    normalized is total divided by the signal dimension M (a Fraction on
    exact rational paths, a float otherwise).  bound is KM/2 when the
    fixed-point-free certificate exists, else None, in which case
    bound_met is None as well.
    """

    per_receiver: tuple[ReceiverTerms, ...]
    total: DimValue
    normalized: Union[Fraction, float]
    bound: Optional[Fraction]
    bound_met: Optional[bool]
    method: str


def upper_bound(H: ChannelMatrix) -> Optional[Fraction]:
    """KM/2 when a fixed-point-free assignment with nonsingular cross
    blocks exists; None when the hypothesis cannot be certified (the bound
    may still hold -- absence is not a converse)."""
    cert = find_derangement(H)
    if cert is None:
        return None
    return Q(H.K * H.M, 2)


def _normalized(total: DimValue, M: int) -> Union[Fraction, float]:
    if total.kind == "rational":
        return total.rational / M
    return total.as_float() / M


def _bound_met(total: DimValue, bound: Optional[Fraction]) -> Optional[bool]:
    if bound is None:
        return None
    if total.kind == "rational":
        return total.rational <= bound
    return total.as_float() <= float(bound) + _FLOAT_BOUND_SLACK


def assemble_report(pairs: Sequence[tuple[DimValue, DimValue]],
                    H: ChannelMatrix, method: str) -> DofReport:
    per_receiver = tuple(
        ReceiverTerms(full_dim=f, interference_dim=i, term=f.minus(i))
        for f, i in pairs)
    total = sum_dims([r.term for r in per_receiver])
    bound = upper_bound(H)
    return DofReport(
        per_receiver=per_receiver,
        total=total,
        normalized=_normalized(total, H.M),
        bound=bound,
        bound_met=_bound_met(total, bound),
        method=method,
    )


def dof_eval(H: ChannelMatrix, scheme: Scheme) -> DofReport:
    """Evaluate the achieved degrees of freedom of a scheme on a channel."""
    validate_scheme(scheme, H)
    K = H.K

    if isinstance(scheme, SubspaceScheme):
        pairs = []
        for i in range(K):
            images = [H.block(i, j) * scheme.directions[j] for j in range(K)]
            full = dim_subspace_sum(images)
            interference = dim_subspace_sum(
                [images[j] for j in range(K) if j != i])
            pairs.append((DimValue.from_rational(full),
                          DimValue.from_rational(interference)))
        return assemble_report(pairs, H, "rank")

    if isinstance(scheme, MixtureScheme):
        for i in range(K):
            for j in range(K):
                if mat_det(H.block(i, j)) == 0:
                    raise SingularBlock(
                        "mixture rule needs every block nonsingular; "
                        "block (%d,%d) is singular" % (i + 1, j + 1))
        alphas = scheme.alphas
        pairs = []
        for i in range(K):
            full = dim_mixture_sum(alphas, H.M)
            interference = dim_mixture_sum(
                [alphas[j] for j in range(K) if j != i], H.M)
            pairs.append((DimValue.from_rational(full),
                          DimValue.from_rational(interference)))
        return assemble_report(pairs, H, "mixture")

    if isinstance(scheme, SelfSimilarScheme):
        r = scheme.ratio
        log2_inv = log2_inv_ratio(r)
        pairs = []
        for i in range(K):
            others = [j for j in range(K) if j != i]
            pair = []
            for name, users in (("full", range(K)), ("interference", others)):
                dist = convolve_linear(
                    [(H.block(i, j), scheme.supports[j]) for j in users])
                if not open_set_check(r, dist.lattice):
                    raise OpenSetUnverified(
                        "receiver %d %s sumset fails the contraction check"
                        % (i + 1, name))
                pair.append(DimValue.from_entropy_ratio(entropy_finite(dist),
                                                        log2_inv))
            pairs.append(tuple(pair))
        return assemble_report(pairs, H, "entropy-ratio")

    raise InputError("unknown scheme type %r" % (type(scheme).__name__,))


def scale_transform(H: ChannelMatrix, D1: Sequence[RatMatrix],
                    D2: Sequence[RatMatrix]) -> ChannelMatrix:
    """Blockwise row/column scaling: block (i,j) becomes D1_i H_{i,j} D2_j.
    Every scaling block must be M x M and nonsingular."""
    if len(D1) != H.K or len(D2) != H.K:
        raise UserCountMismatch("need one scaling block per user on each side")
    for side, blocks in (("row", D1), ("column", D2)):
        for t, B in enumerate(blocks):
            if (B.rows, B.cols) != (H.M, H.M):
                raise DimMismatch("%s scaling block %d is not M x M"
                                  % (side, t + 1))
            if mat_det(B) == 0:
                raise SingularScaling("%s scaling block %d is singular"
                                      % (side, t + 1))
    blocks = [[D1[i] * H.block(i, j) * D2[j] for j in range(H.K)]
              for i in range(H.K)]
    return ChannelMatrix.from_blocks(blocks)


@dataclass(frozen=True)
class ParallelDecomposition:
    subchannels: tuple[RatMatrix, ...]
    fully_connected: bool
    dets_verified: bool


def parallel_extract(H: ChannelMatrix) -> ParallelDecomposition:
    """Split an all-diagonal-blocks channel into its M scalar subchannel
    matrices H[m], verifying det H_{i,j} = prod_m h_{i,j}[m] on the way."""
    for i in range(H.K):
        for j in range(H.K):
            if not ChannelMatrix._is_diag(H.block(i, j)):
                raise NotParallel("block (%d,%d) is not diagonal"
                                  % (i + 1, j + 1))
    subs = []
    for m in range(H.M):
        subs.append(RatMatrix.from_rows(
            [[H.block(i, j).at(m, m) for j in range(H.K)]
             for i in range(H.K)]))
    fully_connected = all(
        subs[m].at(i, j) != 0
        for m in range(H.M) for i in range(H.K) for j in range(H.K))
    dets_ok = True
    for i in range(H.K):
        for j in range(H.K):
            prod = Q(1)
            for m in range(H.M):
                prod *= subs[m].at(i, j)
            if mat_det(H.block(i, j)) != prod:
                dets_ok = False
    return ParallelDecomposition(tuple(subs), fully_connected, dets_ok)


def compose_independent(per_subchannel: Sequence[SubspaceScheme]) -> SubspaceScheme:
    """Stack M scalar-subchannel subspace schemes into one scheme on R^M
    by block-diagonal placement of the per-subchannel directions; on a
    parallel channel the composed dof is the sum of the per-subchannel
    dofs (independent latents across subchannels)."""
    if not per_subchannel:
        raise InputError("no subchannel schemes to compose")
    K = len(per_subchannel[0].directions)
    tag = per_subchannel[0].latent_tag
    M = len(per_subchannel)
    for s in per_subchannel:
        if len(s.directions) != K:
            raise UserCountMismatch("subchannel schemes disagree on K")
        if s.latent_tag != tag:
            raise InputError("subchannel schemes disagree on latent tag")
        for V in s.directions:
            if V.rows != 1:
                raise DimMismatch("subchannel directions must be scalar (1 x d)")
    directions = []
    for j in range(K):
        parts = [s.directions[j] for s in per_subchannel]
        directions.append(RatMatrix.from_blocks(
            [[p if n == m else RatMatrix.zeros(1, p.cols)
              for n, p in enumerate(parts)] for m in range(M)]))
    return SubspaceScheme(tuple(directions), tag)


@dataclass(frozen=True)
class MimoConfig:
    """Per-user (transmit subspace U_i, receive subspace V_i) pairs with
    matching dimensions d_i."""

    pairs: tuple[tuple[Subspace, Subspace], ...]

    def __post_init__(self):
        for t, (U, V) in enumerate(self.pairs):
            if U.dim != V.dim:
                raise DimMismatch("pair %d: dim U = %d but dim V = %d"
                                  % (t + 1, U.dim, V.dim))


@dataclass(frozen=True)
class FeasibilityCert:
    """Outcome of the zero-forcing feasibility test.

    failures holds (condition, indices) with conditions
      "a": cross image H_{i,j} U_j not inside the null space of V_i^T
      "b": projection of H_{i,i} U_i onto V_i loses dimension
      "c": assembled receive matrix [V_i | complement of H_{i,i} U_i] singular
    Indices are 1-based; "a" carries (receiver, transmitter).
    """

    ok: bool
    ell: int
    failures: tuple[tuple[str, tuple[int, ...]], ...]
    detV_nonzero: tuple[bool, ...]


def mimo_check(H: ChannelMatrix, cfg: MimoConfig) -> FeasibilityCert:
    if len(cfg.pairs) != H.K:
        raise UserCountMismatch("need one (U,V) pair per user")
    for t, (U, V) in enumerate(cfg.pairs):
        if U.ambient_dim != H.M or V.ambient_dim != H.M:
            raise DimMismatch("pair %d does not live in R^%d" % (t + 1, H.M))
    failures: list[tuple[str, tuple[int, ...]]] = []
    for i in range(H.K):
        _, V_i = cfg.pairs[i]
        for j in range(H.K):
            if j == i:
                continue
            U_j = cfg.pairs[j][0]
            if U_j.dim == 0 or V_i.dim == 0:
                continue
            cross = V_i.basis.transpose() * (H.block(i, j) * U_j.basis)
            if not cross.is_zero():
                failures.append(("a", (i + 1, j + 1)))
    detv = []
    for i in range(H.K):
        U_i, V_i = cfg.pairs[i]
        desired = column_space(H.block(i, i) * U_i.basis)
        if projected_dim(V_i, desired) != U_i.dim:
            failures.append(("b", (i + 1,)))
        assembled = RatMatrix.hstack(
            [V_i.basis, desired.orthogonal_complement().basis])
        nonzero = assembled.is_square() and mat_det(assembled) != 0
        detv.append(nonzero)
        if not nonzero:
            failures.append(("c", (i + 1,)))
    ell = sum(U.dim for U, _ in cfg.pairs)
    return FeasibilityCert(
        ok=not failures,
        ell=ell,
        failures=tuple(failures),
        detV_nonzero=tuple(detv),
    )


def complex_stack(re_blocks: Sequence[Sequence[RatMatrix]],
                  im_blocks: Sequence[Sequence[RatMatrix]]) -> ChannelMatrix:
    """Real 2M x 2M embedding [[Re, -Im], [Im, Re]] of each complex block.

    DoF totals of the stacked channel count real dimensions: divide by 2
    for the complex-channel convention (normalized values need no fixup,
    since the stacked M is already 2M).
    """
    K = len(re_blocks)
    if len(im_blocks) != K or any(len(r) != K for r in re_blocks) \
            or any(len(r) != K for r in im_blocks):
        raise DimMismatch("real and imaginary grids must both be K x K")
    return ChannelMatrix.from_blocks(
        [[RatMatrix.from_blocks([[R, -I], [I, R]])
          for R, I in zip(re_row, im_row)]
         for re_row, im_row in zip(re_blocks, im_blocks)])


def cyclic_delay_channel(K: int, M: int) -> tuple[ChannelMatrix, SubspaceScheme]:
    """Unit-delay cyclic channel: direct links are identities, every cross
    link shifts by one sample (cyclically, block length M).  The canonical
    scheme puts every user on the even-indexed coordinates, which the odd
    cross-link shift throws onto the odd coordinates; dof comes out KM/2.
    """
    _check_ints(K=K, M=M)
    if K < 3:
        raise TooFewUsers("cyclic construction needs K >= 3, got %d" % K)
    if M < 2 or M % 2 != 0:
        raise OddM("cyclic construction needs even M >= 2, got %d" % M)
    shift_rows = [[0] * M for _ in range(M)]
    shift_rows[0][M - 1] = 1
    for t in range(1, M):
        shift_rows[t][t - 1] = 1
    shift = RatMatrix.from_rows(shift_rows)
    eye = RatMatrix.identity(M)
    blocks = [[eye if i == j else shift for j in range(K)] for i in range(K)]
    H = ChannelMatrix.from_blocks(blocks)
    even = [[int(i == m) for i in range(M)] for m in range(0, M, 2)]
    scheme = SubspaceScheme.from_columns([even] * K)
    return H, scheme


@dataclass(frozen=True)
class StandardForm:
    """3-user standard form [[a,1,1],[1,b,1],[1,d,c]] with the scalings
    that produce it (matrix = diag(rows) * A * diag(cols))."""

    matrix: RatMatrix
    row_scalings: tuple[Fraction, Fraction, Fraction]
    col_scalings: tuple[Fraction, Fraction, Fraction]
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction


# the (row, column) positions, from 0, of the standard form's five ones
STANDARD_ONES = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0))


def standardize_3user(A: RatMatrix) -> StandardForm:
    """Deterministic row/column scalings taking a fully connected 3x3
    matrix to the standard one-pattern [[a,1,1],[1,b,1],[1,d,c]]."""
    if (A.rows, A.cols) != (3, 3):
        raise DimMismatch("standard form is defined for 3x3 matrices")
    h = A.to_rows()
    if any(x == 0 for row in h for x in row):
        raise NotFullyConnected("standard form needs all nine entries nonzero")
    r1 = Q(1)
    c2 = 1 / h[0][1]
    c3 = 1 / h[0][2]
    r2 = h[0][2] / h[1][2]
    c1 = h[1][2] / (h[1][0] * h[0][2])
    r3 = (h[1][0] * h[0][2]) / (h[2][0] * h[1][2])
    rows = (r1, r2, r3)
    cols = (c1, c2, c3)
    S = RatMatrix.from_rows(
        [[rows[i] * h[i][j] * cols[j] for j in range(3)] for i in range(3)])
    for (i, j) in STANDARD_ONES:
        if S.at(i, j) != 1:  # scalings above force the one-pattern
            raise InvariantViolated(
                "standard form entry (%d, %d) is %s, not 1"
                % (i + 1, j + 1, S.at(i, j)))
    return StandardForm(
        matrix=S, row_scalings=rows, col_scalings=cols,
        a=S.at(0, 0), b=S.at(1, 1), c=S.at(2, 2), d=S.at(2, 1))


def is_standard_form(A: RatMatrix) -> bool:
    if (A.rows, A.cols) != (3, 3):
        return False
    if any(x == 0 for x in A.entries):
        return False
    return all(A.at(i, j) == 1 for (i, j) in STANDARD_ONES)


@dataclass(frozen=True)
class StrictnessClaim:
    """Outcome of the rational-parallel strictness predicate.

    The claim rests on a theorem whose written proof covers the a-family;
    the b and c cases follow by relabeling, so claims resting only on them
    are flagged symmetry_based.
    """

    hypothesis_holds: bool
    claim: str  # "DoFStrictlyBelowThreeHalves" | "NoClaim"
    constant_families: tuple[str, ...]
    symmetry_based: bool


def rational_strictness(subchannels: Sequence[RatMatrix]) -> StrictnessClaim:
    """For parallel 3-user subchannels in standard form: if one of the
    families a[.], b[.], c[.] is constant across subchannels, the channel
    admits strictly less than 3/2 normalized DoF (reported, not computed)."""
    if not subchannels:
        raise InputError("no subchannel matrices given")
    for m, S in enumerate(subchannels):
        if not is_standard_form(S):
            raise NotStandardForm("subchannel %d is not in standard form"
                                  % (m + 1,))
    a = [S.at(0, 0) for S in subchannels]
    b = [S.at(1, 1) for S in subchannels]
    c = [S.at(2, 2) for S in subchannels]
    constant = tuple(name for name, fam in (("a", a), ("b", b), ("c", c))
                     if len(set(fam)) == 1)
    holds = bool(constant)
    return StrictnessClaim(
        hypothesis_holds=holds,
        claim="DoFStrictlyBelowThreeHalves" if holds else "NoClaim",
        constant_families=constant,
        symmetry_based=holds and "a" not in constant,
    )


def search_best_subspace(H: ChannelMatrix,
                         pools: Sequence[Iterable[Sequence]],
                         dims: Sequence[int]
                         ) -> tuple[SubspaceScheme, DofReport]:
    """Exhaustively try every assignment of d_j pool vectors per user and
    return the scheme maximizing the dof total (ties: first assignment in
    lexicographic pool-index order).  Pools are read once and at most
    SEARCH_BUDGET assignments are tried, each ranked before a scheme is
    built from its direction matrices: dependent columns skip it."""
    if len(pools) != H.K or len(dims) != H.K:
        raise UserCountMismatch("need one pool and one dimension per user")
    vec_pools = []
    for j, pool in enumerate(pools):
        _check_ints(**{"direction count for user %d" % (j + 1): dims[j]})
        if dims[j] < 0:
            raise InputError("negative direction count for user %d" % (j + 1,))
        vec_pools.append(list(map(_vec, pool)))
        for v in vec_pools[j]:
            if len(v) != H.M:
                raise DimMismatch("pool vector for user %d has length %d, "
                                  "channel has M=%d" % (j + 1, len(v), H.M))
    count = math.prod(map(math.comb, map(len, vec_pools), dims))
    if count > SEARCH_BUDGET:
        raise BudgetExceeded("%d assignments exceed the budget of %d"
                             % (count, SEARCH_BUDGET))
    if count == 0:
        raise InputError("some pool is smaller than the requested dimension")

    best: tuple[SubspaceScheme, DofReport] | None = None
    for assignment in itertools.product(*map(itertools.combinations,
                                             vec_pools, dims)):
        directions = [RatMatrix.from_columns(cols, H.M) for cols in assignment]
        if any(mat_rank(V) != V.cols for V in directions):
            continue
        scheme = SubspaceScheme(tuple(directions))
        report = dof_eval(H, scheme)
        if best is None or report.total.rational > best[1].total.rational:
            best = (scheme, report)
    if best is None:
        raise InputError("no full-rank direction assignment exists in the pool")
    return best
