import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dofkit import DimValue, FiniteDist, RatMatrix, SelfSimilarScheme
from dofkit.dimension import (
    convolve_linear,
    dim_mixture_sum,
    dim_selfsimilar,
    dim_subspace_sum,
    entropy_finite,
    minmax_dist,
    open_set_check,
    sum_dims,
)
from dofkit.errors import (
    AlphaOutOfRange,
    DimMismatch,
    InputError,
    OpenSetUnverified,
    RatioOutOfRange,
    SupportTooLarge,
    TooFewPoints,
)
from dofkit.serialize import (
    finite_dist_json,
    parse_finite_dist,
    parse_scheme,
    scheme_json,
)

from conftest import rand_matrix


# ---------------------------------------------------------------- DimValue


def test_dimvalue_kinds():
    a = DimValue.from_rational(Q(3, 2))
    assert a.kind == "rational" and a.as_float() == 1.5
    b = DimValue.from_entropy_ratio(1.0, math.log2(3.0))
    assert b.kind == "entropy-ratio"
    assert b.as_float() == 1.0 / math.log2(3.0)
    c = DimValue.from_estimate(0.63, 0.01)
    assert c.kind == "estimate" and c.as_float() == 0.63


def test_dimvalue_minus_rules():
    a = DimValue.from_rational(Q(2))
    b = DimValue.from_rational(Q(1, 2))
    assert a.minus(b).rational == Q(3, 2)
    with pytest.raises(DimMismatch):
        a.minus(DimValue.from_estimate(1.0, 0.1))
    e1 = DimValue.from_entropy_ratio(3.0, 4.0)
    e2 = DimValue.from_entropy_ratio(1.0, 4.0)
    assert e1.minus(e2).entropy_bits == 2.0
    with pytest.raises(DimMismatch):
        e1.minus(DimValue.from_entropy_ratio(1.0, 8.0))
    # estimate difference: stderr adds in quadrature
    g = DimValue.from_estimate(1.0, 0.3).minus(DimValue.from_estimate(0.5, 0.4))
    assert g.estimate == 0.5 and g.stderr == pytest.approx(0.5)


def test_sum_dims():
    vals = [DimValue.from_rational(Q(1, 3))] * 3
    assert sum_dims(vals).rational == 1
    ests = [DimValue.from_estimate(1.0, 0.3), DimValue.from_estimate(2.0, 0.4)]
    s = sum_dims(ests)
    assert s.estimate == 3.0 and s.stderr == pytest.approx(0.5)
    # entropy ratios aggregate bits first, then divide once
    ers = [DimValue.from_entropy_ratio(0.5, math.log2(3.0)),
           DimValue.from_entropy_ratio(0.5, math.log2(3.0))]
    assert sum_dims(ers).entropy_bits == 1.0
    with pytest.raises(DimMismatch):
        sum_dims([vals[0], ests[0]])
    with pytest.raises(InputError):
        sum_dims([])


# ------------------------------------------------------- point-set metrics


def test_minmax_dist_scalar():
    m, M = minmax_dist([0, Q(1, 2), 1])
    assert (m, M) == (Q(1, 2), Q(1))
    m, M = minmax_dist([0, 2])
    assert (m, M) == (Q(2), Q(2))
    with pytest.raises(TooFewPoints):
        minmax_dist([1])


def test_minmax_dist_vectors():
    pts = [(0, 0), (1, 0), (0, 3)]
    m, M = minmax_dist(pts)
    assert m == 1 and M == 3  # sup-norm distances
    # int tuples are read as they are, in any order and with repeats; a
    # bool or a Fraction sends the whole set down the rational path
    for same in ([(0, 3), (1, 0), (0, 0), (1, 0)], [(True, 0), (0, 0), (0, 3)],
                 [(Q(1), 0), (0, 0), (0, 3)]):
        assert minmax_dist(same) == (1, 3)
    assert minmax_dist([(0, 0), (Q(1, 2), 0), (0, 3)]) == (Q(1, 2), 3)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12),
                min_size=2, max_size=9, unique=True))
def test_minmax_dist_matches_bruteforce(vals):
    m, M = minmax_dist(vals)
    dists = [abs(a - b) for a, b in itertools.combinations(vals, 2)]
    assert m == min(dists) and M == max(dists)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(lambda dim: st.lists(
    st.tuples(*[st.integers(-6, 6)] * dim), min_size=2, max_size=12,
    unique=True)), st.integers(1, 4))
def test_minmax_dist_vectors_match_bruteforce(lattice, den):
    # a small lattice makes ties in the sorted sweep's first coordinate
    # common
    pts = [tuple(Q(x, den) for x in p) for p in lattice]
    m, M = minmax_dist(pts)
    dists = [max(abs(x - y) for x, y in zip(a, b))
             for a, b in itertools.combinations(pts, 2)]
    assert m == min(dists) and M == max(dists)


def test_open_set_check():
    assert open_set_check(Q(1, 3), [0, 2])        # 1/3 <= 2/(2+2)
    assert open_set_check(Q(1, 2), [0, 1])        # boundary allowed
    assert not open_set_check(Q(2, 3), [0, 1])
    assert open_set_check(Q(9, 10), [5])          # single point: vacuous
    with pytest.raises(RatioOutOfRange):
        open_set_check(Q(1), [0, 1])


def test_small_point_sets_keep_their_errors():
    # the size is checked before the range pass, whose max() of no
    # points would raise ValueError
    with pytest.raises(TooFewPoints):
        open_set_check(Q(1, 2), [])
    with pytest.raises(TooFewPoints):
        minmax_dist([])
    assert open_set_check(Q(1, 2), [(3, 4)])
    # a repeated point counts once
    assert open_set_check(Q(9, 10), [(3, 4), (3, 4)])
    with pytest.raises(TooFewPoints):
        minmax_dist([(3, 4), (3, 4)])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_open_set_check_decides_like_the_distance_ratio(seed):
    # the check decides m >= ceil(r M / (1 - r)) on the lattice without
    # always measuring m; brute force measures it.  Few first coordinates
    # in 2-D and 3-D put many points in one column of the sweep.
    rng = random.Random(seed)
    dim, den = rng.randint(1, 3), rng.choice([1, 1, 2, 3, 7])
    firsts = (range(-30, 31) if dim == 1
              else rng.sample(range(-5, 6), rng.randint(1, 3)))
    n = rng.randint(2, 40)
    lattice = set()
    while len(lattice) < n:
        lattice.add((rng.choice(firsts),)
                    + tuple(rng.randint(-20, 20) for _ in range(dim - 1)))
    pts = [tuple(Q(x, den) for x in p) for p in lattice]
    dists = [max(abs(x - y) for x, y in zip(a, b))
             for a, b in itertools.combinations(pts, 2)]
    m, M = min(dists), max(dists)
    edge = m / (m + M)
    # at, just above and just below the threshold, and at or below
    # 1/(M+1) on the lattice, where no pair needs comparing
    for r in (edge, edge * Q(10 ** 6 + 1, 10 ** 6),
              edge * Q(10 ** 6 - 1, 10 ** 6), 1 / (M * den + 1)):
        assert open_set_check(r, pts) == (r <= edge)
    assert minmax_dist(pts) == (m, M)


def test_collinear_points_decide_in_milliseconds():
    # 3000 points in one column of the sweep: an exact minimum by
    # comparing pairs took seconds, the stop at distance 1 milliseconds
    pts = [(0, y) for y in range(3000)]
    start = time.perf_counter()
    assert open_set_check(Q(1, 3000), pts)
    assert not open_set_check(Q(1, 2), pts)
    assert minmax_dist(pts) == (1, 2999)
    assert time.perf_counter() - start < 2


def test_point_sets_of_unequal_dimension_are_refused():
    with pytest.raises(DimMismatch):
        minmax_dist([(0,), (1, 5)])
    with pytest.raises(DimMismatch):
        open_set_check(Q(1, 2), [(0, 0), (1,), (3, 9)])
    # int tuples whose lengths differ after the first, and bools
    for pts in ([(0, 5), (1, 5), (2,)], [(True,), (1, 5)], [(0, False), (1,)]):
        with pytest.raises(DimMismatch):
            minmax_dist(pts)
        with pytest.raises(DimMismatch):
            open_set_check(Q(1, 2), pts)


# ----------------------------------------------------------- exact entropy


def test_entropy_finite_exact_dyadic():
    assert entropy_finite(FiniteDist.uniform([0])) == 0.0
    assert entropy_finite(FiniteDist.uniform([0, 1])) == 1.0
    assert entropy_finite(FiniteDist.uniform(range(8))) == 3.0
    skew = FiniteDist.from_pairs([((0,), Q(1, 2)), ((1,), Q(1, 4)),
                                  ((2,), Q(1, 4))])
    assert entropy_finite(skew) == 1.5


def test_entropy_finite_probability_below_float_range_adds_zero():
    # 2^-1100 rounds to float 0; its true term, about 2^-1090 bits, rounds
    # to 0 as well, where math.log2 would refuse the float 0
    tiny = Q(1, 2 ** 1100)
    atom = FiniteDist.from_pairs([((0,), 1 - tiny), ((1,), tiny)])
    assert entropy_finite(atom) == 0.0
    coin = FiniteDist.from_pairs([((0,), Q(1, 2)), ((1,), Q(1, 2) - tiny),
                                  ((2,), tiny)])
    assert entropy_finite(coin) == 1.0
    # the smallest subnormal probability still counts
    sub = Q(1, 2 ** 1074)
    edge = FiniteDist.from_pairs([((0,), 1 - sub), ((1,), sub)])
    assert entropy_finite(edge) == 1074 * 2.0 ** -1074
    # W far above 2^1100 and no power of two: each p = c / W is rounded
    # once, as float(Fraction(c, W)) is, to 0, to a subnormal and to 1/3
    W = 3 ** 2000
    counts = (1, W >> 1070, 3 ** 1999)
    counts += (W - sum(counts),)
    big = FiniteDist.from_pairs([((i,), Q(c, W))
                                 for i, c in enumerate(counts)])
    ps = [float(Q(c, W)) for c in counts]
    assert ps[0] == 0.0 and 0.0 < ps[1] < 2.0 ** -1022
    assert entropy_finite(big) == -math.fsum(p * math.log2(p) for p in ps if p)


def test_entropy_finite_order_independent():
    pairs = [((i,), Q(1, 10) if i < 5 else Q(1, 10)) for i in range(10)]
    rng = random.Random(4)
    base = entropy_finite(FiniteDist.from_pairs(pairs))
    for _ in range(10):
        rng.shuffle(pairs)
        assert entropy_finite(FiniteDist.from_pairs(pairs)) == base


# ------------------------------------------------------------- convolution


def test_convolve_linear_scalar():
    # two fair bits through the identity: triangle weights, merged atom at 1
    D = FiniteDist.uniform([0, 1])
    one = RatMatrix.identity(1)
    out = convolve_linear([(one, D), (one, D)])
    assert out.points == ((Q(0),), (Q(1),), (Q(2),))
    assert out.probs == (Q(1, 4), Q(1, 2), Q(1, 4))


def test_convolve_linear_weighted():
    D = FiniteDist.uniform([0, 1])
    A = RatMatrix.from_rows([[1]])
    B = RatMatrix.from_rows([[Q(1, 2)]])
    out = convolve_linear([(A, D), (B, D)])
    assert {p[0] for p in out.points} == {Q(0), Q(1, 2), Q(1), Q(3, 2)}
    assert sum(out.probs) == 1


def test_convolve_linear_vector_map():
    D = FiniteDist.uniform([0, 1])        # scalar input
    lift = RatMatrix.from_rows([[1], [2]])  # embeds into the plane
    out = convolve_linear([(lift, D)])
    assert out.points == ((Q(0), Q(0)), (Q(1), Q(2)))


def test_convolve_linear_cap():
    # the cap bounds each fold step's work |points so far| x |D_j|, not
    # the product of the support sizes: three 200-point supports through
    # the identity merge to 598 points, and the last step does 399 x 200
    big = FiniteDist.uniform(range(200))
    one = RatMatrix.identity(1)
    out = convolve_linear([(one, big)] * 3)
    sums = Counter([0])
    for _ in range(3):
        step = Counter()
        for s, c in sums.items():
            for z in range(200):
                step[s + z] += c
        sums = step
    assert len(out.lattice) == 598
    assert out == FiniteDist.from_pairs([((s,), Q(c, 200 ** 3))
                                         for s, c in sums.items()])
    # scaled by 1, 200 and 40000 the sum is injective: its third step
    # would hold 40000 x 200 = 8 * 10^6 points, and is refused
    with pytest.raises(SupportTooLarge, match="40000 x 200 points"):
        convolve_linear([(RatMatrix.from_rows([[w]]), big)
                         for w in (1, 200, 40000)])


@pytest.mark.parametrize("terms", [
    # L = 2 divides every coordinate of the images 0 and 2
    [(RatMatrix.from_rows([[Q(1, 2)]]), FiniteDist.uniform([0, 2]))],
    # the zero-matrix term doubles every count, and W = 4
    [(RatMatrix.identity(1), FiniteDist.uniform([0, 1])),
     (RatMatrix.zeros(1, 1), FiniteDist.uniform([0, 1]))],
])
def test_convolve_linear_result_is_in_lowest_terms(terms):
    # the fold's lattice form is reduced, so it equals, hashes like and
    # round-trips through JSON like the distribution built from rationals
    out = convolve_linear(terms)
    rational = FiniteDist.uniform([0, 1])
    assert (out.lattice, out.L, out.counts, out.W) == (((0,), (1,)), 1,
                                                       (1, 1), 2)
    assert out == rational and hash(out) == hash(rational)
    assert finite_dist_json(out) == finite_dist_json(rational)
    assert parse_finite_dist(finite_dist_json(out)) == out
    scheme = SelfSimilarScheme(Q(1, 3), (out, rational))
    assert parse_scheme(scheme_json(scheme)) == scheme


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_convolve_linear_is_sumset(seed):
    rng = random.Random(seed)
    terms = []
    for _ in range(rng.randint(1, 3)):
        vals = rng.sample(range(-6, 7), rng.randint(1, 4))
        w = Q(rng.randint(1, 4), rng.randint(1, 4))
        terms.append((RatMatrix.from_rows([[w]]), FiniteDist.uniform(vals)))
    out = convolve_linear(terms)
    expect = {Q(0)}
    for A, D in terms:
        w = A.at(0, 0)
        expect = {e + w * p[0] for e in expect for p in D.points}
    assert {p[0] for p in out.points} == expect
    assert sum(out.probs) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_convolve_linear_matches_product_enumeration(seed):
    rng = random.Random(seed)
    M = rng.randint(1, 3)
    terms = []
    for _ in range(rng.randint(1, 3)):
        dim = rng.randint(0, 3)  # 0: a zero-column A on the one empty point
        A = RatMatrix.from_rows([[Q(rng.randint(-3, 3), rng.randint(1, 3))
                                  for _ in range(dim)] for _ in range(M)])
        pts = {tuple(Q(rng.randint(-4, 4), rng.randint(1, 4))
                     for _ in range(dim)) for _ in range(rng.randint(1, 4))}
        weights = [rng.randint(1, 3) for _ in pts]
        D = FiniteDist.from_pairs([(p, Q(w, sum(weights)))
                                   for p, w in zip(pts, weights)])
        terms.append((A, D))
    _assert_matches_product_enumeration(terms)


def _assert_matches_product_enumeration(terms):
    out = convolve_linear(terms)
    M = terms[0][0].rows
    expect = {}
    for combo in itertools.product(*[list(zip(D.points, D.probs))
                                     for _, D in terms]):
        y, prob = [Q(0)] * M, Q(1)
        for (A, _), (z, pz) in zip(terms, combo):
            for i in range(M):
                y[i] += sum(A.at(i, c) * z[c] for c in range(A.cols))
            prob *= pz
        expect[tuple(y)] = expect.get(tuple(y), Q(0)) + prob
    assert out.points == tuple(sorted(expect))
    assert out.probs == tuple(expect[y] for y in sorted(expect))


def _term(rows, pairs):
    return (RatMatrix.from_rows(rows), FiniteDist.from_pairs(pairs))


BIG = 10 ** 30  # coordinates far past 2^64: keys are unbounded ints


@pytest.mark.parametrize("terms", [
    # coordinates beyond 2^64 of both signs
    [_term([[BIG, -3 * BIG], [Q(-BIG, 7), 2]],
           [((1, 2), Q(1, 2)), ((-1, 5), Q(1, 3)), ((0, -4), Q(1, 6))]),
     _term([[-BIG], [Q(BIG, 3)]], [((2,), Q(1, 4)), ((-3,), Q(3, 4))])],
    # a term whose images all coincide: zero range in every coordinate
    [_term([[1, 1], [2, 2]], [((0, 2), Q(1, 3)), ((1, 1), Q(1, 3)),
                              ((2, 0), Q(1, 3))]),
     _term([[1], [-1]], [((0,), Q(1, 2)), ((3,), Q(1, 2))])],
    # a zero-column term on the one empty point
    [_term([[], []], [((), Q(1))]),
     _term([[1, 2], [3, -1]], [((0, 1), Q(1, 2)), ((1, 0), Q(1, 2))])],
    # three terms in 3-D, with merges
    [_term([[1, 0, 2], [0, 1, -1], [1, 1, 0]],
           [((0, 0, 1), Q(1, 4)), ((1, 0, 0), Q(1, 4)),
            ((0, 1, 0), Q(1, 2))]),
     _term([[1, 0], [0, 1], [Q(1, 2), 0]],
           [((1, 1), Q(1, 3)), ((2, 0), Q(2, 3))]),
     _term([[-1], [1], [0]], [((0,), Q(1, 5)), ((1,), Q(4, 5))])],
])
def test_packed_fold_matches_product_enumeration(terms):
    _assert_matches_product_enumeration(terms)


# ------------------------------------------------------------ three rules


def test_dim_subspace_sum():
    V1 = RatMatrix.from_rows([[1], [1]])
    V2 = RatMatrix.from_rows([[1], [2]])
    assert dim_subspace_sum([V1, V2]) == 2
    assert dim_subspace_sum([V1, V1]) == 1
    assert dim_subspace_sum([]) == 0
    assert dim_subspace_sum([RatMatrix.zeros(2, 0)]) == 0


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000))
def test_dim_subspace_sum_submodular(seed):
    rng = random.Random(seed)
    M = rng.randint(1, 4)
    A = rand_matrix(rng, M, rng.randint(0, 3))
    B = rand_matrix(rng, M, rng.randint(0, 3))
    C = rand_matrix(rng, M, rng.randint(0, 3))
    lhs = dim_subspace_sum([A, B, C]) - dim_subspace_sum([B, C])
    rhs = dim_subspace_sum([A, B]) - dim_subspace_sum([B])
    assert lhs <= rhs  # adding context only shrinks the marginal gain


def test_dim_mixture_sum():
    assert dim_mixture_sum([Q(1, 2), Q(1, 2)], 2) == Q(3, 2)
    assert dim_mixture_sum([Q(1, 2), Q(1, 2), Q(1, 2)], 2) == Q(7, 4)
    assert dim_mixture_sum([Q(1)], 3) == 3
    assert dim_mixture_sum([Q(0), Q(0)], 5) == 0
    with pytest.raises(AlphaOutOfRange):
        dim_mixture_sum([Q(3, 2)], 1)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=16),
                min_size=1, max_size=5),
       st.integers(1, 4))
def test_dim_mixture_sum_bounds(alphas, M):
    v = dim_mixture_sum(alphas, M)
    assert 0 <= v <= M
    assert (v == M) == any(a == 1 for a in alphas)


def test_dim_selfsimilar_cantor():
    W = FiniteDist.uniform([0, 2])
    v = dim_selfsimilar(Q(1, 3), W)
    assert v.kind == "entropy-ratio"
    assert v.entropy_bits == 1.0
    assert v.log2_inv_ratio == math.log2(3.0)
    assert v.as_float() == 0.6309297535714575  # 1/log2(3), enumerated oracle


def test_dim_selfsimilar_refuses_ratio_beyond_float_range():
    # 1/r = 2^1100 has no float, so log2(1/r) cannot be formed
    with pytest.raises(RatioOutOfRange):
        dim_selfsimilar(Q(1, 2 ** 1100), FiniteDist.uniform([0, 1]))
    v = dim_selfsimilar(Q(1, 2 ** 1000), FiniteDist.uniform([0, 1]))
    assert v.log2_inv_ratio == 1000.0


def test_dim_selfsimilar_refuses_overlap():
    with pytest.raises(OpenSetUnverified):
        dim_selfsimilar(Q(2, 3), FiniteDist.uniform([0, 1]))


def test_dim_selfsimilar_scale_invariant():
    rng = random.Random(9)
    for _ in range(40):
        vals = rng.sample(range(-8, 9), rng.randint(2, 5))
        r = Q(rng.randint(1, 4), rng.randint(5, 12))
        if not open_set_check(r, vals):
            continue
        c = Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        a = dim_selfsimilar(r, FiniteDist.uniform(vals))
        b = dim_selfsimilar(r, FiniteDist.uniform([c * v for v in vals]))
        assert a == b  # entropy and spacing ratio both scale out
