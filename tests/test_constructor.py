import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as Q

import pytest

from dofkit import (
    ChannelMatrix,
    ConstructionParams,
    FiniteDist,
    RatMatrix,
    SelfSimilarScheme,
    clear_to_integers,
    constructed_dof,
    dof_eval,
    fold_codewords,
    grid_build,
    lift_selfsimilar,
    minkowski_check,
    uniform_codewords,
)
from dofkit import construct
from dofkit.dimension import CONVOLVE_CAP, convolve_linear
from dofkit.examples import ex1
from dofkit.errors import (
    ConditionViolated,
    InputError,
    OpenSetUnverified,
    ResolutionTooCoarse,
    SupportTooLarge,
    TooFewPoints,
)

TWO_USER = ChannelMatrix.from_rows(2, 1, [[1, 1], [1, -1]])


def build_chain(H, k=None, N=1, params=None, grid=None):
    if params is None:
        params, grid = grid_build(H, k, N)
    cw = uniform_codewords(grid, H.K, H.M, params.N)
    folded = fold_codewords(cw, params)
    scheme = lift_selfsimilar(folded, params)
    return params, grid, scheme, constructed_dof(H, scheme, params)


# ------------------------------------------------------------------ params


def test_params_validation():
    p = ConstructionParams(k=4, p=3, N=2, H_max=1)
    assert p.r == Q(1, 16)
    assert p.grid_step == Q(1, 2)
    with pytest.raises(ResolutionTooCoarse):
        ConstructionParams(k=3, p=3, N=1, H_max=1)
    with pytest.raises(InputError):
        ConstructionParams(k=4, p=0, N=1, H_max=1)


@pytest.mark.parametrize("k, p, N", [(8.0, 3, 1), (8, True, 1), (8, 3, 2.0),
                                     (8, 3, True), ("8", 3, 1)])
def test_params_refuse_arguments_that_are_not_integers(k, p, N):
    with pytest.raises(InputError):
        ConstructionParams(k=k, p=p, N=N, H_max=1)


@pytest.mark.parametrize("k, N", [(8.0, 1), (8, 1.0), (8, True)])
def test_grid_build_refuses_arguments_that_are_not_integers(k, N):
    H, _ = ex1()
    with pytest.raises(InputError):
        grid_build(H, k, N)


def test_clear_to_integers():
    H = ChannelMatrix.from_rows(2, 1, [[Q(1, 2), Q(2, 3)], [1, Q(1, 6)]])
    Hi = clear_to_integers(H)
    for i in range(2):
        for j in range(2):
            v = Hi.block(i, j).at(0, 0)
            assert v.denominator == 1
    # scaling is per transmitter: the column ratio is preserved
    assert Hi.block(0, 0).at(0, 0) * H.block(1, 0).at(0, 0) == \
        Hi.block(1, 0).at(0, 0) * H.block(0, 0).at(0, 0)


# -------------------------------------------------------------- grid build


def test_grid_build_resolution():
    # 8*K*M*H_max = 16 for the two-user scalar channel: p = 4
    params, grid = grid_build(TWO_USER, 6)
    assert params.p == 4
    assert grid == (Q(0), Q(1, 4), Q(1, 2), Q(3, 4), Q(1))
    H2 = ChannelMatrix.from_rows(2, 1, [[2, 1], [1, -2]])
    assert grid_build(H2, 7)[0].p == 5  # need = 32
    with pytest.raises(ResolutionTooCoarse):
        grid_build(TWO_USER, 4)  # k must strictly exceed p


def test_grid_build_refuses_codeword_supports_over_the_cap():
    # TWO_USER has p = 4 and M = 1: (2^(k-4)+1)^N codeword points, cap 10^6
    assert len(grid_build(TWO_USER, 5, 12)[1]) == 3  # 3^12 = 531441
    assert len(grid_build(TWO_USER, 13, 2)[1]) == 513  # 513^2 = 263169
    for k, N in ((5, 13), (14, 2), (10 ** 9, 1)):  # 3^13, 1025^2, 2^huge
        with pytest.raises(SupportTooLarge):
            grid_build(TWO_USER, k, N)


@pytest.mark.parametrize("k", [-5, 0])
def test_grid_build_refuses_nonpositive_k_as_input_error(k):
    # the params are built before k is compared with p, so a k that is
    # no resolution at all is an input error, not a too-coarse grid
    with pytest.raises(InputError):
        grid_build(TWO_USER, k)


def test_grid_build_requires_integers():
    H = ChannelMatrix.from_rows(2, 1, [[Q(1, 2), 1], [1, 1]])
    with pytest.raises(InputError):
        grid_build(H, 6)
    with pytest.raises(InputError):
        grid_build(ChannelMatrix.from_rows(2, 1, [[0, 0], [0, 0]]), 6)


def test_grid_spacing_dominates_channel_spread():
    rng = random.Random(3)
    for _ in range(30):
        K = rng.randint(2, 3)
        M = rng.randint(1, 2)
        rows = [[rng.randint(-4, 4) for _ in range(K * M)]
                for _ in range(K * M)]
        rows[0][0] = max(rows[0][0], 1)  # keep the channel nonzero
        H = ChannelMatrix.from_rows(K, M, rows)
        h_max = max(abs(x) for row in rows for x in row)
        k = 4 + max(1, (8 * K * M * h_max - 1).bit_length())
        params, grid = grid_build(H, k)
        assert params.grid_step >= Q(8 * K * M * h_max, 2 ** params.k)


# ------------------------------------------------------ codewords and folds


def test_uniform_codewords():
    grid = (Q(0), Q(1, 2), Q(1))
    dists = uniform_codewords(grid, 2, 1, 2)
    assert len(dists) == 2
    for D in dists:
        assert len(D.points) == 9  # |grid|^(M*N)
        assert all(p == Q(1, 9) for p in D.probs)
        assert D.dim == 2
    with pytest.raises(SupportTooLarge):  # 3^16 points, over CONVOLVE_CAP
        uniform_codewords(grid, 2, 2, 8)
    for bad in ((), (Q(0), Q(1, 2), Q(0))):  # empty, repeating
        with pytest.raises(InputError):
            uniform_codewords(bad, 2, 1, 1)


def test_fold_codewords():
    params = ConstructionParams(k=4, p=3, N=2, H_max=1)
    grid = (Q(0), Q(1, 2), Q(1))
    folded = fold_codewords(uniform_codewords(grid, 2, 1, 2), params)
    assert [len(F.points) for F in folded] == [9, 9]  # injective fold
    vals = {pt[0] for pt in folded[0].points}
    assert vals == {a + b * Q(1, 16) for a in grid for b in grid}


def test_fold_codewords_folds_each_shared_support_once(monkeypatch):
    # uniform_codewords hands every user one object: it is folded once,
    # and each user gets what folding its own support alone gives
    params = ConstructionParams(k=4, p=3, N=2, H_max=1)
    d = uniform_codewords((Q(0), Q(1, 2), Q(1)), 3, 1, 2)[0]
    e = FiniteDist.uniform([(0, 0), (Q(1, 4), 1)])
    alone = {id(x): fold_codewords((x,), params)[0] for x in (d, e)}
    calls = []

    def counting(terms):
        calls.append(terms)
        return convolve_linear(terms)

    monkeypatch.setattr(construct, "convolve_linear", counting)
    assert fold_codewords((d,) * 3, params) == (alone[id(d)],) * 3
    assert len(calls) == 1
    assert fold_codewords((d, e, d), params) == \
        (alone[id(d)], alone[id(e)], alone[id(d)])
    assert len(calls) == 3


def test_uniform_codewords_caps_only_the_box_it_builds():
    # the codeword box |grid|^(MN) is capped, not a sumset over K users:
    # a 1001-point grid at M*N = 2 (1001^2 points) is refused before any
    # codeword is built, and the 1000-point grid at K=3 is accepted
    assert CONVOLVE_CAP == 10 ** 6
    with pytest.raises(SupportTooLarge, match=r"1001\^2 points"):
        uniform_codewords(tuple(range(1001)), 2, 1, 2)
    grid = tuple(Q(t) for t in range(1000))
    assert len(uniform_codewords(grid, 3, 1, 1)[0].points) == 1000


def test_uniform_codewords_refuses_long_unit_columns_at_once():
    # a one-point grid has a one-point box, but its M*N unit columns hold
    # (M*N)^2 entries: 1001^2 is refused before the identity is built
    start = time.perf_counter()
    with pytest.raises(SupportTooLarge, match=r"1001\^2 entries"):
        uniform_codewords((0,), 1, 1, 1001)
    assert time.perf_counter() - start < 1
    assert uniform_codewords((0,), 2, 3, 4)[0].lattice == ((0,) * 12,)


def test_uniform_codewords_is_the_product_box():
    # the convolved box equals the product enumeration of the grid,
    # point for point and in the same (lexicographic) order
    rng = random.Random(5)
    for _ in range(40):
        M, N = rng.randint(1, 2), rng.randint(1, 2)
        grid = tuple(sorted({Q(rng.randint(-8, 8), rng.randint(1, 6))
                             for _ in range(rng.randint(1, 4))}))
        box = FiniteDist.uniform(tuple(itertools.product(grid,
                                                         repeat=M * N)))
        assert uniform_codewords(grid, 2, M, N) == (box, box)
    # an unsorted grid gets its codewords in point order as well
    assert uniform_codewords((1, 0), 1, 1, 2)[0].lattice == \
        ((0, 0), (0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize("K, M, N", [(0, 1, 1), (1, 0, 1), (1, 1, 0),
                                     (-1, 2, 1), (2.0, 1, 1), (2, True, 1)])
def test_uniform_codewords_refuses_sizes_below_one_or_not_integers(K, M, N):
    with pytest.raises(InputError):
        uniform_codewords((Q(0), Q(1)), K, M, N)


def test_uniform_codewords_refuses_long_powers_by_bit_length():
    # the box 3^(1*10^5) has 47,713 digits: refused without forming it,
    # and the message names the power rather than printing it
    with pytest.raises(SupportTooLarge, match=r"3\^100000 points"):
        uniform_codewords((0, 1, 2), 2, 1, 10 ** 5)


def fold_reference(dist, r, N):
    """W = sum_n r^n x^(n) codeword by codeword over Fractions, merging
    equal images by adding probabilities: an oracle independent of the
    integer fold in convolve_linear."""
    M = dist.dim // N
    acc = {}
    for pt, prob in zip(dist.points, dist.probs):
        w = tuple(sum((r ** n * pt[n * M + c] for n in range(N)), Q(0))
                  for c in range(M))
        acc[w] = acc.get(w, Q(0)) + prob
    pts = sorted(acc)
    return FiniteDist(tuple(pts), tuple(acc[p] for p in pts))


def test_fold_codewords_matches_fraction_reference():
    rng = random.Random(21)
    for _ in range(120):
        N, M, s = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 3)
        grid = tuple(sorted({Q(rng.randint(0, 2 ** s), 2 ** s)
                             for _ in range(rng.randint(2, 4))}))
        params = ConstructionParams(k=s + rng.randint(1, 3), p=1, N=N, H_max=1)
        if rng.random() < 0.5:
            dists = uniform_codewords(grid, 1, M, N)
        else:  # hand-built codewords with non-uniform probabilities
            pts = sorted({tuple(rng.choice(grid) for _ in range(M * N))
                          for _ in range(rng.randint(1, 12))})
            weights = [rng.randint(1, 9) for _ in pts]
            dists = (FiniteDist(tuple(pts), tuple(Q(w, sum(weights))
                                                  for w in weights)),)
        # r <= 2^-(s+1) < m/(m+M) for entry gaps m >= 2^-s: always certified
        for D, F in zip(dists, fold_codewords(dists, params)):
            assert F == fold_reference(D, params.r, N)


def test_fold_refuses_overlapping_grid():
    # N=1 folds by the identity, so the tight grid passes the fold; its
    # sumsets are what the contraction check refuses
    params = ConstructionParams(k=2, p=1, N=1, H_max=1)
    tight = (Q(0), Q(1, 64), Q(1))  # min gap far below 1/4
    folded = fold_codewords(uniform_codewords(tight, 2, 1, 1), params)
    scheme = lift_selfsimilar(folded, params)
    with pytest.raises(OpenSetUnverified, match="receiver 1 full sumset"):
        constructed_dof(TWO_USER, scheme, params)
    # N=2 at r = 1/4: x1 + x2/4 on the grid of quarters merges 25
    # codewords into 21 points (1/4 + 0/4 = 0 + 1/4, ...)
    quarters = tuple(Q(t, 4) for t in range(5))
    params = ConstructionParams(k=2, p=1, N=2, H_max=1)
    cw = uniform_codewords(quarters, 2, 1, 2)
    F = RatMatrix.from_rows([[1, params.r]])
    assert len(convolve_linear([(F, cw[0])]).lattice) == 21
    with pytest.raises(OpenSetUnverified, match="merges codewords"):
        fold_codewords(cw, params)


def test_lift_ratio():
    params, _, scheme, _ = build_chain(TWO_USER, k=6, N=2)
    assert isinstance(scheme, SelfSimilarScheme)
    assert scheme.ratio == Q(1, 2 ** 12)  # r^N = 2^(-kN)


# ----------------------------------------------------------- dof assembly


def test_constructed_dof_frozen_instance():
    params = ConstructionParams(k=4, p=3, N=2, H_max=1)
    grid = (Q(0), Q(1, 2), Q(1))
    _, _, _, rep = build_chain(TWO_USER, params=params, grid=grid)
    assert rep.method == "entropy-ratio"
    for t in rep.per_receiver:
        # brute-force sumset entropies: 25 resp. 9 support points
        assert t.full_dim.entropy_bits == 4.394319446848298
        assert t.interference_dim.entropy_bits == 3.169925001442312
        assert t.full_dim.log2_inv_ratio == 8.0
        assert t.full_dim.as_float() == 0.5492899308560373
        assert t.interference_dim.as_float() == 0.396240625180289
    assert rep.total.as_float() == 0.3060986113514965
    assert rep.normalized == 0.3060986113514965


def test_constructed_dof_frozen_two_dimensional_instance():
    # ex1 (K=3, M=2) at k=8, N=1: p=7, a grid of 3 per coordinate
    H, _ = ex1()
    params, grid, _, rep = build_chain(H, k=8)
    assert (params.p, len(grid)) == (7, 3)
    bits = [(t.full_dim.entropy_bits.hex(), t.interference_dim.entropy_bits.hex())
            for t in rep.per_receiver]
    # brute-force product sumsets with all-pairs open-set distances
    # (scripts/derive_oracles.py)
    assert bits == [("0x1.4d212e4e6cc2cp+2", "0x1.24a52f963a3cep+2"),
                    ("0x1.707896f60a312p+2", "0x1.456f72d55af13p+2"),
                    ("0x1.67b27a69932bap+2", "0x1.3b0c89d198a12p+2")]
    assert rep.total.entropy_bits.hex() == "0x1.005626e1b8a0ap+1"
    assert rep.total.log2_inv_ratio == 8.0


def test_constructed_dof_ex1_at_k11():
    # p=7 and a grid of 17 per coordinate: the largest sumset has 4209
    # points, folded step by step under the cap (the product of the three
    # 289-point supports, 24137569, exceeds it).  Oracle: a dict fold of
    # integer counts over {0..16}^2 (scripts/derive_oracles.py)
    H, _ = ex1()
    params, grid, scheme, rep = build_chain(H, k=11)
    assert (params.p, len(grid)) == (7, 17)
    assert [(t.full_dim.entropy_bits, t.interference_dim.entropy_bits)
            for t in rep.per_receiver] == [
        (10.393280453650076, 9.785766579468502),
        (10.951641235424448, 10.339212759684015),
        (10.817060870574155, 10.242330901545857)]
    assert [len(convolve_linear([(H.block(i, j), scheme.supports[j])
                                 for j in range(3)]).lattice)
            for i in range(3)] == [2913, 4209, 3697]
    assert rep.normalized == 0.08157601449774111


def test_exact_path_reads_no_fraction_view(monkeypatch):
    # sumsets go from the fold to the open-set sweep and to the entropy on
    # their integer lattice: with FiniteDist's Fraction views refusing,
    # dof_eval and constructed_dof still give the frozen values
    def refuse(self):
        raise AssertionError("a Fraction view was read on the exact path")
    monkeypatch.setattr(FiniteDist, "points", property(refuse))
    monkeypatch.setattr(FiniteDist, "probs", property(refuse))
    W = FiniteDist.uniform([0, 2])
    rep = dof_eval(TWO_USER, SelfSimilarScheme(Q(1, 3), (W, W)))
    assert [(t.full_dim.entropy_bits, t.interference_dim.entropy_bits)
            for t in rep.per_receiver] == [(1.5, 1.0)] * 2  # as in test_engine
    test_constructed_dof_frozen_instance()
    test_constructed_dof_frozen_two_dimensional_instance()  # ex1 at k=8


def test_constructed_dof_checks_ratio():
    params = ConstructionParams(k=4, p=3, N=2, H_max=1)
    grid = (Q(0), Q(1, 2), Q(1))
    folded = fold_codewords(uniform_codewords(grid, 2, 1, 2), params)
    wrong = SelfSimilarScheme(Q(1, 17), tuple(folded))
    with pytest.raises(InputError):
        constructed_dof(TWO_USER, wrong, params)


def test_constructed_dof_entropy_ratio_capped_by_M():
    rng = random.Random(8)
    for _ in range(10):
        k = rng.randint(5, 7)
        _, _, _, rep = build_chain(TWO_USER, k=k, N=rng.randint(1, 2))
        for t in rep.per_receiver:
            assert t.full_dim.as_float() <= TWO_USER.M


def test_constructed_terms_monotone_in_N():
    prev = None
    for N in (1, 2, 3):
        _, _, _, rep = build_chain(TWO_USER, k=6, N=N)
        vals = [t.term.as_float() for t in rep.per_receiver]
        if prev is not None:
            assert all(a >= b - 1e-12 for a, b in zip(vals, prev))
        prev = vals


# --------------------------------------------------------- sumset distance


def test_minkowski_check_frozen():
    assert minkowski_check([0, Q(1, 2), 1], Q(1, 16), 2) == (Q(1, 32), 9)
    assert minkowski_check([0, 2], Q(1, 2), 3) == (Q(1, 2), 8)
    assert minkowski_check([0, 1], Q(1, 2), 1) == (Q(1), 2)


def test_minkowski_check_guards():
    with pytest.raises(ConditionViolated):
        minkowski_check([0, 1], Q(2, 3), 2)
    with pytest.raises(TooFewPoints):
        minkowski_check([5], Q(1, 3), 2)
    with pytest.raises(InputError):
        minkowski_check([0, 1], Q(1, 3), 0)


def test_minkowski_check_matches_fraction_enumeration():
    rng = random.Random(13)
    for _ in range(60):
        V = sorted({Q(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(rng.randint(2, 5))})
        if len(V) < 2:
            continue
        gaps = [b - a for a, b in zip(V, V[1:])]
        m, M = min(gaps), V[-1] - V[0]
        r = Q(m, m + M) / rng.randint(1, 3)
        ell = rng.randint(1, 3)
        sums = sorted({sum((r ** t * c[t] for t in range(ell)), Q(0))
                       for c in itertools.product(V, repeat=ell)})
        assert minkowski_check(V, r, ell) == \
            (min(b - a for a, b in zip(sums, sums[1:])), len(sums))


def test_minkowski_check_refuses_sums_over_the_cap_up_front():
    # 1001^2 sums just exceed 10^6; they, 100^4 = 10^8 and 2^(10^9) are
    # refused before any term is built
    with pytest.raises(SupportTooLarge):
        minkowski_check(range(1001), Q(1, 1001), 2)
    with pytest.raises(SupportTooLarge, match=r"100\^4 points"):
        minkowski_check(range(100), Q(1, 10 ** 6), 4)
    with pytest.raises(SupportTooLarge):
        minkowski_check([0, 1], Q(1, 3), 10 ** 9)
    with pytest.raises(InputError):
        minkowski_check([0, 1], Q(1, 3), 2.0)


def test_invariant_checks_survive_python_O():
    # python -O strips assert statements.  Feed minkowski_check a wrong
    # m(V) so its threshold test passes but the enumerated sum has a gap
    # below r^(ell-1) m: the invariant must still refuse the result.
    import dofkit
    code = """
import sys
from fractions import Fraction as Q
import dofkit.construct as construct
from dofkit.errors import InvariantViolated
assert sys.flags.optimize == 1
construct.minmax_dist = lambda vals: (Q(1), Q(0))
try:
    construct.minkowski_check([0, 1], Q(2, 3), 2)
except InvariantViolated:
    print("refused")
"""
    src = os.path.dirname(os.path.dirname(dofkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "refused"
