"""Acceptance gate: ten numbered criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else:

  criterion 1      exact, evaluation under 10 ms
  criteria 2-6, 9  exact (zero tolerance; 9 is bit-for-bit on floats)
  criterion 7      |estimate - 1/log2(3)| <= 0.05, under 30 s
  criterion 8      |estimate - 1| <= 0.15
  criterion 10     >= 100 randomized cases per suite, zero failures

One deviation is deliberate: the triangular propagation-gain channel of
criterion 3 has zero cross links into receiver 1, so no fixed-point-free
assignment with nonsingular cross blocks exists and the K*M/2 certificate
is *necessarily* absent there.  Criterion 5 therefore asserts the sound
refusal (upper_bound None) for that channel and the full certificate for
the other three.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction as Q

from dofkit import (
    ChannelMatrix,
    EstimatorConfig,
    FiniteDist,
    MixtureScheme,
    RatMatrix,
    SelfSimilarScheme,
    SubspaceScheme,
    cyclic_delay_channel,
    dof_eval,
    estimate_dim,
    estimate_dof,
    parallel_extract,
    sample_scheme,
    upper_bound,
)
from dofkit.construct import (
    ConstructionParams,
    constructed_dof,
    fold_codewords,
    lift_selfsimilar,
    minkowski_check,
    uniform_codewords,
)
from dofkit.dimension import open_set_check
from dofkit.examples import ex1, k3m3, parallel_channel, propgain, stacked

import prop_suites


def _criterion(num, desc):
    def deco(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print("[criterion %2d] FAIL — %s" % (num, desc))
                raise
            print("[criterion %2d] PASS — %s" % (num, desc))
        wrapper.__name__ = fn.__name__
        return wrapper
    return deco


@_criterion(1, "three-user vector example evaluates to exactly 3 in <10ms")
def test_criterion_01_example_exactness():
    H, scheme = ex1()
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        rep = dof_eval(H, scheme)
        best = min(best, time.perf_counter() - t0)
    assert rep.total.rational == Q(3)
    assert rep.total.kind == "rational"
    assert best < 0.010, "evaluation took %.4fs" % best


@_criterion(2, "stacked-delay example: total exactly 3, normalized 3/2")
def test_criterion_02_stacked_delay():
    H, scheme = stacked()
    rep = dof_eval(H, scheme)
    assert rep.total.rational == Q(3)
    assert rep.normalized == Q(3, 2)


@_criterion(3, "joint coding beats every independent per-subchannel scheme")
def test_criterion_03_propagation_gain():
    H, scheme = propgain()
    rep = dof_eval(H, scheme)
    assert rep.total.rational == Q(3)

    # Composed-independent optimum: on each scalar subchannel, try every
    # on/off activity pattern with the scalar direction pool {(1,)} and
    # take the best; independence across subchannels makes the composed
    # value the sum.
    decomp = parallel_extract(H)
    composed = Q(0)
    for sub in decomp.subchannels:
        sub_channel = parallel_channel([sub])
        best = Q(0)
        for active in itertools.product([0, 1], repeat=3):
            dirs = tuple(
                RatMatrix.from_rows([[1]]) if a else RatMatrix.zeros(1, 0)
                for a in active)
            val = dof_eval(sub_channel, SubspaceScheme(dirs)).total.rational
            best = max(best, val)
        assert best == Q(1)
        composed += best
    assert composed == Q(2) < rep.total.rational


@_criterion(4, "seeded K=3, M=3 random channel with aligned scheme gives 4")
def test_criterion_04_k3m3():
    H, scheme = k3m3(seed=7)
    rep = dof_eval(H, scheme)
    assert rep.total.rational == Q(4)


@_criterion(5, "KM/2 certificate on the worked channels; 200 random cases"
               " never exceed it")
def test_criterion_05_upper_bound():
    for fixture in (ex1(), stacked(), k3m3(seed=7)):
        H, scheme = fixture
        assert upper_bound(H) == Q(H.K * H.M, 2)
        assert dof_eval(H, scheme).bound_met is True
    # The triangular propagation-gain channel has no nonsingular cross
    # block into receiver 1, so the certificate must be refused, not
    # fabricated.
    H_tri, _ = propgain()
    assert upper_bound(H_tri) is None
    assert prop_suites.suite_bound_holds(200) >= 200


@_criterion(6, "cyclic-delay constructions reach full KM/2: 3, 6, 12")
def test_criterion_06_cyclic_delay():
    for (K, M), want in (((3, 2), 3), ((3, 4), 6), ((4, 6), 12)):
        H, scheme = cyclic_delay_channel(K, M)
        rep = dof_eval(H, scheme)
        assert rep.total.rational == Q(want) == Q(K * M, 2)


@_criterion(7, "Cantor sampling lands within 0.05 of 1/log2(3) in <30s")
def test_criterion_07_cantor_monte_carlo():
    scheme = SelfSimilarScheme(Q(1, 3), (FiniteDist.uniform([0, 2]),))
    cfg = EstimatorConfig(n_samples=200_000, k1=8, k2=12, seed=20260815)
    t0 = time.perf_counter()
    samples = sample_scheme(scheme, cfg.n_samples, cfg.seed, k2=cfg.k2)
    est = estimate_dim(samples[0], cfg)
    elapsed = time.perf_counter() - t0
    assert abs(est.value - 1.0 / math.log2(3.0)) <= 0.05, est
    assert elapsed < 30.0, "took %.1fs" % elapsed


@_criterion(8, "two-user mixture estimate lands within 0.15 of the exact 1")
def test_criterion_08_mixture_monte_carlo():
    rows = [[1, 0, 1, Q(1, 3)], [0, 1, Q(1, 4), 1],
            [1, Q(1, 5), 1, 0], [Q(1, 6), 1, 0, 1]]
    H = ChannelMatrix.from_rows(2, 2, rows)
    scheme = MixtureScheme((Q(1, 2), Q(1, 2)))
    assert dof_eval(H, scheme).total.rational == Q(1)
    cfg = EstimatorConfig(n_samples=100_000, k1=3, k2=6, seed=7)
    rep = estimate_dof(H, scheme, cfg)
    assert abs(rep.total.estimate - 1.0) <= 0.15, rep.total


@_criterion(9, "constructed self-similar inputs match brute-force entropy"
               " ratios bit-for-bit")
def test_criterion_09_constructor_exactness():
    H = ChannelMatrix.from_rows(2, 1, [[1, 1], [1, -1]])
    params = ConstructionParams(k=4, p=3, N=2, H_max=Q(1))
    grid = (Q(0), Q(1, 2), Q(1))
    codes = uniform_codewords(grid, K=2, M=1, N=2)
    folded = fold_codewords(codes, params)
    scheme = lift_selfsimilar(folded, params)
    rep = constructed_dof(H, scheme, params)

    # Brute-force oracle: each user's folded support is the 9-point set
    # {a + b/16}; receiver sumsets are enumerated over all <=81 value
    # pairs and their entropy ratio H/8 is computed with the same
    # exactly-rounded float summation.
    W = sorted({a + b * Q(1, 16) for a in grid for b in grid})
    assert len(W) == 9
    ratio = Q(1, 2 ** 8)

    def entropy_of(counter, denom):
        return -math.fsum(
            float(Q(c, denom)) * math.log2(float(Q(c, denom)))
            for c in counter.values())

    for i in range(2):
        h = [H.block(i, j).entries[0] for j in range(2)]
        full = Counter(h[0] * w1 + h[1] * w2 for w1 in W for w2 in W)
        intf = Counter(h[1 - i] * w for w in W)
        assert open_set_check(ratio, full.keys())
        assert open_set_check(ratio, intf.keys())
        terms = rep.per_receiver[i]
        assert terms.full_dim.entropy_bits == entropy_of(full, 81)
        assert terms.interference_dim.entropy_bits == entropy_of(intf, 9)
        assert terms.full_dim.as_float() == entropy_of(full, 81) / 8.0
        assert terms.interference_dim.as_float() == entropy_of(intf, 9) / 8.0

    assert minkowski_check((Q(0), Q(1, 2), Q(1)), Q(1, 16), 2) == (Q(1, 32), 9)


@_criterion(10, "all property suites pass with >=100 randomized cases each")
def test_criterion_10_property_suites():
    assert prop_suites.suite_rank_submodularity() >= 100
    assert prop_suites.suite_scaling_invariance() >= 100
    assert prop_suites.suite_composition_additivity() >= 100
    assert prop_suites.suite_mimo_pass_means_full_streams() >= 100
    assert prop_suites.suite_estimator_sum_rule() >= 100
    assert prop_suites.suite_estimator_bilipschitz() >= 100
    assert prop_suites.suite_estimator_eq_two() >= 100
    assert prop_suites.suite_complex_modulus() >= 100
