import hashlib
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction as Q
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dofkit import (
    ChannelMatrix,
    EstimatorConfig,
    FiniteDist,
    MixtureScheme,
    RatMatrix,
    SelfSimilarScheme,
    SubspaceScheme,
    cyclic_delay_channel,
    estimate_dim,
    estimate_dof,
    minmax_dist,
    quantized_entropy,
    sample_scheme,
)
from dofkit import estimator
from dofkit.errors import InputError, InvariantViolated
from dofkit.estimator import (
    _cell_keys,
    _generator,
    _group,
    _Received,
    ifs_truncation_depth,
)
from dofkit.examples import ex1

CANTOR = SelfSimilarScheme(Q(1, 3), (FiniteDist.uniform([0, 2]),))


def test_config_validation():
    with pytest.raises(InputError):
        EstimatorConfig(n_samples=0, k1=1, k2=2, seed=0)
    with pytest.raises(InputError):
        EstimatorConfig(n_samples=10, k1=3, k2=3, seed=0)


@pytest.mark.parametrize("bad", [2.5, True, "3"])
@pytest.mark.parametrize("field", ["n_samples", "k1", "k2", "ifs_depth"])
def test_config_refuses_arguments_that_are_not_integers(field, bad):
    # a float or bool passed the range checks and failed, or counted as
    # 1, later; a string failed the comparison with TypeError
    kwargs = dict(n_samples=10, k1=1, k2=3, seed=0)
    kwargs[field] = bad
    with pytest.raises(InputError, match="%s must be an integer" % field):
        EstimatorConfig(**kwargs)


MIX = MixtureScheme((Q(1, 2),))


@pytest.mark.parametrize("name, scheme, n, kwargs", [
    ("ifs_depth", CANTOR, 5, dict(ifs_depth=2.5)),
    ("ifs_depth", CANTOR, 5, dict(ifs_depth=True)),
    ("k2", CANTOR, 5, dict(k2=2.5)),
    ("k2", CANTOR, 5, dict(k2=True)),
    ("M", MIX, 5, dict(M=1.5)),
    ("M", MIX, 5, dict(M=True)),
    ("n", MIX, 2.5, dict(M=1)),
    ("n", MIX, True, dict(M=1)),
])
def test_sampling_refuses_arguments_that_are_not_integers(name, scheme, n,
                                                          kwargs):
    with pytest.raises(InputError, match="%s must be an integer" % name):
        sample_scheme(scheme, n, 0, **kwargs)


@pytest.mark.parametrize("seed", [-1, 1 << 64, 1.0, True, "1"])
def test_seeds_outside_the_key_domain_are_refused(seed):
    # a seed is one Philox key word, an int in [0, 2^64); masking others
    # into it would give -1 the key of 2^64 - 1 and 2^64 the key of 0
    with pytest.raises(InputError, match="seed"):
        EstimatorConfig(n_samples=10, k1=1, k2=2, seed=seed)
    with pytest.raises(InputError, match="seed"):
        sample_scheme(CANTOR, 5, seed, k2=4)


def test_largest_seed_is_accepted():
    top = (1 << 64) - 1
    assert EstimatorConfig(n_samples=10, k1=1, k2=2, seed=top).seed == top
    xs = sample_scheme(CANTOR, 5, top, k2=4)[0]
    assert not np.array_equal(xs, sample_scheme(CANTOR, 5, 0, k2=4)[0])


# ------------------------------------------------------------ sample streams


def test_sampling_deterministic_and_prefix_stable():
    a = sample_scheme(CANTOR, 70_000, seed=42, k2=12)[0]
    b = sample_scheme(CANTOR, 70_000, seed=42, k2=12)[0]
    assert np.array_equal(a, b)
    # counter-based batching: a shorter run is a prefix of a longer one
    c = sample_scheme(CANTOR, 1_000, seed=42, k2=12)[0]
    assert np.array_equal(a[:1_000], c)
    assert not np.array_equal(a, sample_scheme(CANTOR, 70_000, seed=43,
                                               k2=12)[0])


def test_subspace_samples_live_on_the_line():
    scheme = SubspaceScheme.from_columns([[(1, 1)], []], ambient_dim=2)
    xs = sample_scheme(scheme, 1000, seed=0)
    assert xs[0].shape == (1000, 2)
    assert np.array_equal(xs[0][:, 0], xs[0][:, 1])  # scalar times (1,1)
    assert np.all(xs[1] == 0.0)  # silent user


@pytest.mark.parametrize("n", [0, -3])
def test_sampling_refuses_fewer_than_one_sample(n):
    with pytest.raises(InputError):
        sample_scheme(MixtureScheme((Q(1, 2),)), n, seed=1, M=1)


def test_mixture_samples_need_ambient_dim():
    mix = MixtureScheme((Q(1, 2),))
    with pytest.raises(InputError):
        sample_scheme(mix, 100, seed=0)
    xs = sample_scheme(mix, 100_000, seed=1, M=1)[0]
    atom_freq = np.mean(np.all(xs == 0.0, axis=1))
    assert abs(atom_freq - 0.5) < 0.01  # ~3 sigma for n = 1e5


def test_sampling_refuses_an_ambient_dim_the_scheme_does_not_have():
    # each user's (n, M) output is allocated before any draw, so its
    # column count is decided once: the scheme's own, or M for a mixture
    line = SubspaceScheme.from_columns([[(1, 0)]], ambient_dim=2)
    with pytest.raises(InputError, match="dimension 2"):
        sample_scheme(line, 4, 0, M=3)
    with pytest.raises(InputError, match="dimension 1"):
        sample_scheme(CANTOR, 4, 0, M=5, ifs_depth=3)
    assert sample_scheme(line, 4, 0, M=2)[0].shape == (4, 2)
    assert sample_scheme(CANTOR, 4, 0, M=1, ifs_depth=3)[0].shape == (4, 1)


@pytest.mark.parametrize("depth", [0, -5])
def test_sampling_refuses_nonpositive_depth(depth):
    # depth 0 would draw all-zero samples, and -5 fail inside numpy
    with pytest.raises(InputError, match="depth"):
        sample_scheme(CANTOR, 5, 0, ifs_depth=depth)


@pytest.mark.parametrize("M", [0, -1])
def test_mixture_sampling_refuses_nonpositive_ambient_dim(M):
    # M=0 would draw (n, 0) samples, and M=-1 fail inside numpy
    with pytest.raises(InputError, match="ambient dimension"):
        sample_scheme(MixtureScheme((Q(1, 2),)), 5, 0, M=M)


def test_ifs_truncation_depth_reads_the_span_off_the_lattice(monkeypatch):
    # the depth needs only the largest coordinate range, not minmax_dist's
    # sort and minimum-distance sweep (seconds on 3000 collinear points)
    def refuse(*_):
        raise AssertionError("minmax_dist called")
    monkeypatch.setattr("dofkit.estimator.minmax_dist", refuse, raising=False)
    monkeypatch.setattr("dofkit.dimension.minmax_dist", refuse)
    assert ifs_truncation_depth(CANTOR, k2=12) == 10
    near_one = SelfSimilarScheme(Q(4095, 4096), (FiniteDist.uniform([0, 1]),))
    assert ifs_truncation_depth(near_one, k2=8) == 62454


def test_ifs_truncation_depth():
    D = ifs_truncation_depth(CANTOR, k2=12)
    assert D == 10
    r, span = Q(1, 3), Q(2)
    tail = lambda d: r ** d * span / (1 - r)
    assert tail(D) < Q(1, 2 ** 14) <= tail(D - 1)
    flat = SelfSimilarScheme(Q(1, 3), (FiniteDist.uniform([5]),))
    assert ifs_truncation_depth(flat, k2=12) == 1  # single atom: no tail


def _depth_by_steps(scheme, k2):
    # the plain definition: step D up until the tail is below a quarter cell
    r = scheme.ratio
    span = max(minmax_dist(s.points)[1] for s in scheme.supports)
    D = 1
    while r ** D * span / (1 - r) >= Q(1, 2 ** (k2 + 2)):
        D += 1
    return D


def test_ifs_truncation_depth_matches_stepping_on_random_ratios():
    rng = random.Random(11)
    for _ in range(300):
        q = rng.randint(2, 40)
        supports = tuple(FiniteDist.uniform(sorted(
            {Q(0)} | {Q(rng.randint(-30, 30) or 1, rng.randint(1, 9))
                      for _ in range(rng.randint(1, 3))})) for _ in range(2))
        scheme = SelfSimilarScheme(Q(rng.randint(1, q - 1), q), supports)
        k2 = rng.randint(1, 16)
        assert ifs_truncation_depth(scheme, k2) == _depth_by_steps(scheme, k2)


def test_ifs_truncation_depth_near_one_is_fast_or_refused():
    near_one = SelfSimilarScheme(Q(4095, 4096), (FiniteDist.uniform([0, 1]),))
    start = time.perf_counter()
    assert ifs_truncation_depth(near_one, k2=8) == 62454
    assert time.perf_counter() - start < 5
    # a batch holds at least D terms, so a depth over the limit is refused
    # before any exact power is taken
    for r in (1 - Q(1, 2 ** 40), 1 - Q(1, 2 ** 1100)):
        with pytest.raises(InputError, match="draw limit"):
            ifs_truncation_depth(SelfSimilarScheme(
                r, (FiniteDist.uniform([0, 1]),)), k2=8)
    # a ratio below the float range needs one term
    tiny = SelfSimilarScheme(Q(1, 2 ** 1100), (FiniteDist.uniform([0, 1]),))
    assert ifs_truncation_depth(tiny, k2=8) == 1


def test_sampling_refuses_over_deep_self_similar_draws():
    # refused before any draw: a given depth, and a derived one (k2=3000
    # gives depth 1896, about 124M terms in one 65536-sample batch)
    with pytest.raises(InputError, match="depth 1000000000000"):
        sample_scheme(CANTOR, 1000, seed=0, ifs_depth=10**12)
    with pytest.raises(InputError, match="depth 1896 "):
        sample_scheme(CANTOR, 1 << 16, seed=0, k2=3000)


def test_over_deep_derived_draw_is_refused_before_any_exact_power():
    # 65535/65536 at k2=8 needs depth 1181070, whose exact power alone
    # takes seconds, while a 65536-sample batch holds depth 256 at most:
    # the float estimate refuses it at once (a fresh process, so a slow
    # refusal is cut by the timeout)
    import dofkit
    code = """
from fractions import Fraction as Q
from dofkit import FiniteDist, SelfSimilarScheme, sample_scheme
from dofkit.errors import InputError
scheme = SelfSimilarScheme(Q(65535, 65536), (FiniteDist.uniform([0, 1]),))
try:
    sample_scheme(scheme, 100000, 0, k2=8)
except InputError as e:
    print(e)
"""
    src = os.path.dirname(os.path.dirname(dofkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=5)
    assert out.returncode == 0, out.stderr
    assert "depth 1181070 " in out.stdout and "draw limit" in out.stdout


def choice_draws(scheme, n, seed, depth):
    """The self-similar sampler as Generator.choice draws it, batch by
    batch: the reference the library's blocked draw must match bytewise."""
    weights = float(scheme.ratio) ** np.arange(depth)
    out = []
    for user, D in enumerate(scheme.supports):
        pts = np.array([[x / D.L for x in pt] for pt in D.lattice])
        probs = np.array([c / D.W for c in D.counts])
        probs = probs / probs.sum()
        chunks = []
        for start in range(0, n, 1 << 16):
            gen = _generator(seed, user, start >> 16)
            size = (min(1 << 16, n - start), depth)
            idx = gen.choice(len(pts), size=size, p=probs)
            chunks.append((pts[idx] * weights[None, :, None]).sum(axis=1))
        out.append(np.concatenate(chunks))
    return out


def random_support(rng, m, M):
    # m distinct integer points over L = 4, with skewed integer counts
    flat = rng.choice((2 * m + 3) ** M, size=m, replace=False)
    pts = [tuple(int(v) - m for v in np.unravel_index(i, (2 * m + 3,) * M))
           for i in flat]
    counts = [int(c) for c in rng.integers(1, 1000, m) ** 2]
    W = sum(counts)
    return FiniteDist.from_pairs([(tuple(Q(v, 4) for v in pt), Q(c, W))
                                  for pt, c in zip(pts, counts)])


def assert_draws_match_choice(scheme, ns, seed, depth):
    for n in ns:
        got = sample_scheme(scheme, n, seed, ifs_depth=depth)
        want = choice_draws(scheme, n, seed, depth)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want], n


DEPTH = 9  # past numpy's 8-way unrolled sum when M = 1


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 17, 18, 64, 257])
def test_selfsimilar_draw_matches_choice(m, M):
    # m - 1 cuts at and beside powers of two, where the index search adds
    # a bit; n across the row blocks and the 2^16-sample batches
    rng = np.random.default_rng(1000 * m + M)
    scheme = SelfSimilarScheme(Q(2, 7), (random_support(rng, m, M),
                                         random_support(rng, m, M)))
    rows = estimator._BLOCK_TERMS // (DEPTH * M)
    assert_draws_match_choice(scheme, [1, rows - 1, rows + 1, 1 << 16,
                                       (1 << 16) + 1], seed=m, depth=DEPTH)


def test_selfsimilar_draw_matches_choice_on_equal_cuts():
    # the middle mass is below the cdf's resolution at 1/2, so two adjacent
    # cuts are equal and that point is never drawn
    D = FiniteDist.from_pairs([((0,), Q(2 ** 60, 2 ** 61 + 1)),
                               ((1,), Q(1, 2 ** 61 + 1)),
                               ((3,), Q(2 ** 60, 2 ** 61 + 1))])
    probs = np.array([c / D.W for c in D.counts])
    cdf = np.cumsum(probs / probs.sum())
    assert cdf[0] == cdf[1] < cdf[2]
    scheme = SelfSimilarScheme(Q(1, 5), (D,))
    assert_draws_match_choice(scheme, [5000, (1 << 16) + 1], seed=3,
                              depth=DEPTH)


@pytest.mark.parametrize("rows", [1, 7])
def test_selfsimilar_draw_matches_choice_for_any_block(monkeypatch, rows):
    # row blocks of 1 and 7, also across a batch edge
    rng = np.random.default_rng(rows)
    for m, M in [(1, 2), (2, 1), (18, 3), (64, 1), (257, 2)]:
        monkeypatch.setattr(estimator, "_BLOCK_TERMS", rows * DEPTH * M)
        scheme = SelfSimilarScheme(Q(1, 3), (random_support(rng, m, M),))
        ns = [1, 2, 100] if rows == 1 else [1, 6, 8, (1 << 16) + 1]
        assert_draws_match_choice(scheme, ns, seed=m, depth=DEPTH)


def test_selfsimilar_batch_peak_memory():
    # one Cantor batch at depth 10: the uniforms (5 MiB) and the output
    # (0.5 MiB) plus 2 MiB; the (n, depth) index and point arrays of
    # Generator.choice took it to 10 MiB
    n, depth = 1 << 16, 10
    sample_scheme(CANTOR, n, 0, ifs_depth=depth)
    tracemalloc.start()
    try:
        sample_scheme(CANTOR, n, 0, ifs_depth=depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * depth * 8 + n * 8 + (2 << 20), peak


# --------------------------------------------------------- plug-in entropy


def test_quantized_entropy_basics():
    assert quantized_entropy(np.zeros(100), 4) == 0.0
    two = np.array([0.1] * 50 + [0.9] * 50)
    assert quantized_entropy(two, 1) == 1.0
    grid = np.array([[0.1, 0.1], [0.1, 0.9], [0.9, 0.1], [0.9, 0.9]] * 25)
    assert quantized_entropy(grid, 1) == 2.0


def test_quantized_entropy_uniform_calibration():
    xs = sample_scheme(MixtureScheme((Q(1),)), 1_000_000, seed=9, M=1)[0]
    h = quantized_entropy(xs, 8)
    assert abs(h - 8.0) < 0.01  # plug-in bias ~ 2^8/(2 n ln 2) ~ 2e-4


def test_integer_entropy_stays_under_power_bound():
    # unit-power inputs: floor-quantized entropy per dimension is capped
    # at 0.5 log2(26 pi e / 3), a max-entropy bound with a second-moment
    # budget
    gauss = SubspaceScheme.from_columns(
        [[(1, 0), (0, 1)]], latent_tag="gaussian", ambient_dim=2)
    xs = sample_scheme(gauss, 50_000, seed=5)[0]
    assert quantized_entropy(xs, 0) <= math.log2(26 * math.pi * math.e / 3)


def _keys(y, k, rows=7):
    """_cell_keys over a whole (n,) or (n, M) float array, read in blocks
    of `rows` rows."""
    y = np.asarray(y, dtype=float).reshape(len(y), -1)
    with mock.patch.object(estimator, "_BLOCK_TERMS", rows * y.shape[1]):
        return _cell_keys(y.__getitem__, *y.shape, k)


def test_cells_refuse_non_finite_samples():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError):
            quantized_entropy(np.array([0.1, bad, 0.7]), 3)
        with pytest.raises(InputError):
            estimate_dim(np.array([[0.1, 0.2], [bad, 0.3]]),
                         EstimatorConfig(n_samples=2, k1=1, k2=3, seed=0))
        # in any block, and in a received signal's rows
        for at in range(20):
            y = np.full((20, 2), 0.5)
            y[at, at % 2] = bad
            with pytest.raises(InputError, match="finite"):
                _keys(y, 3)
        with pytest.raises(InputError, match="finite"), \
                np.errstate(invalid="ignore"):
            estimate_dim(_Received([(np.array([[0.1, 0.2], [bad, 0.3]]),
                                     np.eye(2))]),
                         EstimatorConfig(n_samples=2, k1=1, k2=3, seed=0))


def test_cells_refuse_arrays_of_more_than_two_dimensions():
    bad = np.zeros((10, 2, 2))
    with pytest.raises(InputError, match="shape"):
        quantized_entropy(bad, 3)
    with pytest.raises(InputError, match="shape"):
        estimate_dim(bad, EstimatorConfig(n_samples=10, k1=1, k2=3, seed=0))


def test_cells_refuse_resolutions_past_the_key_range():
    # |x| 2^k must stay below 2^62 so packed cell keys cannot wrap
    assert quantized_entropy(np.array([0.75, -0.75]), 62) == 1.0
    assert len(np.unique(_keys(np.array([0.75, -0.75]), 62, rows=2))) == 2
    for x, k in ((1.0, 62), (-1.0, 62), (0.5, 63), (3.0, 61)):
        with pytest.raises(InputError):
            quantized_entropy(np.array([0.0, x]), k)
        with pytest.raises(InputError, match="beyond 2"):
            _keys(np.array([0.0] * 9 + [x]), k, rows=2)
    with pytest.raises(InputError):
        estimate_dim(np.array([0.0, 1.0]),
                     EstimatorConfig(n_samples=2, k1=1, k2=62, seed=0))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 300),
       st.lists(st.integers(0, 61), min_size=6, max_size=6),
       st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
@example(6, 300, [61] * 6, 0, 0)  # every column wide: re-rank key and column
@example(2, 300, [1] * 6, 0, 0)  # key range below n: no re-rank at all
def test_packed_keys_group_like_unique_rows(M, n, exps, shift, seed):
    # Columns drawn from a few values each, so rows repeat; wide columns
    # push the packed key past 2^62 and force the re-rank step.
    rng = np.random.default_rng(seed)
    cols = []
    for e in exps[:M]:
        pool = rng.integers(-(1 << e), 1 << e, size=rng.integers(1, 6),
                            endpoint=True)
        cols.append(rng.choice(pool, size=n))
    _assert_packed_like_unique(np.stack(cols, axis=1), shift)


def test_packed_key_just_past_int64():
    # column widths 2^31 + 1 and 2^32: an unranked key would reach 2^63
    top = 1 << 31
    cells = np.array([[0, 0], [top, 2 * top - 1], [0, 2 * top - 1],
                      [top, 0], [top, 2 * top - 1]], dtype=np.int64)
    _assert_packed_like_unique(cells)
    _assert_packed_like_unique(-cells)


def _assert_packed_like_unique(cells, shift=0):
    # The integers (as floats, which round those past 2^53) times 2^-16,
    # keyed at k = 16 - shift: their cells are the integers >> shift.
    exact = cells.astype(float)
    key = _keys(np.ldexp(exact, -16), 16 - shift)
    _, inverse, counts = np.unique(key, return_inverse=True,
                                   return_counts=True)
    _, want_inverse, want_counts = np.unique(
        exact.astype(np.int64) >> shift, axis=0, return_inverse=True,
        return_counts=True)
    assert np.array_equal(inverse, want_inverse.reshape(-1))
    assert np.array_equal(counts, want_counts)
    group_inverse, group_counts = _group(key)
    assert np.array_equal(group_inverse, want_inverse.reshape(-1))
    assert np.array_equal(group_counts, want_counts)


def test_group_refuses_sparse_keys():
    # a key range past n would make bincount allocate max + 1 counters
    with pytest.raises(InvariantViolated):
        _group(np.array([0, 1 << 40]))


# ------------------------------------------------------------ dimension fits


def test_estimate_dim_uniform():
    xs = sample_scheme(MixtureScheme((Q(1),)), 50_000, seed=5, M=1)[0]
    est = estimate_dim(xs, EstimatorConfig(n_samples=50_000, k1=3, k2=8,
                                           seed=5))
    assert abs(est.value - 1.0) < 0.05
    assert est.k1 == 3 and est.k2 == 8 and est.stderr < 0.01


def test_estimate_dim_cantor():
    cfg = EstimatorConfig(n_samples=50_000, k1=6, k2=10, seed=3)
    xs = sample_scheme(CANTOR, cfg.n_samples, cfg.seed, k2=cfg.k2)[0]
    est = estimate_dim(xs, cfg)
    assert abs(est.value - 1 / math.log2(3)) < 0.05
    # same seed, same answer, to the last bit
    again = estimate_dim(sample_scheme(CANTOR, cfg.n_samples, cfg.seed,
                                       k2=cfg.k2)[0], cfg)
    assert again.value == est.value and again.stderr == est.stderr


def test_estimate_dim_mixture():
    xs = sample_scheme(MixtureScheme((Q(1, 2),)), 100_000, seed=6, M=1)[0]
    est = estimate_dim(xs, EstimatorConfig(n_samples=100_000, k1=6, k2=12,
                                           seed=6))
    assert abs(est.value - 0.5) < 0.05


def _cells(samples, k):
    """floor(2^k x) of a whole (n,) or (n, M) sample array, as int64 rows."""
    arr = np.asarray(samples, dtype=float).reshape(len(samples), -1)
    return np.floor(np.ldexp(arr, k)).astype(np.int64)


def _estimate_dim_sort_reference(samples, cfg):
    """(value, stderr, h1, h2) of estimate_dim with every resolution's
    cells grouped by np.unique(axis=0) sorts, as the estimator once did."""
    cells = _cells(samples, cfg.k2)
    n = len(cells)
    span = cfg.k2 - cfg.k1

    def group(shift):
        _, inverse, counts = np.unique(cells >> shift, axis=0,
                                       return_inverse=True,
                                       return_counts=True)
        return inverse.reshape(-1), counts / n

    def entropy(p):
        return float(-np.sum(p * np.log2(p)))

    (inv1, p1), (inv2, p2) = group(span), group(0)
    h1, h2 = entropy(p1), entropy(p2)
    s_curv = 0.0
    if span >= 2:
        mid = (cfg.k1 + cfg.k2) // 2
        hm = entropy(group(cfg.k2 - mid)[1])
        s_curv = abs((h2 - hm) / (cfg.k2 - mid) - (hm - h1) / (mid - cfg.k1))
    g = (np.log2(p1[inv1]) - np.log2(p2[inv2])) / span
    s_noise = float(np.std(g, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    s_bias = (len(p2) - len(p1)) / (2.0 * n * math.log(2) * span)
    return (h2 - h1) / span, math.hypot(s_noise, s_bias, s_curv), h1, h2


GAUSS_2D = SubspaceScheme.from_columns([[(1, 0), (0, 1)]],
                                       latent_tag="gaussian", ambient_dim=2)


@pytest.mark.parametrize("scheme, kwargs, n, k1, k2, dense", [
    (MixtureScheme((Q(1, 2),)), {"M": 1}, 2000, 3, 6, True),
    (GAUSS_2D, {}, 500, 8, 12, False),
])
def test_estimate_dim_matches_sort_reference(scheme, kwargs, n, k1, k2,
                                             dense):
    cfg = EstimatorConfig(n_samples=n, k1=k1, k2=k2, seed=31)
    xs = sample_scheme(scheme, n, cfg.seed, **kwargs)[0]
    # dense: the packed key range is below n and no re-rank runs
    widths = np.ptp(_cells(xs, k2), axis=0) + 1
    assert (math.prod(int(w) for w in widths) <= n) == dense
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = estimate_dim(xs, cfg)
    value, stderr, h1, h2 = _estimate_dim_sort_reference(xs, cfg)
    assert (est.value.hex(), est.stderr.hex()) == (value.hex(), stderr.hex())
    assert quantized_entropy(xs, k1).hex() == h1.hex()
    assert quantized_entropy(xs, k2).hex() == h2.hex()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(2, 300), st.integers(1, 4),
       st.integers(1, 4),
       st.lists(st.integers(0, 59), min_size=4, max_size=4),
       st.integers(0, 2 ** 32 - 1))
@example(4, 300, 3, 1, [59] * 4, 0)  # span 1, wide columns: re-rank
@example(1, 2, 1, 4, [0] * 4, 0)  # two rows, span 4
def test_estimate_dim_matches_sort_reference_on_drawn_cells(M, n, k1, span,
                                                            exps, seed):
    # Cells drawn from a few values per column, so rows repeat; spans 1-4
    # (span 1 has no intermediate resolution), and columns up to 2^59 wide
    # push the packed keys through the re-rank step.
    cfg = EstimatorConfig(n_samples=n, k1=k1, k2=k1 + span, seed=0)
    rng = np.random.default_rng(seed)
    cols = []
    for e in exps[:M]:
        pool = rng.integers(-(1 << e), 1 << e, size=rng.integers(1, 6),
                            endpoint=True)
        cols.append(rng.choice(pool, size=n) + rng.random(n))
    xs = np.ldexp(np.stack(cols, axis=1), -cfg.k2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = estimate_dim(xs, cfg)
    value, stderr, _, _ = _estimate_dim_sort_reference(xs, cfg)
    assert (est.value.hex(), est.stderr.hex()) == (value.hex(), stderr.hex())


def test_estimate_dim_packs_the_samples_once(monkeypatch):
    # Per signal, only the k2 keys read all n rows, in two passes (range,
    # then keys); the coarser resolutions key one row per distinct k2 cell.
    calls = []
    keys = estimator._cell_keys

    def counting(rows, n, M, k):
        read = []

        def counted(sel):
            y = rows(sel)
            read.append(len(y))
            return y
        out = keys(counted, n, M, k)
        calls.append((k, n, sum(read), len(np.unique(out))))
        return out

    monkeypatch.setattr(estimator, "_cell_keys", counting)
    H = ChannelMatrix.from_rows(2, 2, MIXTURE_ROWS)
    cfg = EstimatorConfig(n_samples=20_000, k1=3, k2=6, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        estimate_dof(H, MixtureScheme((Q(1, 2), Q(1, 2))), cfg)
    assert len(calls) == 4 * 3  # 2K signals; resolutions k2, k1 and mid
    for t in range(0, len(calls), 3):
        (k, n, read, distinct), *coarse = calls[t:t + 3]
        assert (k, n, read) == (cfg.k2, cfg.n_samples, 2 * cfg.n_samples)
        assert distinct < cfg.n_samples
        assert sorted(k for k, *_ in coarse) == [cfg.k1, 4]
        assert all(m == distinct and r == 2 * m for _, m, r, _ in coarse)


# Receivers formed in row blocks must give every bit of whole signals: a
# channel of thirds and fifths on dyadic samples puts many sums on cell
# boundaries in exact arithmetic, where the rounding of another product
# (numpy's gemv for a single row, for one) moves samples across them.
def _blocked_case(K, M):
    rng = random.Random(K * 10 + M)
    gains = [Q(-2, 3), Q(-1, 3), Q(1, 3), Q(2, 3), Q(1, 5), Q(3, 5), 1]
    H = ChannelMatrix.from_rows(K, M, [[rng.choice(gains)
                                        for _ in range(K * M)]
                                       for _ in range(K * M)])
    support = FiniteDist.uniform(sorted({
        tuple(rng.randrange(3) for _ in range(M)) for _ in range(4)}))
    return H, SelfSimilarScheme(Q(1, 2), (support,) * K)


def _whole_receiver_hex(H, scheme, cfg):
    xs = sample_scheme(scheme, cfg.n_samples, cfg.seed,
                       ifs_depth=cfg.ifs_depth)
    gains = [[np.array(H.block(i, j).to_float_rows()) for j in range(H.K)]
             for i in range(H.K)]
    out = []
    for i in range(H.K):
        full = sum(xs[j] @ gains[i][j].T for j in range(H.K))
        intf = sum(xs[j] @ gains[i][j].T for j in range(H.K) if j != i)
        out.append(tuple(x.hex() for x in (
            _estimate_dim_sort_reference(full, cfg)[:2]
            + _estimate_dim_sort_reference(intf, cfg)[:2])))
    return out


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("M", [1, 2, 4, 5])
@pytest.mark.parametrize("rows, n", [(r, n) for r in (2, 7)
                                     for n in sorted({1, 2, r - 1, r + 1,
                                                      2 * r + 1})])
def test_blocked_receivers_match_whole_signals(monkeypatch, K, M, rows, n):
    monkeypatch.setattr(estimator, "_BLOCK_TERMS", rows * M)
    H, scheme = _blocked_case(K, M)
    cfg = EstimatorConfig(n_samples=n, k1=1, k2=4, seed=3, ifs_depth=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = estimate_dof(H, scheme, cfg)
        assert _receiver_hex(rep) == _whole_receiver_hex(H, scheme, cfg)


@pytest.mark.parametrize("K, M", [(2, 1), (2, 2), (2, 4), (2, 5), (3, 4)])
def test_blocked_receivers_match_whole_signals_past_a_batch(K, M):
    # 65537 rows: a one-row sampling batch, and at M = 1, 2 and 4 a
    # one-row tail block of the default size (the reference's sorts make
    # each case take about a second, so not every K, M pair runs)
    H, scheme = _blocked_case(K, M)
    cfg = EstimatorConfig(n_samples=65_537, k1=2, k2=5, seed=4, ifs_depth=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = estimate_dof(H, scheme, cfg)
        assert _receiver_hex(rep) == _whole_receiver_hex(H, scheme, cfg)


def test_blocked_receivers_match_whole_signals_in_one_cell(monkeypatch):
    # Five equal samples, so every signal has a single k2 cell (and its
    # representative is a one-row gather).  The gain row (-2/3, 2/3, 3/5,
    # 1/5) sends the sample (3.5, 3.5, 0, 0) to 0 in exact arithmetic; a
    # product of one row can round it to the other side of 0 than a
    # product of many rows, which would put the last sample of a one-row
    # tail block in another cell.
    G = [[Q(1, 5), Q(3, 5), Q(-1, 3), Q(1, 5)],
         [Q(-2, 3), Q(2, 3), Q(3, 5), Q(1, 5)],
         [Q(2, 3), Q(3, 5), 1, 1],
         [Q(1, 3), Q(1, 3), Q(2, 3), Q(1, 3)]]
    H = ChannelMatrix.from_rows(2, 4, [row + row for row in G] * 2)
    scheme = SelfSimilarScheme(Q(1, 2),
                               (FiniteDist.uniform([(2, 2, 0, 0)]),) * 2)
    monkeypatch.setattr(estimator, "_BLOCK_TERMS", 2 * 4)
    cfg = EstimatorConfig(n_samples=5, k1=1, k2=4, seed=3, ifs_depth=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = estimate_dof(H, scheme, cfg)
        assert _receiver_hex(rep) == _whole_receiver_hex(H, scheme, cfg)
    assert all(t.full_dim.estimate == t.interference_dim.estimate == 0.0
               for t in rep.per_receiver)


def test_criterion_8_estimate_peak_memory():
    # no receiver signal or cell array is built whole: the peak is the
    # samples, a few n-sized key and group arrays and row blocks
    H = ChannelMatrix.from_rows(2, 2, MIXTURE_ROWS)
    cfg = EstimatorConfig(n_samples=100_000, k1=3, k2=6, seed=7)
    tracemalloc.start()
    try:
        estimate_dof(H, MixtureScheme((Q(1, 2), Q(1, 2))), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, peak


def test_estimate_dim_warns_when_undersampled():
    xs = sample_scheme(MixtureScheme((Q(1),)), 1000, seed=7, M=1)[0]
    with pytest.warns(UserWarning):
        estimate_dim(xs, EstimatorConfig(n_samples=1000, k1=4, k2=10, seed=7))


# -------------------------------------------------------------- dof reports


def test_estimate_dof_cyclic():
    H, scheme = cyclic_delay_channel(3, 2)
    r = estimate_dof(H, scheme, EstimatorConfig(n_samples=100_000, k1=2,
                                                k2=5, seed=11))
    assert r.method == "monte-carlo"
    assert r.total.kind == "estimate"
    assert abs(r.total.estimate - 3.0) < 0.2
    assert r.bound == 3 and r.bound_met is True
    assert abs(r.normalized - r.total.estimate / 2) < 1e-12


def test_estimate_dof_line_directions():
    # anisotropic 2-D supports need the full sample-size guidance at k2=7
    H, scheme = ex1()
    r = estimate_dof(H, scheme, EstimatorConfig(n_samples=1_000_000, k1=5,
                                                k2=7, seed=11))
    assert abs(r.total.estimate - 3.0) < 0.2
    assert all(t.term.stderr > 0 for t in r.per_receiver)


def test_estimate_dof_receives_in_sum_order():
    # Each receiver's signals are added in sum()'s order, from 0.  The
    # samples are dyadic (ratio 1/2, depth 4) and the gains thirds, so
    # many sums are cell boundaries in exact arithmetic, and the float
    # rounding of another order moves hundreds of samples across them.
    rows = [[1, Q(1, 3), Q(2, 3), -1, Q(-1, 3), Q(1, 5)],
            [Q(-2, 3), 1, Q(1, 3), Q(1, 10), Q(1, 3), 1],
            [Q(1, 3), Q(2, 3), 1, Q(-1, 3), Q(2, 3), Q(3, 10)],
            [Q(-1, 3), Q(1, 3), Q(2, 3), 1, Q(1, 3), Q(-2, 3)],
            [Q(1, 10), Q(2, 3), Q(-1, 3), Q(1, 3), 1, Q(1, 3)],
            [Q(2, 3), Q(-1, 3), Q(1, 3), Q(2, 3), Q(-2, 3), 1]]
    H = ChannelMatrix.from_rows(3, 2, rows)
    square = FiniteDist.uniform([(0, 0), (1, 0), (0, 1), (1, 1)])
    scheme = SelfSimilarScheme(Q(1, 2), (square,) * 3)
    cfg = EstimatorConfig(n_samples=20_000, k1=3, k2=6, seed=17, ifs_depth=4)
    xs = sample_scheme(scheme, cfg.n_samples, cfg.seed, ifs_depth=4)
    gains = [[np.array(H.block(i, j).to_float_rows()) for j in range(3)]
             for i in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = estimate_dof(H, scheme, cfg)
        want = []
        for i in range(3):
            full = sum(xs[j] @ gains[i][j].T for j in range(3))
            intf = sum(xs[j] @ gains[i][j].T for j in range(3) if j != i)
            ef, ei = estimate_dim(full, cfg), estimate_dim(intf, cfg)
            want.append(tuple(x.hex() for x in (ef.value, ef.stderr,
                                                 ei.value, ei.stderr)))
    assert _receiver_hex(rep) == want


def test_estimate_dof_deterministic():
    H, scheme = cyclic_delay_channel(3, 2)
    cfg = EstimatorConfig(n_samples=20_000, k1=2, k2=5, seed=123)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = estimate_dof(H, scheme, cfg)
        b = estimate_dof(H, scheme, cfg)
    assert a == b


# ----------------------------------------------------------- frozen values
# float.hex of (full value, full stderr, interference value, interference
# stderr) per receiver.  Frozen from the estimator that quantized every
# resolution separately and grouped cells with np.unique(axis=0), and
# recomputed by scripts/derive_oracles.py with tuple sorting; the packed-key
# grouping must not change a single bit of them.

MIXTURE_ROWS = [[1, 0, 1, Q(1, 3)], [0, 1, Q(1, 4), 1],
                [1, Q(1, 5), 1, 0], [Q(1, 6), 1, 0, 1]]
GOLDEN_MIXTURE = [
    ("0x1.77e1e5e70290bp+0", "0x1.249c6c53a6d33p-4",
     "0x1.f11f1d0c3b005p-1", "0x1.4cea18c47f6dfp-7"),
    ("0x1.78c03b1403701p+0", "0x1.24ab4862092fbp-4",
     "0x1.f7b7ef45811ebp-1", "0x1.bc0f2ee216a42p-7"),
]
GOLDEN_CYCLIC = [
    ("0x1.fc75adda4475dp+0", "0x1.4cf47a50703d7p-7",
     "0x1.fb5092d2b7d15p-1", "0x1.ec80802f01df0p-7"),
    ("0x1.fc6fb6b98b3cdp+0", "0x1.3b9b4d8ff1925p-7",
     "0x1.fb6109cc6237bp-1", "0x1.da0b0c8bc3fb5p-7"),
    ("0x1.fc4142d098b53p+0", "0x1.8027149c2657fp-7",
     "0x1.fb129d1b771d3p-1", "0x1.16689029f78e6p-6"),
]
GOLDEN_CANTOR = ("0x1.3c34ddc59ba48p-1", "0x1.eb69bc48a531ep-5")


def _receiver_hex(rep):
    return [tuple(x.hex() for x in (t.full_dim.estimate, t.full_dim.stderr,
                                     t.interference_dim.estimate,
                                     t.interference_dim.stderr))
            for t in rep.per_receiver]


def test_mixture_estimate_frozen():
    # criterion 8's configuration
    H = ChannelMatrix.from_rows(2, 2, MIXTURE_ROWS)
    rep = estimate_dof(H, MixtureScheme((Q(1, 2), Q(1, 2))),
                       EstimatorConfig(n_samples=100_000, k1=3, k2=6, seed=7))
    assert _receiver_hex(rep) == GOLDEN_MIXTURE


def test_cyclic_estimate_frozen():
    H, scheme = cyclic_delay_channel(3, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = estimate_dof(H, scheme, EstimatorConfig(n_samples=100_000,
                                                      k1=2, k2=5, seed=11))
    assert _receiver_hex(rep) == GOLDEN_CYCLIC


def test_cantor_estimate_frozen():
    # criterion 7's configuration
    cfg = EstimatorConfig(n_samples=200_000, k1=8, k2=12, seed=20260815)
    xs = sample_scheme(CANTOR, cfg.n_samples, cfg.seed, k2=cfg.k2)[0]
    est = estimate_dim(xs, cfg)
    assert (est.value.hex(), est.stderr.hex()) == GOLDEN_CANTOR


# sha256 of each family's per-user sample bytes, concatenated, for n =
# 2^17 + 1 samples at seed 2024, so two full 2^16-sample batches and a
# one-sample batch run.  Frozen from the sampler that kept a separate batch
# loop for mixtures and rebuilt each user's constants in every batch, and
# recomputed by scripts/derive_oracles.py with its own Philox replay.
SAMPLE_DIRECTIONS = [[(1, Q(1, 3))], [(1, 0), (Q(-1, 2), 2)], []]
SAMPLE_FROZEN = {
    "subspace_uniform01": (
        SubspaceScheme.from_columns(SAMPLE_DIRECTIONS, ambient_dim=2), {},
        "bd38246645adf08cf8eb74aa991cb8ae9e3e833d208d7c668fa9e0c03debebc5"),
    "subspace_gaussian": (
        SubspaceScheme.from_columns(SAMPLE_DIRECTIONS, "gaussian", 2), {},
        "9c1f4876c1182d00963123e48d4850f2ff5b24cb08f3f6d40972cd030301cb7d"),
    "mixture": (
        MixtureScheme.of([Q(1, 2), Q(1, 3), 1]), {"M": 2},
        "e2bbb1b4accb6ce56fe6eb79f6e8a4aa405a74151c2229087d98f0273838cfae"),
    "selfsimilar": (
        SelfSimilarScheme(Q(1, 3), (
            FiniteDist.uniform([(0, 0), (2, 1)]),
            FiniteDist.from_pairs([((0, 1), Q(1, 4)), ((1, 0), Q(1, 4)),
                                   ((2, 2), Q(1, 2))]))), {"ifs_depth": 5},
        "def195437c421183d7d5b734004437c468a7a7e25172e9c40a3f431de6c29dec"),
}


@pytest.mark.parametrize("family", sorted(SAMPLE_FROZEN))
def test_sample_streams_frozen(family):
    scheme, kwargs, digest = SAMPLE_FROZEN[family]
    out = sample_scheme(scheme, (1 << 17) + 1, 2024, **kwargs)
    h = hashlib.sha256()
    for xs in out:
        assert xs.shape == ((1 << 17) + 1, 2) and xs.dtype == np.float64
        h.update(xs.tobytes())
    assert h.hexdigest() == digest


def test_estimate_dim_refuses_empty_samples():
    with pytest.raises(InputError):
        estimate_dim(np.zeros((0, 1)), EstimatorConfig(1, 1, 2, 0))


def test_quantized_entropy_refuses_empty_samples():
    with pytest.raises(InputError):
        quantized_entropy(np.zeros((0, 1)), 3)


def test_sample_size_warning_counts_the_given_samples():
    # 100 evenly spread samples at k2=6 estimate d ~ 1, so the guidance
    # asks for ~3200 samples, whatever cfg.n_samples says
    xs = (np.arange(100) / 100.0)[:, None]
    cfg = EstimatorConfig(n_samples=10**9, k1=3, k2=6, seed=0)
    with pytest.warns(UserWarning, match="n_samples=100 "):
        estimate_dim(xs, cfg)


def test_sample_size_guidance_does_not_overflow():
    # k2 d = 62 * 18.2 > 1024: 50 * 2.0 ** (k2 d) raised OverflowError
    rng = np.random.default_rng(0)
    xs = np.ldexp(rng.integers(0, 2, size=(300_000, 24)).astype(float), -62)
    cfg = EstimatorConfig(300_000, 61, 62, 0)
    with pytest.warns(UserWarning, match=r"n_samples=300000 .* 2\^11"):
        est = estimate_dim(xs, cfg)
    assert est.value * cfg.k2 > 1024
