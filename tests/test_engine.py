import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dofkit import (
    ChannelMatrix,
    FiniteDist,
    MimoConfig,
    MixtureScheme,
    RatMatrix,
    SelfSimilarScheme,
    Subspace,
    SubspaceScheme,
    complex_stack,
    compose_independent,
    cyclic_delay_channel,
    dof_eval,
    is_standard_form,
    mimo_check,
    parallel_extract,
    quantized_entropy,
    rational_strictness,
    scale_transform,
    search_best_subspace,
    standardize_3user,
    upper_bound,
)
from dofkit import engine, linalg
from dofkit.engine import assemble_report
from dofkit.dimension import DimValue
from dofkit.errors import (
    BudgetExceeded,
    DimMismatch,
    InputError,
    NotFullyConnected,
    NotParallel,
    NotStandardForm,
    OddM,
    OpenSetUnverified,
    RatioOutOfRange,
    SingularBlock,
    SingularScaling,
    TooFewUsers,
    UserCountMismatch,
)
from dofkit.examples import ex1, k3m3, parallel_channel, propgain, stacked
from dofkit.linalg import find_derangement, mat_det, mat_inverse
from dofkit.serialize import channel_json

from conftest import (rand_channel, rand_nonsingular, rand_scheme_dirs,
                      rref_reference)

TWO_USER = ChannelMatrix.from_rows(2, 1, [[1, 1], [1, -1]])


# ------------------------------------------------------------- rank method


def test_line_directions_fixture():
    H, scheme = ex1()
    r = dof_eval(H, scheme)
    assert r.method == "rank"
    assert [(t.full_dim.rational, t.interference_dim.rational, t.term.rational)
            for t in r.per_receiver] == [(2, 1, 1)] * 3
    assert r.total.rational == 3
    assert r.normalized == Q(3, 2)
    assert r.bound == 3 and r.bound_met is True


def test_stacked_fixture():
    H, scheme = stacked()
    r = dof_eval(H, scheme)
    assert r.total.rational == 3 and r.normalized == Q(3, 2)


def test_propagation_gain_fixture():
    H, scheme = propgain()
    r = dof_eval(H, scheme)
    assert [(t.full_dim.rational, t.interference_dim.rational)
            for t in r.per_receiver] == [(1, 0), (2, 1), (2, 1)]
    assert r.total.rational == 3


def test_seeded_three_by_three_fixture():
    H, scheme = k3m3(7)
    r = dof_eval(H, scheme)
    assert r.total.rational == 4
    assert r.bound == Q(9, 2) and r.bound_met is True


def test_dof_eval_validates_scheme():
    H, _ = ex1()
    with pytest.raises(UserCountMismatch):
        dof_eval(H, SubspaceScheme.from_columns([[(1, 1)]], ambient_dim=2))


def test_upper_bound():
    H, _ = ex1()
    assert upper_bound(H) == 3
    # no usable cross link anywhere: the certificate cannot exist
    z, o = RatMatrix.zeros(1, 1), RatMatrix.identity(1)
    H2 = ChannelMatrix.from_blocks([[o, z], [z, o]])
    assert upper_bound(H2) is None
    r = dof_eval(H2, SubspaceScheme.from_columns([[(1,)], [(1,)]],
                                                 ambient_dim=1))
    assert r.bound is None and r.bound_met is None
    assert r.total.rational == 2  # both users ride interference-free


# ---------------------------------------------------------- mixture method

MIX_CHANNEL = ChannelMatrix.from_rows(2, 2, [
    [1, 0, 1, Q(1, 3)],
    [0, 1, Q(1, 4), 1],
    [1, Q(1, 5), 1, 0],
    [Q(1, 6), 1, 0, 1],
])


def test_mixture_dof():
    r = dof_eval(MIX_CHANNEL, MixtureScheme((Q(1, 2), Q(1, 2))))
    assert r.method == "mixture"
    # per receiver: 2(1 - 1/4) - 2(1 - 1/2) = 1/2; two receivers
    assert [t.term.rational for t in r.per_receiver] == [Q(1, 2), Q(1, 2)]
    assert r.total.rational == 1
    assert r.normalized == Q(1, 2)


def test_mixture_requires_nonsingular_blocks():
    H = ChannelMatrix.from_rows(2, 2, [
        [1, 0, 1, 1],
        [0, 1, 1, 1],  # H_12 singular
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ])
    with pytest.raises(SingularBlock):
        dof_eval(H, MixtureScheme((Q(1, 2), Q(1, 2))))


# ------------------------------------------------------ self-similar method


def test_selfsimilar_dof():
    W = FiniteDist.uniform([0, 2])
    r = dof_eval(TWO_USER, SelfSimilarScheme(Q(1, 3), (W, W)))
    assert r.method == "entropy-ratio"
    # received sum has support {0,2,4} with weights (1/4,1/2,1/4): 1.5 bits;
    # interference alone is one fair bit
    for t in r.per_receiver:
        assert t.full_dim.entropy_bits == 1.5
        assert t.interference_dim.entropy_bits == 1.0
        assert t.term.entropy_bits == 0.5
    # bits add before the single division by log2(1/r)
    assert r.total.entropy_bits == 1.0
    assert r.total.as_float() == 1.0 / math.log2(3.0)
    assert r.normalized == 1.0 / math.log2(3.0)


def test_selfsimilar_refuses_unverified_receiver():
    W = FiniteDist.uniform([0, 2])
    with pytest.raises(OpenSetUnverified) as exc:
        dof_eval(TWO_USER, SelfSimilarScheme(Q(1, 2), (W, W)))
    assert "receiver 1" in str(exc.value)


def test_selfsimilar_refuses_ratio_beyond_float_range():
    # 1/r = 2^1100 has no float, so log2(1/r) cannot be formed
    W = FiniteDist.uniform([0, 1])
    with pytest.raises(RatioOutOfRange):
        dof_eval(TWO_USER, SelfSimilarScheme(Q(1, 2 ** 1100), (W, W)))


# --------------------------------------------------------------- rescaling


def test_scale_transform():
    H, scheme = ex1()
    rng = random.Random(1)
    D1 = [rand_nonsingular(rng, 2) for _ in range(3)]
    D2 = [rand_nonsingular(rng, 2) for _ in range(3)]
    H2 = scale_transform(H, D1, D2)
    assert H2.block(0, 1) == D1[0] * H.block(0, 1) * D2[1]
    comp = SubspaceScheme(tuple(mat_inverse(D2[j]) * scheme.directions[j]
                                for j in range(3)), scheme.latent_tag)
    assert dof_eval(H2, comp).total == dof_eval(H, scheme).total


def test_scale_transform_rejects_singular():
    H, _ = ex1()
    bad = [RatMatrix.zeros(2, 2)] + [RatMatrix.identity(2)] * 2
    with pytest.raises(SingularScaling):
        scale_transform(H, bad, [RatMatrix.identity(2)] * 3)


# ------------------------------------------------------------ parallel ICs


def test_parallel_extract_stacked():
    H, _ = stacked()
    dec = parallel_extract(H)
    assert len(dec.subchannels) == 2
    assert dec.subchannels[0].to_rows() == [[1, 1, -1], [-1, 1, 1], [1, -1, 1]]
    assert dec.subchannels[1].to_rows() == [[1, -1, 1], [1, 1, -1], [-1, 1, 1]]
    assert dec.fully_connected and dec.dets_verified


def test_parallel_extract_flags_zero_coefficients():
    H, _ = propgain()
    dec = parallel_extract(H)
    assert not dec.fully_connected  # upper-triangular zeros
    assert dec.dets_verified


def test_parallel_extract_rejects_coupled_blocks():
    H, _ = ex1()
    with pytest.raises(NotParallel):
        parallel_extract(H)


def test_compose_independent_adds_dof():
    rng = random.Random(6)
    subs = [rand_nonsingular(rng, 3, nonzero=True) for _ in range(2)]
    H = parallel_channel(subs)
    per = [SubspaceScheme.from_columns([[(1,)], [(1,)], []], ambient_dim=1),
           SubspaceScheme.from_columns([[(1,)], [], [(1,)]], ambient_dim=1)]
    joint = compose_independent(per)
    assert joint.directions[0].to_rows() == [[1, 0], [0, 1]]
    total = dof_eval(H, joint).total.rational
    parts = [dof_eval(parallel_channel([subs[m]]), per[m]).total.rational
             for m in range(2)]
    assert total == sum(parts)


def test_compose_independent_validation():
    a = SubspaceScheme.from_columns([[(1,)], [(1,)]], ambient_dim=1)
    b = SubspaceScheme.from_columns([[(1,)]], ambient_dim=1)
    with pytest.raises(UserCountMismatch):
        compose_independent([a, b])
    with pytest.raises(InputError):
        compose_independent([])


# ------------------------------------------------------ alignment checking


def test_mimo_check_aligned_lines():
    H, _ = ex1()
    U = [Subspace.from_columns(2, [(1, 1)]),
         Subspace.from_columns(2, [(1, 2)]),
         Subspace.from_columns(2, [(1, 3)])]
    V = [Subspace.from_columns(2, [(3, -1)]),
         Subspace.from_columns(2, [(4, -1)]),
         Subspace.from_columns(2, [(1, -1)])]
    cert = mimo_check(H, MimoConfig(tuple(zip(U, V))))
    assert cert.ok and cert.ell == 3
    assert cert.failures == ()
    assert all(cert.detV_nonzero)


def test_mimo_check_reports_leakage():
    H, _ = ex1()
    U = [Subspace.from_columns(2, [(1, 1)]),
         Subspace.from_columns(2, [(1, 2)]),
         Subspace.from_columns(2, [(1, 3)])]
    V = [Subspace.from_columns(2, [(1, 0)]),  # hears transmitter 2
         Subspace.from_columns(2, [(4, -1)]),
         Subspace.from_columns(2, [(1, -1)])]
    cert = mimo_check(H, MimoConfig(tuple(zip(U, V))))
    assert not cert.ok
    assert ("a", (1, 2)) in cert.failures


def test_mimo_check_reports_collapsed_signal():
    blocks = [[RatMatrix.from_rows([[1, 0], [0, 0]]), RatMatrix.identity(2)],
              [RatMatrix.identity(2), RatMatrix.identity(2)]]
    H = ChannelMatrix.from_blocks(blocks)
    U = [Subspace.from_columns(2, [(0, 1)]),  # killed by the singular link
         Subspace.from_columns(2, [(1, 0)])]
    V = [Subspace.from_columns(2, [(0, 1)]),
         Subspace.from_columns(2, [(1, 0)])]
    cert = mimo_check(H, MimoConfig(tuple(zip(U, V))))
    assert not cert.ok
    assert ("b", (1,)) in cert.failures
    assert ("c", (1,)) in cert.failures  # same defect, determinant view


def test_mimo_config_dim_mismatch():
    from dofkit.errors import DimMismatch
    with pytest.raises(DimMismatch):
        MimoConfig(((Subspace.from_columns(2, [(1, 0)]),
                     Subspace.from_columns(2, [(1, 0), (0, 1)])),))


# ------------------------------------------------------------ complex case


def test_complex_stack_single_link():
    re = RatMatrix.from_rows([[3]])
    im = RatMatrix.from_rows([[4]])
    # 2-user wrapper: same h on every link keeps the shape checks honest
    H = complex_stack([[re, re], [re, re]], [[im, im], [im, im]])
    assert H.M == 2
    blk = H.block(0, 0)
    assert blk.to_rows() == [[3, -4], [4, 3]]
    assert mat_det(blk) == 25


def test_cyclic_delay_channel():
    for (K, M), want in (((3, 2), 3), ((3, 4), 6), ((4, 6), 12)):
        H, scheme = cyclic_delay_channel(K, M)
        r = dof_eval(H, scheme)
        assert r.total.rational == want == Q(K * M, 2)
        assert r.bound_met is True
    with pytest.raises(TooFewUsers):
        cyclic_delay_channel(2, 2)
    with pytest.raises(OddM):
        cyclic_delay_channel(3, 3)


# ------------------------------------------------------------ 3-user forms


def test_standardize_alternating_matrix():
    A = RatMatrix.from_rows([[1, 1, -1], [-1, 1, 1], [1, -1, 1]])
    sf = standardize_3user(A)
    assert sf.matrix.to_rows() == [[1, 1, 1], [1, -1, 1], [1, -1, -1]]
    assert (sf.a, sf.b, sf.c, sf.d) == (1, -1, -1, -1)
    assert is_standard_form(sf.matrix)
    # scalings actually reproduce the normalized matrix
    R = RatMatrix.from_rows([[sf.row_scalings[i] if i == j else 0
                              for j in range(3)] for i in range(3)])
    C = RatMatrix.from_rows([[sf.col_scalings[i] if i == j else 0
                              for j in range(3)] for i in range(3)])
    assert R * A * C == sf.matrix


def test_standardize_requires_full_connectivity():
    A = RatMatrix.from_rows([[1, 0, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(NotFullyConnected):
        standardize_3user(A)


def test_standardize_random_roundtrip():
    rng = random.Random(12)
    for _ in range(50):
        A = RatMatrix(3, 3, tuple(
            Q(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
            for _ in range(9)))
        sf = standardize_3user(A)
        assert is_standard_form(sf.matrix)
        assert (sf.matrix.at(0, 0), sf.matrix.at(1, 1),
                sf.matrix.at(2, 2), sf.matrix.at(2, 1)) == \
            (sf.a, sf.b, sf.c, sf.d)


def test_strictness_single_subchannel():
    sf = standardize_3user(RatMatrix.from_rows([[1, 1, -1], [-1, 1, 1],
                                                [1, -1, 1]]))
    claim = rational_strictness([sf.matrix])
    assert claim.hypothesis_holds
    assert claim.claim == "DoFStrictlyBelowThreeHalves"
    assert claim.constant_families == ("a", "b", "c")
    assert not claim.symmetry_based


def test_strictness_stacked_pair_makes_no_claim():
    H, _ = stacked()
    dec = parallel_extract(H)
    forms = [standardize_3user(S).matrix for S in dec.subchannels]
    # second subchannel normalizes to (a,b,c,d) = (-1,1,1,-1): no family
    # stays constant against (1,-1,-1,-1)
    assert (forms[1].at(0, 0), forms[1].at(1, 1), forms[1].at(2, 2),
            forms[1].at(2, 1)) == (-1, 1, 1, -1)
    claim = rational_strictness(forms)
    assert not claim.hypothesis_holds and claim.claim == "NoClaim"
    assert claim.constant_families == ()


def test_strictness_symmetry_flag():
    S1 = RatMatrix.from_rows([[2, 1, 1], [1, 5, 1], [1, 1, 7]])
    S2 = RatMatrix.from_rows([[3, 1, 1], [1, 5, 1], [1, 1, 8]])
    claim = rational_strictness([S1, S2])
    assert claim.hypothesis_holds and claim.constant_families == ("b",)
    assert claim.symmetry_based


def test_strictness_rejects_raw_matrices():
    with pytest.raises(NotStandardForm):
        rational_strictness([RatMatrix.from_rows([[1, -1, 1], [1, 1, -1],
                                                  [-1, 1, 1]])])
    with pytest.raises(InputError):
        rational_strictness([])


# ------------------------------------------------------------- pool search


POOL = [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3)]


def test_search_best_subspace():
    H, _ = ex1()
    scheme, report = search_best_subspace(H, [POOL] * 3, (1, 1, 1))
    assert report.total.rational == 3
    assert [tuple(V.col(0)) for V in scheme.directions] == \
        [(1, 1), (1, 2), (1, 3)]
    # pools are read once, so one-shot iterables serve as well as lists
    once = search_best_subspace(H, [iter(POOL), (v for v in POOL),
                                    map(list, POOL)], (1, 1, 1))
    assert once == (scheme, report)
    with pytest.raises(DimMismatch, match="user 2 has length 3"):
        search_best_subspace(H, [POOL, POOL + [(1, 1, 1)], POOL], (1, 1, 1))


def test_search_eliminates_each_direction_matrix_once(monkeypatch):
    # a user's direction matrix is stacked only when its combination
    # changes and eliminated once: the search's pre-check and
    # SubspaceScheme share that rank, so beyond it each full-rank
    # assignment eliminates only dof_eval's 2K sums
    H, _ = ex1()
    find_derangement(H)  # the bound's K(K-1) determinants, decided first
    eliminations, evaluated = [], []
    eliminate, evaluate = linalg._eliminate, engine.dof_eval
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda A: eliminations.append(A) or eliminate(A))
    monkeypatch.setattr(engine, "dof_eval",
                        lambda *a: evaluated.append(a) or evaluate(*a))
    dims = (1, 1, 1)
    scheme, report = search_best_subspace(H, [POOL] * 3, dims)
    assert report.total.rational == 3
    # product() changes user j's combination prod_{i <= j} C(5, d_i) times
    built = sum(math.prod(math.comb(len(POOL), d) for d in dims[:j + 1])
                for j in range(H.K))
    assert len(evaluated) == 125 and built == 155
    assert len(eliminations) <= built + 2 * H.K * len(evaluated)
    # a scheme over matrices the search has ranked eliminates nothing more
    before = len(eliminations)
    assert SubspaceScheme(scheme.directions) == scheme
    V = RatMatrix.from_columns([(1, 1), (1, 2)])
    assert linalg.mat_rank(V) == 2 and len(eliminations) == before + 1
    SubspaceScheme((V, V, V))
    assert len(eliminations) == before + 1


def test_search_budget():
    # 101^3 = 1030301 assignments, over SEARCH_BUDGET = 10^6
    H, _ = ex1()
    pool = [(1, t) for t in range(101)]
    with pytest.raises(BudgetExceeded):
        search_best_subspace(H, [pool] * 3, (1, 1, 1))


_X = np.array([[0.1, 0.2], [0.3, 0.4]])
_ENTRY_POINTS = {
    "search": lambda x: search_best_subspace(ex1()[0], [POOL] * 3, [x, 1, 1]),
    "cyclic": lambda x: cyclic_delay_channel(x, 2),
    "entropy": lambda x: quantized_entropy(_X, x),
    "channel-K": lambda x: ChannelMatrix.from_rows(x, 1, [[1, 1], [1, -1]]),
    "channel-M": lambda x: ChannelMatrix.from_rows(2, x, [[1, 1], [1, -1]]),
    "scheme-M": lambda x: SubspaceScheme.from_columns([[(1, 1)], []],
                                                      ambient_dim=x),
}


@pytest.mark.parametrize("entry, x", [
    ("search", 1.0), ("search", True), ("cyclic", 3.0), ("cyclic", True),
    ("entropy", 2.5), ("entropy", True), ("channel-K", 2.0),
    ("channel-K", True), ("channel-M", True), ("scheme-M", 2.0),
    ("scheme-M", True)])
def test_entry_points_refuse_sizes_that_are_not_integers(entry, x):
    # sizes are ints: a float or a bool is an InputError naming the value,
    # not a raw TypeError, a run with 1 or a refusal for another reason
    with pytest.raises(InputError, match="must be an integer, got %r" % (x,)):
        _ENTRY_POINTS[entry](x)


def test_search_pool_too_small():
    H, _ = ex1()
    with pytest.raises(InputError):
        search_best_subspace(H, [POOL] * 3, (1, 1, 6))


def test_derangement_is_decided_once_per_channel(monkeypatch):
    # two dof_evals and a search on one H take the K(K-1) block
    # determinants of one certificate; every later bound is a lookup
    dets = []

    def counting(A):
        dets.append(A)
        return mat_det(A)

    monkeypatch.setattr(linalg, "mat_det", counting)
    H, scheme = ex1()
    first = dof_eval(H, scheme)
    assert dof_eval(H, scheme) == first and first.bound == 3
    assert search_best_subspace(H, [POOL] * 3, (1, 1, 1))[1].bound == 3
    assert len(dets) == H.K * (H.K - 1)
    # the cached certificate (and the blocks' cached integer forms) leave
    # the channel as it was: equal, hashed, serialized and declared alike
    fresh = ChannelMatrix.from_rows(3, 2, H.full_matrix().to_rows())
    assert "derangement" in vars(H) and "derangement" not in vars(fresh)
    assert H == fresh and hash(H) == hash(fresh)
    assert H.block(0, 1) == fresh.block(0, 1)
    assert hash(H.block(0, 1)) == hash(fresh.block(0, 1))
    assert json.dumps(channel_json(H)) == json.dumps(channel_json(fresh))
    assert [f.name for f in dataclasses.fields(RatMatrix)] == \
        ["rows", "cols", "entries"]
    assert [f.name for f in dataclasses.fields(ChannelMatrix)] == \
        ["K", "M", "blocks"]


def _rank(rows):
    return len(rref_reference([list(r) for r in rows])[1])


def _product(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Q(0)) for col in zip(*B)]
            for row in A]


def search_reference(H, pools, dims):
    """(total, argmax, bound) by brute force over Fractions, independent of
    the library's kernels: every assignment of d_j pool vectors per user in
    lexicographic pool-index order, ranks by rref_reference, ties to the
    first assignment; KM/2 when some fixed-point-free assignment has
    nonsingular cross blocks."""
    K, M = H.K, H.M
    blocks = [[H.block(i, j).to_rows() for j in range(K)] for i in range(K)]
    best = None
    for assignment in itertools.product(*(
            itertools.combinations(pool, d) for pool, d in zip(pools, dims))):
        V = [[[Q(v[a]) for v in vs] for a in range(M)] for vs in assignment]
        if any(_rank(Vj) != len(vs) for Vj, vs in zip(V, assignment)):
            continue
        total = 0
        for i in range(K):
            images = [_product(blocks[i][j], V[j]) for j in range(K)]
            total += _rank([sum(rows, []) for rows in zip(*images)])
            total -= _rank([sum(rows, []) for rows in zip(
                *(images[j] for j in range(K) if j != i))])
        if best is None or total > best[0]:
            best = (total, tuple(tuple(tuple(map(Q, v)) for v in vs)
                                 for vs in assignment))
    bound = Q(K * M, 2) if any(
        all(s[i] != i and _rank(blocks[i][s[i]]) == M for i in range(K))
        for s in itertools.permutations(range(K))) else None
    return best + (bound,)


def _rational_pool_cases():
    # perfbench-style pools: aligning vectors among seeded rational
    # distractors, shuffled per user
    for seed in (1, 2):
        rng = random.Random(seed)

        def vec(m):
            return tuple(Q(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(m))

        # ex1: the aligning POOL plus Fraction distractors
        H, _ = ex1()
        pools = [POOL + [vec(2) for _ in range(3)] for _ in range(3)]
        for p in pools:
            rng.shuffle(p)
        yield pytest.param(H, pools, (1, 1, 1), id="ex1-%d" % seed)
        # k3m3: three parallel subchannels [[a,1,1],[1,b,1],[1,d,c]]; user
        # 1 aligns on (1,1,1) and d, users 2 and 3 on (1,1,1), and the
        # scaled copy (2,2,2) makes some of user 1's pairs rank deficient
        a, b, c, d = ([Q(rng.randint(1, 9), rng.randint(1, 9))
                       for _ in range(3)] for _ in range(4))
        H = parallel_channel([RatMatrix.from_rows(
            [[a[m], 1, 1], [1, b[m], 1], [1, d[m], c[m]]]) for m in range(3)])
        ones = (1, 1, 1)
        pools = [[ones, tuple(d), (2, 2, 2)] + [vec(3) for _ in range(3)],
                 [ones] + [vec(3) for _ in range(4)],
                 [ones] + [vec(3) for _ in range(4)]]
        for p in pools:
            rng.shuffle(p)
        yield pytest.param(H, pools, (2, 1, 1), id="k3m3-%d" % seed)


@pytest.mark.parametrize("H, pools, dims", _rational_pool_cases())
def test_search_on_rational_pools_matches_brute_force(H, pools, dims):
    scheme, report = search_best_subspace(H, pools, dims)
    total, argmax, bound = search_reference(H, pools, dims)
    assert report.total.rational == total
    assert tuple(tuple(map(tuple, V.transpose().to_rows()))
                 for V in scheme.directions) == argmax
    assert report.bound == bound
