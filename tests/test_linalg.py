import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dofkit import ChannelMatrix, RatMatrix, Subspace, dim_subspace_sum
from dofkit.errors import DimMismatch, InputError, UserCountMismatch
from dofkit.linalg import (
    column_space,
    find_derangement,
    mat_det,
    mat_inverse,
    mat_rank,
    null_space,
    projected_dim,
)

from conftest import (rand_channel, rand_full_rank, rand_matrix,
                      rand_nonsingular, rref_reference)

fractions_st = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def square_st(n):
    return st.lists(fractions_st, min_size=n * n, max_size=n * n).map(
        lambda ent: RatMatrix(n, n, tuple(ent)))


def det_by_permutations(A: RatMatrix) -> Q:
    """Leibniz-formula determinant; an oracle independent of the
    fraction-free elimination used by mat_det."""
    n = A.rows
    total = Q(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        term = Q(sign)
        for i in range(n):
            term *= A.at(i, perm[i])
        total += term
    return total


# ---------------------------------------------------------------- matrices


def test_matrix_shape_validation():
    with pytest.raises(InputError):
        RatMatrix(2, 2, (Q(1), Q(2), Q(3)))
    with pytest.raises(InputError):
        RatMatrix.from_rows([[1, 2], [3]])


def test_matrix_dimensions_must_be_ints():
    # a float row count built a 2.0 x 0 matrix that mat_rank then failed on
    # with TypeError; a bool counted as 1
    for make in (lambda: RatMatrix.from_columns([], 2.0),
                 lambda: RatMatrix(True, 1, (Q(1),)),
                 lambda: RatMatrix(1, 1.0, (Q(1),))):
        with pytest.raises(InputError, match="must be an integer"):
            make()


def test_matrix_ops_smoke():
    A = RatMatrix.from_rows([[1, 2], [3, 4]])
    B = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert (A * B).to_rows() == [[Q(2), Q(1)], [Q(4), Q(3)]]
    assert (A + B).to_rows() == [[Q(1), Q(3)], [Q(4), Q(4)]]
    assert (-A).at(1, 1) == Q(-4)
    assert A.transpose().to_rows() == [[Q(1), Q(3)], [Q(2), Q(4)]]
    assert RatMatrix.hstack([A, B]).cols == 4
    assert A.scale(Q(1, 2)).at(0, 1) == 1
    with pytest.raises(InputError):
        A * RatMatrix.identity(3)


def test_from_columns_and_from_blocks_match_row_major_assembly():
    rng = random.Random(8)
    for _ in range(60):
        heights = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        widths = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        grid = [[rand_matrix(rng, h, w) for w in widths] for h in heights]
        rows = [[x for b in brow for x in b.row(a)]
                for brow, h in zip(grid, heights) for a in range(h)]
        expect = RatMatrix(sum(heights), sum(widths),
                           tuple(x for row in rows for x in row))
        assert RatMatrix.from_blocks(grid) == expect
        assert RatMatrix.from_columns(
            [[row[j] for row in rows] for j in range(expect.cols)],
            expect.rows) == expect
    assert RatMatrix.from_columns([1, (2,)]) == RatMatrix.from_rows([[1, 2]])
    assert RatMatrix.from_columns([], 3) == RatMatrix.zeros(3, 0)

    A, B = RatMatrix.identity(2), RatMatrix.identity(3)
    with pytest.raises(DimMismatch):
        RatMatrix.from_blocks([[A, B]])  # heights 2 and 3 in one grid row
    with pytest.raises(DimMismatch):
        RatMatrix.from_blocks([[A], [RatMatrix.zeros(2, 3)]])  # widths 2 and 3
    with pytest.raises(DimMismatch):
        RatMatrix.from_blocks([[A, A], [A]])  # ragged grid
    with pytest.raises(InputError):
        RatMatrix.from_blocks([])
    with pytest.raises(InputError):
        RatMatrix.from_blocks([[]])
    with pytest.raises(DimMismatch):
        RatMatrix.from_columns([(1, 0), (0, 1, 7)])
    with pytest.raises(DimMismatch):
        RatMatrix.from_columns([(1, 0)], 3)
    with pytest.raises(InputError):
        RatMatrix.from_columns([])


def test_det_frozen_values():
    # alternating-sign 3x3 used by the block-diagonal fixture
    A = RatMatrix.from_rows([[1, 1, -1], [-1, 1, 1], [1, -1, 1]])
    assert mat_det(A) == 4
    assert mat_det(RatMatrix.identity(4)) == 1
    assert mat_det(RatMatrix.from_rows([[1, 2], [2, 4]])) == 0
    assert mat_det(RatMatrix.from_rows([[Q(1, 2), Q(1, 3)],
                                        [Q(1, 5), Q(1, 7)]])) == Q(1, 210)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(square_st))
def test_det_matches_permutation_expansion(A):
    assert mat_det(A) == det_by_permutations(A)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(square_st(n), square_st(n))))
def test_det_multiplicative(pair):
    A, B = pair
    assert mat_det(A * B) == mat_det(A) * mat_det(B)


def test_det_requires_square():
    with pytest.raises(InputError):
        mat_det(RatMatrix.zeros(2, 3))


def test_rank_basics():
    assert mat_rank(RatMatrix.zeros(3, 2)) == 0
    assert mat_rank(RatMatrix.identity(5)) == 5
    A = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert mat_rank(A) == 2


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10))
def test_rank_permutation_invariant(seed):
    rng = random.Random(seed)
    A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
    r = mat_rank(A)
    rows = A.to_rows()
    rng.shuffle(rows)
    cols = list(zip(*rows))
    rng.shuffle(cols)
    B = RatMatrix.from_rows([list(r) for r in zip(*cols)])
    assert mat_rank(B) == r
    assert r <= min(A.rows, A.cols)


def test_inverse():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        A = rand_nonsingular(rng, n)
        assert A * mat_inverse(A) == RatMatrix.identity(n)
        assert mat_inverse(A) * A == RatMatrix.identity(n)
    with pytest.raises(InputError):
        mat_inverse(RatMatrix.from_rows([[1, 2], [2, 4]]))


def test_null_space():
    rng = random.Random(11)
    for _ in range(30):
        A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        N = null_space(A)
        assert N.cols == A.cols - mat_rank(A)
        assert (A * N).is_zero()
        assert mat_rank(N) == N.cols
    assert null_space(RatMatrix.identity(3)).cols == 0


def test_column_space():
    A = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    S = column_space(A)
    assert S.dim == 2
    for c in range(A.cols):
        assert S.contains(tuple(A.at(r, c) for r in range(A.rows)))


# Frozen outputs of the three functions built on the shared RREF, on fixed
# matrices: rank-deficient, wide, tall, zero, nonsingular and one that needs
# row swaps.  Frozen from the separate Gauss-Jordan loop each function had
# before, and recomputed by scripts/derive_oracles.py with sympy's
# nullspace, columnspace and inv.  Each entry: (matrix, null-space basis
# as columns, column-space basis, inverse; "singular" when there is none,
# None when the matrix is not square).
ELIMINATION_FROZEN = {
    "rank_deficient_3x3": (
        [[1, 2, 3], [2, 4, 6], [1, 0, 1]],
        [[-1], [-1], [1]], [[1, 2], [2, 4], [1, 0]], "singular"),
    "wide_2x4": (
        [[0, Q(1, 2), 0, 3], [2, 1, Q(1, 3), -1]],
        [[Q(-1, 6), Q(7, 2)], [0, -6], [1, 0], [0, 1]],
        [[0, Q(1, 2)], [2, 1]], None),
    "tall_4x2": (
        [[1, 2], [3, 4], [5, 6], [7, 8]],
        [[], []], [[1, 2], [3, 4], [5, 6], [7, 8]], None),
    "tall_rank_deficient_4x3": (
        [[0, 0, 0], [2, 4, 6], [1, 2, 3], [1, 1, Q(-1, 2)]],
        [[4], [Q(-7, 2)], [1]], [[0, 0], [2, 4], [1, 2], [1, 1]], None),
    "zero_2x3": (
        [[0, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[], []], None),
    "nonsingular_3x3": (
        [[0, Q(1, 3), 2], [1, 1, -1], [Q(5, 2), 0, 4]],
        [[], [], []], [[0, Q(1, 3), 2], [1, 1, -1], [Q(5, 2), 0, 4]],
        [[Q(-24, 43), Q(8, 43), Q(14, 43)], [Q(39, 43), Q(30, 43), Q(-12, 43)],
         [Q(15, 43), Q(-5, 43), Q(2, 43)]]),
    "permutation_3x3": (
        [[0, 0, 1], [0, 2, 0], [3, 0, 0]],
        [[], [], []], [[0, 0, 1], [0, 2, 0], [3, 0, 0]],
        [[0, 0, Q(1, 3)], [0, Q(1, 2), 0], [1, 0, 0]]),
}


@pytest.mark.parametrize("name", sorted(ELIMINATION_FROZEN))
def test_elimination_outputs_frozen(name):
    rows, null, col, inv = ELIMINATION_FROZEN[name]
    A = RatMatrix.from_rows(rows)
    assert null_space(A) == RatMatrix.from_rows(null)
    assert column_space(A).basis == RatMatrix.from_rows(col)
    if inv == "singular":
        with pytest.raises(InputError):
            mat_inverse(A)
    elif inv is not None:
        assert mat_inverse(A) == RatMatrix.from_rows(inv)


@st.composite
def rational_matrices(draw):
    """1-5 x 1-6 (and empty) matrices, half of them square, with zero
    entries and, sometimes, a last row that combines two earlier ones."""
    r = draw(st.integers(0, 5))
    c = draw(st.one_of(st.just(r), st.integers(0, 6)))
    entry = st.one_of(st.just(Q(0)), fractions_st)
    rows = [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)]
    if r >= 2 and draw(st.booleans()):
        a, b = draw(fractions_st), draw(fractions_st)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
    return RatMatrix(r, c, tuple(x for row in rows for x in row))


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
@example(RatMatrix(0, 3, ()))
@example(RatMatrix(2, 0, ()))
@example(RatMatrix(0, 0, ()))
def test_elimination_matches_fraction_reference(A):
    rref, pivots = rref_reference(A.to_rows())
    assert mat_rank(A) == len(pivots)
    free = [f for f in range(A.cols) if f not in pivots]
    null = [Q(int(i == f)) if i not in pivots else -rref[pivots.index(i)][f]
            for i in range(A.cols) for f in free]
    assert null_space(A) == RatMatrix(A.cols, len(free), tuple(null))
    assert column_space(A).basis == RatMatrix(
        A.rows, len(pivots),
        tuple(A.at(i, c) for i in range(A.rows) for c in pivots))
    if not A.is_square():
        return
    n = A.rows
    assert mat_det(A) == det_by_permutations(A)
    aug, aug_pivots = rref_reference([row + [Q(int(i == j)) for j in range(n)]
                                      for i, row in enumerate(A.to_rows())])
    if aug_pivots[:n] == list(range(n)):
        assert mat_inverse(A) == RatMatrix(
            n, n, tuple(x for row in aug for x in row[n:]))
    else:
        with pytest.raises(InputError):
            mat_inverse(A)


@st.composite
def matrix_products(draw):
    """A (r x n) and B (n x c), each size 0-4, with zero entries, small
    fractions and fractions of denominators up to 2^70."""
    r, n, c = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.one_of(st.just(Q(0)), fractions_st,
                      st.fractions(max_denominator=2 ** 70))

    def matrix(rows, cols):
        return RatMatrix(rows, cols, tuple(draw(st.lists(
            entry, min_size=rows * cols, max_size=rows * cols))))

    return matrix(r, n), matrix(n, c)


@settings(max_examples=300, deadline=None)
@given(matrix_products())
@example((RatMatrix(0, 3, ()), RatMatrix.identity(3)))
@example((RatMatrix.identity(2), RatMatrix(2, 0, ())))
@example((RatMatrix(2, 0, ()), RatMatrix(0, 3, ())))
@example((RatMatrix.from_rows([[Q(1, 2 ** 70 - 1), Q(3, 2 ** 69)]]),
          RatMatrix.from_rows([[Q(2 ** 70 - 1, 7)], [Q(-5, 3 ** 40)]])))
def test_integer_matmul_matches_fraction_sums(pair):
    # the integer dot products over La * Lb equal the Fraction definition
    # sum_t a_it * b_tj entry for entry, in lowest terms
    A, B = pair
    want = tuple(sum((A.at(i, t) * B.at(t, j) for t in range(A.cols)), Q(0))
                 for i in range(A.rows) for j in range(B.cols))
    got = A * B
    assert got == RatMatrix(A.rows, B.cols, want)
    assert all(type(x) is Q for x in got.entries)


def test_elimination_edge_shapes():
    assert null_space(RatMatrix.zeros(0, 3)) == RatMatrix.identity(3)
    assert null_space(RatMatrix.zeros(2, 0)) == RatMatrix.zeros(0, 0)
    assert mat_det(RatMatrix.zeros(0, 0)) == 1
    assert mat_inverse(RatMatrix.zeros(0, 0)) == RatMatrix.zeros(0, 0)


# ---------------------------------------------------------------- subspaces


def test_subspace_basics():
    S = Subspace.from_columns(2, [(1, 2)])
    assert S.dim == 1 and S.ambient_dim == 2
    assert S.contains((Q(1, 2), Q(1)))
    assert not S.contains((1, 1))
    Z = Subspace.zero(3)
    assert Z.dim == 0
    assert Z.contains((0, 0, 0))
    with pytest.raises(InputError):
        Subspace.from_columns(2, [(1, 2), (2, 4)])  # dependent columns


def test_projected_dim_frozen():
    T = Subspace.from_columns(2, [(3, -1)])
    S = Subspace.from_columns(2, [(1, 2)])
    assert projected_dim(T, S) == 1
    # projecting a line onto its own orthogonal complement kills it
    C = S.orthogonal_complement()
    assert projected_dim(C, S) == 0
    assert projected_dim(S, S) == S.dim
    assert projected_dim(Subspace.zero(2), S) == 0
    assert projected_dim(S, Subspace.zero(2)) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_projected_dim_bounds(seed):
    rng = random.Random(seed)
    M = rng.randint(1, 4)
    dt, ds = rng.randint(0, M), rng.randint(0, M)
    T = (Subspace.from_columns(M, rand_full_rank(rng, M, dt).transpose().to_rows())
         if dt else Subspace.zero(M))
    S = (Subspace.from_columns(M, rand_full_rank(rng, M, ds).transpose().to_rows())
         if ds else Subspace.zero(M))
    assert projected_dim(T, S) <= min(T.dim, S.dim)
    assert projected_dim(T, T) == T.dim


def test_orthogonal_complement():
    rng = random.Random(5)
    for _ in range(20):
        M = rng.randint(1, 4)
        d = rng.randint(0, M)
        S = (Subspace.from_columns(M, rand_full_rank(rng, M, d).transpose().to_rows())
             if d else Subspace.zero(M))
        C = S.orthogonal_complement()
        assert S.dim + C.dim == M
        if S.dim and C.dim:
            # bases are mutually orthogonal, so the sum is direct
            assert dim_subspace_sum([S.basis, C.basis]) == M


def test_subspace_sum_dim():
    a = Subspace.from_columns(3, [(1, 0, 0)])
    b = Subspace.from_columns(3, [(1, 1, 0)])
    assert dim_subspace_sum([a.basis, b.basis]) == 2
    assert dim_subspace_sum([a.basis, a.basis]) == 1


# ----------------------------------------------------------- channel grids


def test_channel_matrix_slicing():
    rows = [[1, 0, 1, 0], [0, 1, 0, 1], [2, 0, 3, 0], [0, 2, 0, 3]]
    H = ChannelMatrix.from_rows(2, 2, rows)
    assert H.block(1, 0).to_rows() == [[Q(2), Q(0)], [Q(0), Q(2)]]
    assert H.full_matrix().to_rows() == RatMatrix.from_rows(rows).to_rows()
    H2 = ChannelMatrix.from_blocks([[H.block(i, j) for j in range(2)]
                                    for i in range(2)])
    assert H2 == H
    assert H.is_parallel()
    rows[0][1] = 5
    assert not ChannelMatrix.from_rows(2, 2, rows).is_parallel()


def test_channel_matrix_validation():
    with pytest.raises(UserCountMismatch):
        ChannelMatrix.from_rows(1, 2, [[1, 1], [1, 1]])
    with pytest.raises(InputError):
        ChannelMatrix.from_rows(2, 2, [[1] * 4] * 3)


# ------------------------------------------------------------ derangements


def brute_derangement(H: ChannelMatrix):
    """Smallest valid assignment by exhaustive search (test oracle)."""
    K = H.K
    best = None
    for perm in itertools.permutations(range(1, K + 1)):
        if any(perm[i] == i + 1 for i in range(K)):
            continue
        if any(mat_det(H.block(i, perm[i] - 1)) == 0 for i in range(K)):
            continue
        if best is None or perm < best:
            best = perm
    return best


def test_derangement_all_nonsingular():
    rng = random.Random(2)
    # K=3, every off-diagonal block invertible: lexicographic minimum is
    # receiver i listening to transmitter i+1 cyclically
    H = rand_channel(rng, 3, 2, derangeable=True)
    cert = find_derangement(H)
    assert cert is not None and cert.sigma == (2, 3, 1)
    assert cert.verified


def test_derangement_forced_cycle():
    z = RatMatrix.zeros(1, 1)
    o = RatMatrix.identity(1)
    # only links 1->3, 2->1, 3->2 usable: unique derangement (3, 1, 2)
    H = ChannelMatrix.from_blocks([[o, z, o], [o, o, z], [z, o, o]])
    cert = find_derangement(H)
    assert cert.sigma == (3, 1, 2)


def test_derangement_none_when_impossible():
    z = RatMatrix.zeros(1, 1)
    o = RatMatrix.identity(1)
    H = ChannelMatrix.from_blocks([[o, z], [z, o]])  # no cross links at all
    assert find_derangement(H) is None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_derangement_matches_bruteforce(seed):
    rng = random.Random(seed)
    K = rng.randint(2, 4)
    blocks = [[RatMatrix.from_rows([[rng.choice([0, 0, 1, 2])]])
               for _ in range(K)] for _ in range(K)]
    H = ChannelMatrix.from_blocks(blocks)
    cert = find_derangement(H)
    expect = brute_derangement(H)
    if expect is None:
        assert cert is None
    else:
        assert cert is not None and cert.sigma == expect
