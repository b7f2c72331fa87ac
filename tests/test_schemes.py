import random
from fractions import Fraction as Q

import pytest

from dofkit import (
    ChannelMatrix,
    FiniteDist,
    MixtureScheme,
    RatMatrix,
    SelfSimilarScheme,
    SubspaceScheme,
    dof_eval,
    validate_scheme,
)
from dofkit import linalg, schemes
from dofkit.errors import (
    AlphaOutOfRange,
    AmbientDimMismatch,
    DimMismatch,
    InputError,
    RankDeficientDirections,
    RatioOutOfRange,
    UserCountMismatch,
)

from dofkit.serialize import parse_scheme

from conftest import rand_channel


def test_finite_dist_validation():
    ok = FiniteDist.from_pairs([((0,), Q(1, 2)), ((1,), Q(1, 2))])
    assert ok.dim == 1 and ok.is_scalar()
    assert sum(ok.probs) == 1
    with pytest.raises(InputError):
        FiniteDist.from_pairs([])
    with pytest.raises(InputError):
        FiniteDist.from_pairs([((0,), Q(1, 2)), ((0,), Q(1, 2))])  # dup atom
    with pytest.raises(InputError):
        FiniteDist.from_pairs([((0,), Q(1, 2)), ((1,), Q(1, 3))])  # sum != 1
    with pytest.raises(InputError):
        FiniteDist.from_pairs([((0,), Q(3, 2)), ((1,), Q(-1, 2))])  # negative
    with pytest.raises(InputError):
        FiniteDist.from_pairs([((0,), Q(1, 2)), ((1, 1), Q(1, 2))])  # ragged


def test_finite_dist_uniform():
    D = FiniteDist.uniform([0, Q(1, 2), 1])
    assert D.points == ((Q(0),), (Q(1, 2),), (Q(1),))
    assert all(p == Q(1, 3) for p in D.probs)


def test_subspace_scheme_from_columns():
    s = SubspaceScheme.from_columns([[(1, 1)], [(1, 2)], []], ambient_dim=2)
    assert s.directions[0].cols == 1
    assert s.directions[2].cols == 0 and s.directions[2].rows == 2
    assert s.latent_tag == "uniform01"
    with pytest.raises(InputError):
        SubspaceScheme.from_columns([[(1, 1)]], latent_tag="cauchy",
                                    ambient_dim=2)


@pytest.mark.parametrize("cols", [[(1, 0), (0, 1, 7)], [(1, 0, 7), (0, 1)]])
def test_subspace_scheme_refuses_ragged_direction_columns(cols):
    with pytest.raises(DimMismatch):
        SubspaceScheme.from_columns([cols, [(1, 1)]])


def test_selfsimilar_ratio_range():
    W = FiniteDist.uniform([0, 2])
    with pytest.raises(RatioOutOfRange):
        SelfSimilarScheme(Q(3, 2), (W, W))
    with pytest.raises(RatioOutOfRange):
        SelfSimilarScheme(Q(0), (W, W))
    with pytest.raises(InputError):
        SelfSimilarScheme(Q(1, 3), (W, FiniteDist.uniform([(0, 0), (1, 1)])))
    SelfSimilarScheme(Q(1, 3), (W, W))  # fine


def test_validate_scheme_against_channel():
    rng = random.Random(0)
    H = rand_channel(rng, 3, 2, derangeable=True)
    good = SubspaceScheme.from_columns([[(1, 1)], [(1, 2)], [(1, 3)]],
                                       ambient_dim=2)
    assert validate_scheme(good, H) is good

    with pytest.raises(UserCountMismatch):
        validate_scheme(SubspaceScheme.from_columns([[(1, 1)], [(1, 2)]],
                                                    ambient_dim=2), H)
    with pytest.raises(AmbientDimMismatch):
        validate_scheme(SubspaceScheme.from_columns(
            [[(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)]], ambient_dim=3), H)
    with pytest.raises(UserCountMismatch):
        validate_scheme(MixtureScheme((Q(1, 2), Q(1, 2))), H)
    with pytest.raises(AlphaOutOfRange):
        validate_scheme(MixtureScheme((Q(1, 2), Q(2), Q(1, 2))), H)
    sym = SelfSimilarScheme(Q(1, 3), tuple(FiniteDist.uniform([0, 2])
                                           for _ in range(3)))
    with pytest.raises(AmbientDimMismatch):
        # scalar supports cannot ride a two-dimensional channel
        validate_scheme(sym, H)


# ------------------------------------------- entries checked when built


@pytest.mark.parametrize("build", [
    lambda: SubspaceScheme((RatMatrix.from_columns([(1, 2)]),
                            RatMatrix.from_columns([(1, 1), (2, 2)]))),
    lambda: SubspaceScheme.from_columns([[(1, 2)], [(0, 0)]]),
    lambda: parse_scheme({"family": "subspace", "directions": [
        [["1", "2"]], [["1", "1"], ["1", "0"], ["0", "1"]]]}),
], ids=["init", "from_columns", "parse_scheme"])
def test_subspace_scheme_refuses_dependent_directions(build):
    # full column rank is the scheme's own property, checked when built
    with pytest.raises(RankDeficientDirections,
                       match="^user 2 direction matrix has dependent columns$"):
        build()


def test_validate_scheme_ranks_nothing(monkeypatch):
    # fitting a scheme to a channel compares sizes only; the directions
    # were ranked when the scheme was built
    H = rand_channel(random.Random(0), 3, 2, derangeable=True)
    scheme = SubspaceScheme.from_columns([[(1, 1)], [(1, 2)], [(1, 3)]])
    ranked = []
    for mod in (schemes, linalg):
        monkeypatch.setattr(mod, "mat_rank",
                            lambda V, rank=mod.mat_rank: ranked.append(V)
                            or rank(V))
    assert validate_scheme(scheme, H) is scheme
    assert ranked == []


def test_mixture_alphas_checked_when_built():
    with pytest.raises(AlphaOutOfRange):
        MixtureScheme((Q(2),))
    with pytest.raises(AlphaOutOfRange):
        MixtureScheme.of([-1])
    assert MixtureScheme((0.5, "1/4")).alphas == (Q(1, 2), Q(1, 4))


def test_finite_dist_reads_float_probabilities_exactly():
    H = ChannelMatrix.from_rows(2, 1, [[1, 1], [1, -1]])
    floats = FiniteDist(((0,), (1,)), (0.5, 0.5))
    assert floats.probs == (Q(1, 2), Q(1, 2))
    exact = FiniteDist.uniform([0, 1])
    assert (dof_eval(H, SelfSimilarScheme(Q(1, 3), (floats, floats)))
            == dof_eval(H, SelfSimilarScheme(Q(1, 3), (exact, exact))))
    with pytest.raises(InputError):
        # the float 1/3 is not a third: three of them do not sum to 1
        FiniteDist(((0,), (1,), (2,)), (1 / 3,) * 3)


def test_finite_dist_accepts_list_points():
    D = FiniteDist([[0], [Q(1, 2)]], [Q(1, 2), Q(1, 2)])
    assert D.points == ((Q(0),), (Q(1, 2),))
    assert D == FiniteDist.uniform([0, Q(1, 2)])


def test_subspace_scheme_refuses_directions_of_unequal_row_count():
    with pytest.raises(DimMismatch):
        SubspaceScheme((RatMatrix.from_rows([[1], [0]]),
                        RatMatrix.from_rows([[1], [0], [0]])))


def test_selfsimilar_ratio_read_as_fraction():
    s = SelfSimilarScheme(0.5, (FiniteDist.uniform([0, 2]),))
    assert isinstance(s.ratio, Q) and s.ratio == Q(1, 2)
