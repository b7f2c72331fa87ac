import random
from fractions import Fraction as Q

import pytest

from dofkit import (
    FiniteDist,
    MixtureScheme,
    SelfSimilarScheme,
    SubspaceScheme,
    validate_scheme,
)
from dofkit.errors import (
    AlphaOutOfRange,
    AmbientDimMismatch,
    DimMismatch,
    InputError,
    RankDeficientDirections,
    RatioOutOfRange,
    UserCountMismatch,
)

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
    with pytest.raises(RankDeficientDirections):
        validate_scheme(SubspaceScheme.from_columns(
            [[(1, 1), (2, 2)], [(1, 2)], [(1, 3)]], ambient_dim=2), H)
    with pytest.raises(UserCountMismatch):
        validate_scheme(MixtureScheme((Q(1, 2), Q(1, 2))), H)
    with pytest.raises(AlphaOutOfRange):
        validate_scheme(MixtureScheme((Q(1, 2), Q(2), Q(1, 2))), H)
    sym = SelfSimilarScheme(Q(1, 3), tuple(FiniteDist.uniform([0, 2])
                                           for _ in range(3)))
    with pytest.raises(AmbientDimMismatch):
        # scalar supports cannot ride a two-dimensional channel
        validate_scheme(sym, H)
