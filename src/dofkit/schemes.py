"""Input-distribution scheme types for the three supported families.

Families:
  * SubspaceScheme  -- X_j = V_j Xtilde_j with jointly absolutely
    continuous latents on R^{d_j}; only V_j matters for exact dimension.
  * MixtureScheme   -- each coordinate of X_j is absolutely continuous
    with probability alpha_j and the atom 0 otherwise (discrete part is
    a single default atom; its location never enters dimension results).
  * SelfSimilarScheme -- X_j = sum_{i >= 0} r^i W_i with W_i i.i.d. on a
    finite support; one contraction ratio shared by all users.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import (
    AlphaOutOfRange,
    AmbientDimMismatch,
    DimMismatch,
    InputError,
    RankDeficientDirections,
    RatioOutOfRange,
    UserCountMismatch,
)
from .linalg import ChannelMatrix, RatMatrix, _vec, mat_rank

Q = Fraction

LATENT_TAGS = ("uniform01", "gaussian")


@dataclass(frozen=True)
class FiniteDist:
    """Finite distribution on rational vectors; probs sum to exactly 1."""

    points: tuple[tuple[Fraction, ...], ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.points:
            raise InputError("empty support")
        if len(self.points) != len(self.probs):
            raise InputError("points/probs length mismatch")
        m = len(self.points[0])
        if any(len(p) != m for p in self.points):
            raise DimMismatch("support points of unequal dimension")
        if len(set(self.points)) != len(self.points):
            raise InputError("support points must be pairwise distinct")
        if any(p <= 0 for p in self.probs):
            raise InputError("probabilities must be positive")
        if sum(self.probs) != 1:
            raise InputError("probabilities must sum to exactly 1")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple]) -> "FiniteDist":
        pts, pr = [], []
        for point, prob in pairs:
            pts.append(_vec(point))
            pr.append(Q(prob))
        return cls(tuple(pts), tuple(pr))

    @classmethod
    def uniform(cls, values: Sequence) -> "FiniteDist":
        pts = tuple(_vec(v) for v in values)
        n = len(pts)
        if n == 0:
            raise InputError("empty support")
        return cls(pts, (Q(1, n),) * n)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def is_scalar(self) -> bool:
        return self.dim == 1


@dataclass(frozen=True)
class SubspaceScheme:
    directions: tuple[RatMatrix, ...]
    latent_tag: str = "uniform01"

    def __post_init__(self):
        if self.latent_tag not in LATENT_TAGS:
            raise InputError("unknown latent tag %r" % (self.latent_tag,))
        if not self.directions:
            raise InputError("subspace scheme needs one direction set per user")

    @classmethod
    def from_columns(cls, per_user_columns: Sequence[Sequence[Sequence]],
                     latent_tag: str = "uniform01",
                     ambient_dim: int | None = None) -> "SubspaceScheme":
        """Build direction matrices from per-user lists of column vectors.
        ambient_dim is only needed when some user has no columns at all."""
        if ambient_dim is None and not all(per_user_columns):
            raise InputError("a user with no directions needs ambient_dim")
        return cls(tuple(RatMatrix.from_columns(cols, ambient_dim)
                         for cols in per_user_columns), latent_tag)


@dataclass(frozen=True)
class MixtureScheme:
    alphas: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.alphas:
            raise InputError("mixture scheme needs one alpha per user")

    @classmethod
    def of(cls, alphas: Sequence) -> "MixtureScheme":
        return cls(tuple(Q(a) for a in alphas))


@dataclass(frozen=True)
class SelfSimilarScheme:
    ratio: Fraction
    supports: tuple[FiniteDist, ...]

    def __post_init__(self):
        if not (0 < self.ratio < 1):
            raise RatioOutOfRange("contraction ratio must lie in (0,1), got %s"
                                  % (self.ratio,))
        if not self.supports:
            raise InputError("self-similar scheme needs one support per user")
        m = self.supports[0].dim
        if any(s.dim != m for s in self.supports):
            raise DimMismatch("supports of unequal dimension")


Scheme = Union[SubspaceScheme, MixtureScheme, SelfSimilarScheme]


def validate_scheme(scheme: Scheme, H: ChannelMatrix) -> Scheme:
    """Check a scheme's structural invariants against a channel; returns
    the scheme unchanged on success."""
    if isinstance(scheme, SubspaceScheme):
        if len(scheme.directions) != H.K:
            raise UserCountMismatch("scheme has %d users, channel has %d"
                                    % (len(scheme.directions), H.K))
        for j, V in enumerate(scheme.directions):
            if V.rows != H.M:
                raise AmbientDimMismatch(
                    "user %d directions live in dimension %d, channel has M=%d"
                    % (j + 1, V.rows, H.M))
            if mat_rank(V) != V.cols:
                raise RankDeficientDirections(
                    "user %d direction matrix has dependent columns" % (j + 1,))
        return scheme
    if isinstance(scheme, MixtureScheme):
        if len(scheme.alphas) != H.K:
            raise UserCountMismatch("scheme has %d users, channel has %d"
                                    % (len(scheme.alphas), H.K))
        for j, a in enumerate(scheme.alphas):
            if not (0 <= a <= 1):
                raise AlphaOutOfRange("alpha_%d = %s outside [0,1]" % (j + 1, a))
        return scheme
    if isinstance(scheme, SelfSimilarScheme):
        if len(scheme.supports) != H.K:
            raise UserCountMismatch("scheme has %d users, channel has %d"
                                    % (len(scheme.supports), H.K))
        for j, s in enumerate(scheme.supports):
            if s.dim != H.M:
                raise AmbientDimMismatch(
                    "user %d support lives in dimension %d, channel has M=%d"
                    % (j + 1, s.dim, H.M))
        return scheme
    raise InputError("unknown scheme type %r" % (type(scheme).__name__,))

