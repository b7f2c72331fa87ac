"""Input-distribution scheme types for the three supported families.

Families:
  * SubspaceScheme  -- X_j = V_j Xtilde_j with jointly absolutely
    continuous latents on R^{d_j}; only V_j matters for exact dimension.
  * MixtureScheme   -- each coordinate of X_j is absolutely continuous
    with probability alpha_j and the atom 0 otherwise (discrete part is
    a single default atom; its location never enters dimension results).
  * SelfSimilarScheme -- X_j = sum_{i >= 0} r^i W_i with W_i i.i.d. on a
    finite support; one contraction ratio shared by all users.

Each scheme checks its own entries when built, a SubspaceScheme the full
column rank of each V_j that the rank rule needs; validate_scheme only
fits a scheme to a channel's user count and ambient dimension.

A finite support (FiniteDist) is stored as integers: distinct integer
points over one denominator L and positive counts over their sum W, in
lowest terms, so the exact paths never go back to Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import (
    AlphaOutOfRange,
    AmbientDimMismatch,
    DimMismatch,
    InputError,
    RankDeficientDirections,
    RatioOutOfRange,
    UserCountMismatch,
    _check_ints,
)
from .linalg import (ChannelMatrix, RatMatrix, _lattice, _over_lcm, _q,
                     _vec, mat_rank)

Q = Fraction

LATENT_TAGS = ("uniform01", "gaussian")


@dataclass(frozen=True, init=False)
class FiniteDist:
    """Finite distribution on rational vectors, stored on its integer
    lattice in lowest terms: point t is lattice[t] / L and has probability
    counts[t] / W.  Lowest terms make the form unique, so equal
    distributions (same points and probabilities in the same order) have
    equal fields.  `points` and `probs` are Fraction views of it."""

    lattice: tuple[tuple[int, ...], ...]
    L: int
    counts: tuple[int, ...]
    W: int

    def __init__(self, points: Iterable, probs: Iterable):
        self._store(*_lattice(tuple(map(_vec, points))),
                    *_over_lcm(map(_q, probs)))

    @classmethod
    def on_lattice(cls, lattice: Sequence[tuple[int, ...]], L: int,
                   counts: Sequence[int], W: int) -> "FiniteDist":
        """Points lattice[t] / L with probabilities counts[t] / W."""
        D = cls.__new__(cls)
        D._store(lattice, L, counts, W)
        return D

    def _store(self, lattice, L, counts, W):
        """Both constructors' one check, on integers; stores lowest terms."""
        if not lattice:
            raise InputError("empty support")
        if len(lattice) != len(counts):
            raise InputError("points/probs length mismatch")
        if len(set(lattice)) != len(lattice):
            raise InputError("support points must be pairwise distinct")
        if any(c <= 0 for c in counts):
            raise InputError("probabilities must be positive")
        if sum(counts) != W:
            raise InputError("probabilities must sum to exactly 1")
        g, h = math.gcd(L, *(x for p in lattice for x in p)), math.gcd(*counts)
        if g > 1:
            lattice = [tuple(x // g for x in p) for p in lattice]
        object.__setattr__(self, "lattice", tuple(lattice))
        object.__setattr__(self, "L", L // g)
        object.__setattr__(self, "counts", tuple(c // h for c in counts))
        object.__setattr__(self, "W", W // h)

    @cached_property
    def points(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Q(x, self.L) for x in p) for p in self.lattice)

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Q(c, self.W) for c in self.counts)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple]) -> "FiniteDist":
        pairs = tuple(pairs)
        return cls(tuple(pt for pt, _ in pairs), tuple(pr for _, pr in pairs))

    @classmethod
    def uniform(cls, values: Sequence) -> "FiniteDist":
        return cls(tuple(values), tuple(Q(1, len(values)) for _ in values))

    @property
    def dim(self) -> int:
        return len(self.lattice[0])

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
        if any(V.rows != self.directions[0].rows for V in self.directions):
            raise DimMismatch("direction matrices of unequal row count")
        for j, V in enumerate(self.directions):
            if mat_rank(V) != V.cols:
                raise RankDeficientDirections(
                    "user %d direction matrix has dependent columns" % (j + 1,))

    @classmethod
    def from_columns(cls, per_user_columns: Sequence[Sequence[Sequence]],
                     latent_tag: str = "uniform01",
                     ambient_dim: int | None = None) -> "SubspaceScheme":
        """Build direction matrices from per-user lists of column vectors.
        ambient_dim is only needed when some user has no columns at all."""
        _check_ints(optional=True, ambient_dim=ambient_dim)
        return cls(tuple(RatMatrix.from_columns(cols, ambient_dim)
                         for cols in per_user_columns), latent_tag)


@dataclass(frozen=True)
class MixtureScheme:
    alphas: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(map(_q, self.alphas)))
        if not self.alphas:
            raise InputError("mixture scheme needs one alpha per user")
        for j, a in enumerate(self.alphas):
            if not (0 <= a <= 1):
                raise AlphaOutOfRange("alpha_%d = %s outside [0,1]" % (j + 1, a))

    @classmethod
    def of(cls, alphas: Sequence) -> "MixtureScheme":
        return cls(tuple(alphas))


@dataclass(frozen=True)
class SelfSimilarScheme:
    ratio: Fraction
    supports: tuple[FiniteDist, ...]

    def __post_init__(self):
        object.__setattr__(self, "ratio", _q(self.ratio))
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
    """Check that a scheme fits a channel: one user per transmitter and the
    channel's ambient dimension; returns the scheme unchanged on success.
    Its entries, a subspace scheme's direction ranks too, were checked
    when it was built."""
    if isinstance(scheme, SubspaceScheme):
        per_user, dim = scheme.directions, scheme.directions[0].rows
    elif isinstance(scheme, MixtureScheme):
        per_user, dim = scheme.alphas, H.M  # mixtures take any M
    elif isinstance(scheme, SelfSimilarScheme):
        per_user, dim = scheme.supports, scheme.supports[0].dim
    else:
        raise InputError("unknown scheme type %r" % (type(scheme).__name__,))
    if len(per_user) != H.K:
        raise UserCountMismatch("scheme has %d users, channel has %d"
                                % (len(per_user), H.K))
    if dim != H.M:
        raise AmbientDimMismatch("scheme lives in dimension %d, channel has "
                                 "M=%d" % (dim, H.M))
    return scheme
