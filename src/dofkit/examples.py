"""Named channel/scheme fixtures, each self-contained and runnable offline.

  ex1       3-user, M=2 alignment showcase (total 3 of a possible 3)
  stacked   two-symbol stacking of a pair of 3-user scalar channels
  propgain  parallel channel whose second subchannel has a gain knob;
            jointly chosen directions beat every per-subchannel choice
  k3m3      3 users x 3 parallel standard-form subchannels with seeded
            random coefficients (total 4 once the generic-position
            determinants are verified; redraws until they are)
  cyclic    unit-delay cyclic channel, full KM/2
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from .engine import cyclic_delay_channel
from .errors import InputError
from .linalg import ChannelMatrix, RatMatrix, mat_det
from .schemes import SubspaceScheme

Q = Fraction


def parallel_channel(subchannels: Sequence[RatMatrix]) -> ChannelMatrix:
    """Assemble a block-diagonal channel from scalar subchannel matrices:
    block (i,j) = diag(h_{i,j}[1], ..., h_{i,j}[M])."""
    if not subchannels:
        raise InputError("no subchannels")
    K = subchannels[0].rows
    M = len(subchannels)
    for S in subchannels:
        if (S.rows, S.cols) != (K, K):
            raise InputError("subchannel matrices must all be K x K")
    return ChannelMatrix.from_blocks(
        [[RatMatrix.from_rows([[S.at(i, j) if n == m else 0
                                for n in range(M)]
                               for m, S in enumerate(subchannels)])
          for j in range(K)] for i in range(K)])


def ex1() -> tuple[ChannelMatrix, SubspaceScheme]:
    H = ChannelMatrix.from_rows(3, 2, [
        [1, 0, 1, 0, 1, 0],
        [1, 1, 1, 1, 0, 1],
        [1, 0, 1, 0, 1, 0],
        [2, 2, 0, 1, 1, 1],
        [1, 0, 2, 0, 1, 1],
        [0, 1, 0, 1, 0, 1],
    ])
    scheme = SubspaceScheme.from_columns([[(1, 1)], [(1, 2)], [(1, 3)]])
    return H, scheme


def stacked() -> tuple[ChannelMatrix, SubspaceScheme]:
    sub1 = RatMatrix.from_rows([[1, 1, -1], [-1, 1, 1], [1, -1, 1]])
    sub2 = RatMatrix.from_rows([[1, -1, 1], [1, 1, -1], [-1, 1, 1]])
    H = parallel_channel([sub1, sub2])
    scheme = SubspaceScheme.from_columns([[(1, 1)], [(1, 1)], [(1, 1)]])
    return H, scheme


def propgain(lams: Sequence = (1, 2)) -> tuple[ChannelMatrix, SubspaceScheme]:
    subs = [RatMatrix.from_rows([[1, 0, 0], [1, Q(lam), 0], [1, 1, 1]])
            for lam in lams]
    H = parallel_channel(subs)
    scheme = SubspaceScheme.from_columns(
        [[(1, 1)], [(1, 1)], [(1, 0)]])
    return H, scheme


def k3m3(seed: Optional[int] = None) -> tuple[ChannelMatrix, SubspaceScheme]:
    """Three parallel standard-form subchannels [[a,1,1],[1,b,1],[1,d,c]]
    with coefficients drawn from a seeded stream.  The three generic-
    position conditions (each receiver's desired plus interference columns
    spanning R^3) hold for almost every draw; a draw that violates one is
    rejected and redrawn, so the scheme's total is 4 for every seed."""
    rng = random.Random(0 if seed is None else seed)

    def draw_vec():
        return tuple(Q(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3))

    while True:
        a, b, c, d = draw_vec(), draw_vec(), draw_vec(), draw_vec()
        ones = (Q(1), Q(1), Q(1))
        ad = tuple(x * y for x, y in zip(a, d))
        if all(mat_det(RatMatrix.from_columns(cols)) != 0
               for cols in ([a, ad, ones], [ones, d, b], [ones, d, c])):
            break
    subs = [RatMatrix.from_rows([
        [a[m], 1, 1],
        [1, b[m], 1],
        [1, d[m], c[m]],
    ]) for m in range(3)]
    H = parallel_channel(subs)
    scheme = SubspaceScheme.from_columns([
        [(1, 1, 1), d],
        [(1, 1, 1)],
        [(1, 1, 1)],
    ])
    return H, scheme


def get_fixture(name: str, seed: Optional[int] = None,
                args: Sequence[int] = ()) -> tuple[ChannelMatrix, SubspaceScheme]:
    if name == "ex1":
        return ex1()
    if name == "stacked":
        return stacked()
    if name == "propgain":
        return propgain()
    if name == "k3m3":
        return k3m3(seed)
    if name == "cyclic":
        try:
            K, M = map(int, args)
        except ValueError:
            raise InputError("cyclic fixture needs integers K and M, e.g. "
                             "`example cyclic 3 4`, got %r" % (list(args),))
        return cyclic_delay_channel(K, M)
    raise InputError("unknown fixture %r (have: ex1, stacked, propgain, "
                     "k3m3, cyclic)" % (name,))
