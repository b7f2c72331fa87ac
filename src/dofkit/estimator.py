"""Monte Carlo cross-validation of the exact dimension rules.

Information dimension is estimated as the two-point slope of the plug-in
entropy over dyadic cells,

    d_hat = (H_hat[k2] - H_hat[k1]) / (k2 - k1),

which cancels the resolution-independent additive constants.  Sampling is
counter-based (Philox) with keys derived from (seed xor batch, user), so
identical configs give bit-identical streams regardless of batching.
Seeds are ints in [0, 2^64); any other seed raises InputError.  Because
the key is seed xor batch, seed s's batch b (samples [65536 b, 65536 (b+1)))
equals seed s xor b's batch 0: seeds 0 and 1 overlap.

A self-similar sample is its series sum_d r^d X_d cut at the truncation
depth.  A batch draws one uniform per series term, in the single
gen.random((size, depth)) call that Generator.choice makes, and X_d is the
support point whose index is the number of cdf cuts at or below its
uniform, which is what choice's searchsorted returns; so the streams
are choice's, bit for bit.  Each row block of about _BLOCK_TERMS terms
finds that count by a vectorized binary search, one comparison per term
and bit of the cut count, and sums its series, so the block's index and
point arrays stay in cache.

Cells are counted from one quantization per signal: floor(2^k2 x) is
computed once, and the k1 and intermediate cells are arithmetic right
shifts of it, which is exact because floor(floor(y)/2^s) = floor(y/2^s)
and scaling by 2^k is exact in binary floating point.  Cell rows are
packed into one lexicographic mixed-radix int64 key, dense in [0, rows),
and grouped by counting (np.bincount) rather than sorting, which gives
the same groups, in the same order, as np.unique(axis=0) at a fraction
of the cost.  Only the k2 grouping reads all n rows: every coarser cell
is a union of k2 cells, so the k1 and intermediate resolutions group one
row per distinct k2 cell and add up the k2 counts.

NOTE: floating point is confined to this module; nothing here feeds back
into the exact evaluation paths.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .dimension import DimValue, _coord_range
from .engine import DofReport, assemble_report
from .errors import InputError, InvariantViolated, _check_ints
from .linalg import ChannelMatrix, _over_lcm
from .schemes import (
    MixtureScheme,
    Scheme,
    SelfSimilarScheme,
    SubspaceScheme,
    validate_scheme,
)

Q = Fraction

_BATCH = 1 << 16
_DRAW_LIMIT = 1 << 24  # series terms (batch rows x depth x M), a batch's work
_BLOCK_TERMS = 1 << 15  # series terms summed per row block of a batch
_CELL_LIMIT = 1 << 62


@dataclass(frozen=True)
class EstimatorConfig:
    n_samples: int
    k1: int
    k2: int
    seed: int
    ifs_depth: Optional[int] = None  # None = derive from k2 and the support

    def __post_init__(self):
        _check_ints(n_samples=self.n_samples, k1=self.k1, k2=self.k2)
        _check_ints(optional=True, ifs_depth=self.ifs_depth)
        if self.n_samples < 1:
            raise InputError("need at least one sample")
        if not (self.k2 > self.k1 >= 1):
            raise InputError("need k2 > k1 >= 1, got k1=%d, k2=%d"
                             % (self.k1, self.k2))
        if self.ifs_depth is not None and self.ifs_depth < 1:
            raise InputError("ifs_depth must be positive")
        _check_seed(self.seed)


@dataclass(frozen=True)
class DimEstimate:
    value: float
    stderr: float
    k1: int
    k2: int


def _check_seed(seed) -> None:
    """A seed is an int in [0, 2^64), one Philox key word."""
    if isinstance(seed, bool) or not isinstance(seed, int) \
            or not 0 <= seed < 1 << 64:
        raise InputError("seed must be an integer in [0, 2^64), got %r"
                         % (seed,))


def _generator(seed: int, user: int, batch: int) -> np.random.Generator:
    key = np.array([seed ^ batch, user], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def ifs_truncation_depth(scheme: SelfSimilarScheme, k2: int,
                         width: int = 1) -> int:
    """Smallest D with r^D M(W) / (1-r) < 2^{-(k2+2)}: the discarded tail
    then cannot move any sample across a k2-cell boundary by more than a
    quarter cell.  D is estimated from float logarithms and confirmed
    exactly at D and D-1.  A batch draws `width` series terms per unit of
    depth (its samples times M), so a D whose draw exceeds _DRAW_LIMIT
    even one step below the estimate is refused before any exact power,
    which near D = 10^6 alone takes seconds."""
    r = scheme.ratio
    span = max(Q(_coord_range(s.lattice), s.L) for s in scheme.supports)
    if not span:
        return 1  # every support is an atom; the series is constant
    goal = Q(1, 2 ** (k2 + 2)) * (1 - r) / span  # want r^D < goal
    (g, n), L = _over_lcm((goal, r))
    log_r = math.log2(n) - math.log2(L)
    if log_r >= 0:
        raise InputError("contraction ratio too near 1: its truncation "
                         "depth exceeds the draw limit %d" % (_DRAW_LIMIT,))
    D = max(1, math.floor((math.log2(g) - math.log2(L)) / log_r) + 1)
    if (D - 1) * width > _DRAW_LIMIT:
        raise InputError("self-similar draw of depth %d (estimated) needs "
                         "about %d terms per batch, above the draw limit %d"
                         % (D, D * width, _DRAW_LIMIT))
    while r ** D >= goal:
        D += 1
    while D > 1 and r ** (D - 1) < goal:
        D -= 1
    return D


def _user_draws(scheme: Scheme, n: int, M: Optional[int],
                ifs_depth: Optional[int], k2: Optional[int]
                ) -> list[Callable[[np.random.Generator, int], np.ndarray]]:
    """Each user's per-batch draw(gen, size) -> (size, M) samples, with
    the user's constants (direction matrix, support, weights) built once.
    A mixture needs M >= 1; a self-similar depth must be positive, and a
    batch of more than _DRAW_LIMIT series terms is refused."""
    if isinstance(scheme, SubspaceScheme):
        def subspace(V):  # no columns: (size, 0) @ (0, M) gives zeros
            VfT, d = np.array(V.to_float_rows()).T, V.cols
            if scheme.latent_tag == "gaussian":
                return lambda gen, size: gen.standard_normal((size, d)) @ VfT
            return lambda gen, size: gen.random((size, d)) @ VfT
        return [subspace(V) for V in scheme.directions]
    if isinstance(scheme, MixtureScheme):
        if M is None or M < 1:
            raise InputError("mixture sampling needs the ambient dimension "
                             "M >= 1, got %r" % (M,))

        def mixture(a):
            # a uniform [0,1)^M draw with probability a, else the origin;
            # the mask is drawn before the values, then zeroes them in place
            def draw(gen, size):
                mask = gen.random(size) < a
                x = gen.random((size, M))
                x *= mask[:, None]
                return x
            return draw
        return [mixture(float(a)) for a in scheme.alphas]
    if isinstance(scheme, SelfSimilarScheme):
        dim = scheme.supports[0].dim
        width = min(n, _BATCH) * dim  # terms per depth
        if ifs_depth is None:
            if k2 is None:
                raise InputError("self-similar sampling needs ifs_depth or k2")
            ifs_depth = ifs_truncation_depth(scheme, k2, width)
        if ifs_depth < 1 or width * ifs_depth > _DRAW_LIMIT:
            raise InputError("self-similar draw of depth %d needs %d terms "
                             "per batch; the depth must be positive and "
                             "the terms at most %d"
                             % (ifs_depth, width * ifs_depth, _DRAW_LIMIT))
        weights = float(scheme.ratio) ** np.arange(ifs_depth)
        rows = max(1, _BLOCK_TERMS // (ifs_depth * dim))

        def selfsimilar(D):
            pts = np.array([[x / D.L for x in pt] for pt in D.lattice])
            probs = np.array([c / D.W for c in D.counts])
            # choice's cdf; its index for u is the number of cuts <= u,
            # which is below 2^b; the inf padding is never <= u
            cdf = np.cumsum(probs / probs.sum())
            cdf /= cdf[-1]
            b = max(1, (len(cdf) - 1).bit_length())
            cuts = np.concatenate([cdf[:-1], np.full(1 << b, np.inf)])

            def index(u):
                # binary lifting, one comparison per term and bit: after
                # the pass of step s, idx is the number of cuts <= u
                # rounded down to a multiple of s (the cuts never fall)
                step = 1 << (b - 1)
                idx = step * (u >= cuts[step - 1])
                while step > 1:
                    step >>= 1
                    idx += step * (u >= cuts[idx + (step - 1)])
                return idx

            def draw(gen, size):
                uniforms = gen.random((size, ifs_depth))  # as choice draws
                out = np.empty((size, dim))
                for s in range(0, size, rows):
                    u = uniforms[s:s + rows]
                    x = pts[index(u)]
                    x *= weights[None, :, None]
                    x.sum(axis=1, out=out[s:s + len(u)])
                return out
            return draw
        return [selfsimilar(D) for D in scheme.supports]
    raise InputError("unknown scheme type %r" % (type(scheme).__name__,))


def sample_scheme(scheme: Scheme, n: int, seed: int, *,
                  M: Optional[int] = None,
                  ifs_depth: Optional[int] = None,
                  k2: Optional[int] = None) -> list[np.ndarray]:
    """n i.i.d. samples per user, shape (n, M) each.  Mixture schemes do
    not carry their ambient dimension and need M passed in (usually the
    channel's); self-similar series are truncated at ifs_depth terms
    (derived from k2 when not given), and a batch of more than
    _DRAW_LIMIT series terms is refused before any draw.  The seed must
    be an int in [0, 2^64), and n, M, ifs_depth and k2 ints."""
    _check_ints(n=n)
    _check_ints(optional=True, M=M, ifs_depth=ifs_depth, k2=k2)
    if n < 1:
        raise InputError("need at least one sample, got n=%d" % (n,))
    _check_seed(seed)
    out = []
    for u, draw in enumerate(_user_draws(scheme, n, M, ifs_depth, k2)):
        chunks = []
        for start in range(0, n, _BATCH):
            gen = _generator(seed, u, start // _BATCH)
            chunks.append(draw(gen, min(_BATCH, n - start)))
        out.append(np.concatenate(chunks, axis=0))
    return out


def _cells(samples: np.ndarray, k: int) -> np.ndarray:
    """Dyadic cells floor(2^k x) as int64 rows, shape (n, M).  Refuses
    arrays of other shapes, and samples that are not finite or have
    |x| 2^k >= 2^62, beyond which packed cell keys could wrap."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InputError("samples must be an (n,) or (n, M) array, got "
                         "shape %s" % (arr.shape,))
    lo, hi = float(arr.min(initial=0.0)), float(arr.max(initial=0.0))
    if not (math.isfinite(lo) and math.isfinite(hi)):  # NaN propagates
        raise InputError("samples must be finite (found NaN or inf)")
    top = max(-lo, hi)
    if top and math.frexp(top)[1] + k > 62:  # top * 2^k >= 2^62
        raise InputError("resolution k=%d puts cells of samples of "
                         "magnitude %g beyond 2^62" % (k, top))
    scaled = np.ldexp(arr, k)
    np.floor(scaled, out=scaled)
    return scaled.astype(np.int64)


def _rank(values: np.ndarray) -> np.ndarray:
    return np.unique(values, return_inverse=True)[1]


def _pack(cells: np.ndarray, shift: int = 0) -> np.ndarray:
    """One int64 key per row of cells >> shift, for an (n, M) int64 cell
    array, ordered like the rows lexicographically: _group on the keys
    gives the inverse and counts of np.unique(axis=0) on the rows.  Every
    key lies in [0, n).

    The key is mixed-radix, column 0 most significant, with digits
    col - col.min().  Before a column would push the key range to 2^62 the
    running key is re-ranked to 0..distinct-1 (and, if that is still too
    wide, the column too); ranking preserves order, so the key stays exact
    for every M.  A final key range above n is re-ranked the same way."""
    key = np.zeros(cells.shape[0], dtype=np.int64)
    if not key.size:
        return key
    radix = 1  # key values lie in [0, radix)
    for c in range(cells.shape[1]):
        col = cells[:, c] >> shift
        col -= col.min()
        width = int(col.max()) + 1
        if radix * width >= _CELL_LIMIT:
            key = _rank(key)
            radix = int(key.max()) + 1
            if radix * width >= _CELL_LIMIT:
                col = _rank(col)
                width = int(col.max()) + 1
        key *= width
        key += col
        radix *= width
    if radix > len(key):
        key = _rank(key)
    return key


def _group(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inverse, counts) of np.unique(key) for keys in [0, len(key)),
    counted with one bincount instead of a sort."""
    if int(key.max()) >= len(key):  # bincount would allocate max+1 counters
        raise InvariantViolated("cell keys are not dense: max %d for %d keys"
                                % (int(key.max()), len(key)))
    counts = np.bincount(key)
    present = counts > 0
    return (np.cumsum(present) - 1)[key], counts[present]


def _entropy(p: np.ndarray) -> float:
    return float(-np.sum(p * np.log2(p)))


def quantized_entropy(samples: np.ndarray, k: int) -> float:
    """Plug-in Shannon entropy (bits) of the empirical distribution over
    the dyadic cells floor(2^k x)."""
    _check_ints(k=k)
    if k < 0:
        raise InputError("resolution exponent must be nonnegative")
    cells = _cells(samples, k)
    if cells.shape[0] == 0:
        raise InputError("no samples to take an entropy of")
    counts = _group(_pack(cells))[1]
    return _entropy(counts / cells.shape[0])


def estimate_dim(samples: np.ndarray, cfg: EstimatorConfig) -> DimEstimate:
    """Two-point entropy slope with an analytic uncertainty proxy.

    The proxy combines, in quadrature, the three error sources that matter
    at finite n and finite resolution:

    - sampling noise, from the per-sample quantity
      g_i = (log2 p1(cell_i) - log2 p2(cell_i)) / (k2 - k1), whose mean is
      exactly the slope (this keeps the strong correlation between the two
      resolutions instead of adding their variances);
    - occupancy bias: the plug-in entropy underestimates by about
      (cells - 1)/(2 n ln 2), which does not cancel between the two
      resolutions;
    - curvature: the slope over (k1, k2) is only meaningful where H(k) is
      close to linear, so the second difference of H at an intermediate
      resolution is charged as a systematic term.

    Only the k2 grouping reads all n sample rows.  The k1 and intermediate
    cells are grouped over one row per distinct k2 cell, with the k2 counts
    as weights, and g is formed per k2 cell before it is spread over the
    samples; the groups, counts and g come out as if every resolution had
    grouped all n rows.  A sample size below the guidance 50 * 2^(k2 d)
    warns, compared in log2 so that a large k2 d cannot overflow.
    """
    # floor(floor(2^k2 x) / 2^s) = floor(2^(k2-s) x): coarser cells are
    # exact right shifts of the k2 cells.
    cells2 = _cells(samples, cfg.k2)
    n = cells2.shape[0]
    if n == 0:
        raise InputError("no samples to estimate a dimension from")
    span = cfg.k2 - cfg.k1
    inv2, c2 = _group(_pack(cells2))
    first = np.empty(len(c2), dtype=np.intp)
    first[inv2] = np.arange(n)  # any row of each k2 cell will do
    distinct = cells2[first]

    def coarse(shift):
        """(k2 cell -> coarse cell, sample count per coarse cell); the
        counts are float sums of integers below 2^53, so exact."""
        inv = _group(_pack(distinct, shift))[0]
        return inv, np.bincount(inv, weights=c2)

    inv_d, c1 = coarse(span)
    p1 = c1 / n
    p2 = c2 / n
    h1 = _entropy(p1)
    h2 = _entropy(p2)
    value = (h2 - h1) / span
    s_curv = 0.0
    if span >= 2:
        mid = (cfg.k1 + cfg.k2) // 2
        hm = _entropy(coarse(cfg.k2 - mid)[1] / n)
        s_curv = abs((h2 - hm) / (cfg.k2 - mid)
                     - (hm - h1) / (mid - cfg.k1))
    g = ((np.log2(p1)[inv_d] - np.log2(p2)) / span)[inv2]
    s_noise = float(np.std(g, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    s_bias = (len(c2) - len(c1)) / (2.0 * n * math.log(2) * span)
    stderr = math.hypot(s_noise, s_bias, s_curv)
    log2_needed = math.log2(50) + cfg.k2 * max(value, 0.0)
    if math.log2(n) < log2_needed:
        warnings.warn(
            "n_samples=%d below the guidance 50 * 2^(k2 d) ~ 2^%.1f for the "
            "estimated dimension %.3f" % (n, log2_needed, value))
    return DimEstimate(value=value, stderr=stderr, k1=cfg.k1, k2=cfg.k2)


def estimate_dof(H: ChannelMatrix, scheme: Scheme,
                 cfg: EstimatorConfig) -> DofReport:
    """Monte Carlo mirror of dof_eval: estimate the full and interference
    dimensions at every receiver from sampled channel outputs."""
    validate_scheme(scheme, H)
    samples = sample_scheme(scheme, cfg.n_samples, cfg.seed, M=H.M,
                            ifs_depth=cfg.ifs_depth, k2=cfg.k2)
    blocks = [[np.array(H.block(i, j).to_float_rows())
               for j in range(H.K)] for i in range(H.K)]
    pairs = []
    for i in range(H.K):
        # each product once, added in the order sum() adds it, from 0
        full = intf = 0
        for j in range(H.K):
            product = samples[j] @ blocks[i][j].T
            full += product
            if j != i:
                intf += product
        ef = estimate_dim(full, cfg)
        ei = estimate_dim(intf, cfg)
        pairs.append((DimValue.from_estimate(ef.value, ef.stderr),
                      DimValue.from_estimate(ei.value, ei.stderr)))
    return assemble_report(pairs, H, "monte-carlo")
