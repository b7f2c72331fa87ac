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

No signal and no cell array is built whole.  A receiver's signal
sum_j x_j G_j^T is formed a row block at a time from the samples, and one
key routine, _cell_keys, reads a signal in two passes over blocks of about
_BLOCK_TERMS values: a range pass (each column's min and max, and the
refusals), then a key pass that floors 2^k y block by block and writes
each row's cells as one lexicographic mixed-radix int64 key, dense in
[0, n).  Keys are grouped by counting (np.bincount) rather than sorting,
which gives the same groups, in the same order, as np.unique(axis=0) at a
fraction of the cost.  Only the k2 keys read all n rows: every coarser
cell is a union of k2 cells, and floor(2^(k2-s) y) = floor(floor(2^k2 y)
/ 2^s) for every y, scaling by 2^k being exact in binary floating point;
so the k1 and intermediate resolutions key one representative row per
distinct k2 cell and add up the k2 counts.

A block has one row only when the signal has: numpy multiplies a one-row
matrix with gemv, whose bits at M >= 4 can differ from that row of the
many-row (gemm) product a whole signal holds, and a cell boundary can
fall between the two.  So a one-row tail block joins the block before it.

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
from .errors import (
    AmbientDimMismatch,
    InputError,
    InvariantViolated,
    _check_ints,
)
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
                ) -> tuple[int, list[Callable[[np.random.Generator,
                                               np.ndarray], None]]]:
    """The samples' column count and each user's per-batch draw(gen, out),
    which fills the batch rows out in place, with the user's constants
    (direction matrix, support, weights) built once.  The columns are the
    scheme's own dimension: a mixture, which has none, takes M >= 1, and
    the other schemes refuse an M that differs from theirs.  A
    self-similar depth must be positive, and a batch of more than
    _DRAW_LIMIT series terms is refused."""
    if isinstance(scheme, SubspaceScheme):
        dim = scheme.directions[0].rows
    elif isinstance(scheme, MixtureScheme):
        if M is None or M < 1:
            raise InputError("mixture sampling needs the ambient dimension "
                             "M >= 1, got %r" % (M,))
        dim = M
    elif isinstance(scheme, SelfSimilarScheme):
        dim = scheme.supports[0].dim
    else:
        raise InputError("unknown scheme type %r" % (type(scheme).__name__,))
    if M is not None and M != dim:
        raise AmbientDimMismatch("scheme lives in dimension %d, got M=%d"
                                 % (dim, M))
    if isinstance(scheme, SubspaceScheme):
        def subspace(V):  # no columns: (size, 0) @ (0, M) gives zeros
            VfT, d = np.array(V.to_float_rows()).T, V.cols
            if scheme.latent_tag == "gaussian":
                return lambda gen, out: np.matmul(
                    gen.standard_normal((len(out), d)), VfT, out=out)
            return lambda gen, out: np.matmul(gen.random((len(out), d)), VfT,
                                              out=out)
        return dim, [subspace(V) for V in scheme.directions]
    if isinstance(scheme, MixtureScheme):
        def mixture(a):
            # a uniform [0,1)^M draw with probability a, else the origin;
            # the mask uniforms are drawn before the values and turned
            # into 1.0/0.0 in place, which then zero the values
            def draw(gen, out):
                keep = gen.random(len(out))
                np.less(keep, a, out=keep, casting="unsafe")
                gen.random(out=out)
                out *= keep[:, None]
            return draw
        return dim, [mixture(float(a)) for a in scheme.alphas]
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
        cuts = np.full(len(cdf) - 1 + (1 << b), np.inf)
        cuts[:len(cdf) - 1] = cdf[:-1]

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

        def draw(gen, out):
            uniforms = gen.random((len(out), ifs_depth))  # as choice draws
            for s in range(0, len(out), rows):
                u = uniforms[s:s + rows]
                x = pts[index(u)]
                x *= weights[None, :, None]
                x.sum(axis=1, out=out[s:s + len(u)])
        return draw
    return dim, [selfsimilar(D) for D in scheme.supports]


def sample_scheme(scheme: Scheme, n: int, seed: int, *,
                  M: Optional[int] = None,
                  ifs_depth: Optional[int] = None,
                  k2: Optional[int] = None) -> list[np.ndarray]:
    """n i.i.d. samples per user, shape (n, M) each, every batch drawn
    into its rows of the one output array.  Mixture schemes do not carry
    their ambient dimension and need M passed in (usually the channel's);
    the other schemes refuse an M other than their own.  Self-similar
    series are truncated at ifs_depth terms (derived from k2 when not
    given), and a batch of more than _DRAW_LIMIT series terms is refused
    before any draw.  The seed must be an int in [0, 2^64), and n, M,
    ifs_depth and k2 ints."""
    _check_ints(n=n)
    _check_ints(optional=True, M=M, ifs_depth=ifs_depth, k2=k2)
    if n < 1:
        raise InputError("need at least one sample, got n=%d" % (n,))
    _check_seed(seed)
    M, draws = _user_draws(scheme, n, M, ifs_depth, k2)
    out = []
    for u, draw in enumerate(draws):
        xs = np.empty((n, M))
        for start in range(0, n, _BATCH):
            draw(_generator(seed, u, start // _BATCH),
                 xs[start:start + _BATCH])
        out.append(xs)
    return out


class _Received:
    """A receiver's signal sum_j x_j G_j^T, given by its terms
    (x_j, G_j^T) and never built whole: rows(sel) forms the selected rows
    only, added in the order sum() adds them, from 0 (0 + t is t but for
    the sign of a zero, which no cell tells apart).  A C-contiguous G_j^T
    multiplies about three times faster than a transposed view, with the
    same bits."""

    def __init__(self, terms: list[tuple[np.ndarray, np.ndarray]]):
        self.terms = terms
        self.shape = (len(terms[0][0]), terms[0][1].shape[1])

    def rows(self, sel) -> np.ndarray:
        (x, GT), *rest = self.terms
        y = _pick(x, sel) @ GT
        for x, GT in rest:
            y += _pick(x, sel) @ GT
        return y


def _pick(x: np.ndarray, sel) -> np.ndarray:
    """x[sel] for a slice or an index array: np.take gathers rows about
    ten times faster than fancy indexing."""
    return x[sel] if isinstance(sel, slice) else x.take(sel, axis=0)


def _row_source(samples) -> tuple[Callable, int, int]:
    """(rows, n, M) of a _Received signal or of an (n,) or (n, M) sample
    array, whose rows(sel) is arr[sel]; refuses arrays of other shapes."""
    if isinstance(samples, _Received):
        return samples.rows, *samples.shape
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InputError("samples must be an (n,) or (n, M) array, got "
                         "shape %s" % (arr.shape,))
    return (lambda sel: _pick(arr, sel)), *arr.shape


def _rank(values: np.ndarray) -> np.ndarray:
    return np.unique(values, return_inverse=True)[1]


def _cell_keys(rows: Callable, n: int, M: int, k: int) -> np.ndarray:
    """One int64 key per row of the dyadic cells floor(2^k y) of an n x M
    signal (n >= 1) read through rows(slice), ordered like the cell rows
    lexicographically and dense in [0, n): _group on the keys gives the
    inverse and counts of np.unique(axis=0) on the cell rows.

    Neither the signal nor its cells are built whole.  Two passes read
    blocks of _BLOCK_TERMS // M rows, and a one-row tail joins the block
    before it (see the module docstring).  The range pass takes each
    column's min and max, and refuses samples that are not finite or have
    |y| 2^k >= 2^62, beyond which keys could wrap; scaling by 2^k is
    exact and floor monotone, so floor(2^k min) and floor(2^k max) bound
    the column's cells.  The key pass floors 2^k y in a reused block,
    stored column by column, and adds its mixed-radix digits
    cell - floor(2^k min), column 0 most significant, into key[s:e]
    through a reused int64 column.

    Columns whose widths would push a key range to 2^62 start a new key,
    filled in the same pass; after it, the running key is ranked to
    0..distinct-1 before the next key joins it (and, if that is still too
    wide, the next key too).  Ranking preserves order, so the key stays
    exact for every M.  A final key range above n is ranked the same way.
    """
    step = max(2, _BLOCK_TERMS // max(M, 1))
    cuts = list(range(0, n, step)) + [n]
    if len(cuts) > 2 and n - cuts[-2] == 1:
        del cuts[-2]
    blocks = list(zip(cuts, cuts[1:]))
    lo, hi = np.full(M, np.inf), np.full(M, -np.inf)
    cols = np.empty((M, min(step + 1, n)))  # a block, column by column
    for s, e in blocks:
        t = cols[:, :e - s]
        np.copyto(t, rows(slice(s, e)).T)  # an axis-0 min is far slower
        np.minimum(lo, t.min(axis=1), out=lo)
        np.maximum(hi, t.max(axis=1), out=hi)
    bottom, top = float(lo.min(initial=0.0)), float(hi.max(initial=0.0))
    if not (math.isfinite(bottom) and math.isfinite(top)):  # NaN propagates
        raise InputError("samples must be finite (found NaN or inf)")
    top = max(-bottom, top)
    if top and math.frexp(top)[1] + k > 62:  # top * 2^k >= 2^62
        raise InputError("resolution k=%d puts cells of samples of "
                         "magnitude %g beyond 2^62" % (k, top))
    bases = [int(b) for b in np.floor(np.ldexp(lo, k))]
    widths = [int(t) - b + 1
              for b, t in zip(bases, np.floor(np.ldexp(hi, k)))]
    runs = [([], 1)]  # (columns, product of their widths): below 2^62
    # unless the run is a single column that wide
    for c, w in enumerate(widths):
        if runs[-1][1] * w < _CELL_LIMIT:
            runs[-1] = (runs[-1][0] + [c], runs[-1][1] * w)
        else:
            runs.append(([c], w))
    keys = np.zeros((len(runs), n), dtype=np.int64)
    digit = np.empty(cols.shape[1], dtype=np.int64)
    for s, e in blocks:
        t, d = cols[:, :e - s], digit[:e - s]
        np.ldexp(rows(slice(s, e)).T, k, out=t)
        np.floor(t, out=t)
        for key, (run, _) in zip(keys[:, s:e], runs):
            for c in run:
                np.copyto(d, t[c], casting="unsafe")  # exact: integral
                d -= bases[c]
                key *= widths[c]
                key += d
    key, radix = keys[0], runs[0][1]
    for part, (_, width) in zip(keys[1:], runs[1:]):
        key = _rank(key)
        radix = int(key.max()) + 1
        if radix * width >= _CELL_LIMIT:
            part = _rank(part)
            width = int(part.max()) + 1
        key = key * width + part
        radix *= width
    if radix > n:
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
    rows, n, M = _row_source(samples)
    if n == 0:
        raise InputError("no samples to take an entropy of")
    counts = _group(_cell_keys(rows, n, M, k))[1]
    return _entropy(counts / n)


def estimate_dim(samples: np.ndarray | _Received,
                 cfg: EstimatorConfig) -> DimEstimate:
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

    The samples are an (n,) or (n, M) array or, from estimate_dof, a
    receiver's _Received signal.  Only the k2 cell keys read all n rows.
    The k1 and intermediate cells are keyed over one row per distinct k2
    cell, with the k2 counts as weights, and g is formed per k2 cell
    before it is spread over the samples; the groups, counts and g come
    out as if every resolution had grouped all n rows.  A sample size
    below the guidance 50 * 2^(k2 d) warns, compared in log2 so that a
    large k2 d cannot overflow.
    """
    rows, n, M = _row_source(samples)
    if n == 0:
        raise InputError("no samples to estimate a dimension from")
    span = cfg.k2 - cfg.k1
    inv2, c2 = _group(_cell_keys(rows, n, M, cfg.k2))
    first = np.empty(len(c2), dtype=np.intp)
    first[inv2] = np.arange(n)  # any row of each k2 cell will do
    # one row per k2 cell; one cell alone is one coarse cell, so a
    # one-row gather's bits never matter
    reps = rows(first)

    def coarse(shift):
        """(k2 cell -> coarse cell, sample count per coarse cell); the
        counts are float sums of integers below 2^53, so exact.
        floor(2^(k2-s) y) = floor(floor(2^k2 y) / 2^s): a representative
        row has its k2 cell's coarse cell."""
        keys = _cell_keys(reps.__getitem__, len(first), M, cfg.k2 - shift)
        inv = _group(keys)[0]
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
    dimensions at every receiver from sampled channel outputs, each
    signal formed a row block at a time from the samples."""
    validate_scheme(scheme, H)
    samples = sample_scheme(scheme, cfg.n_samples, cfg.seed, M=H.M,
                            ifs_depth=cfg.ifs_depth, k2=cfg.k2)
    gains = [[np.array(H.block(i, j).to_float_rows()).T.copy()
              for j in range(H.K)] for i in range(H.K)]
    pairs = []
    for i in range(H.K):
        terms = list(zip(samples, gains[i]))
        ef = estimate_dim(_Received(terms), cfg)
        ei = estimate_dim(_Received(terms[:i] + terms[i + 1:]), cfg)
        pairs.append((DimValue.from_estimate(ef.value, ef.stderr),
                      DimValue.from_estimate(ei.value, ei.stderr)))
    return assemble_report(pairs, H, "monte-carlo")
