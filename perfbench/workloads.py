"""The benchmark's three workloads.

Each workload is a closed loop of ops on seeded inputs.  For every op it
provides:

  make(kind, op_seed)  plain inputs (ints, Fractions, lists) from the seed
  reference(op)        the expected answer, from reference.py (no dofkit)
  build(op)            the dofkit objects for those inputs
  run(objs)            the top-level dofkit call, returning the answer
  traced(objs, tr)     the same answer from the layers' public functions,
                       called in the order the top-level call uses them,
                       each call inside a span
  check(op, ans, ref)  None when the answer matches, else the cause

Exact answers (Fraction totals, argmax directions, entropy bits) must match
bit for bit; Monte Carlo estimates must lie within the stated tolerance of
the exact value, so a change to the random streams cannot flip a check.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dofkit import (
    ChannelMatrix,
    EstimatorConfig,
    FiniteDist,
    MixtureScheme,
    RatMatrix,
    SelfSimilarScheme,
    SubspaceScheme,
    clear_to_integers,
    constructed_dof,
    convolve_linear,
    dim_subspace_sum,
    dof_eval,
    entropy_finite,
    estimate_dim,
    estimate_dof,
    fold_codewords,
    grid_build,
    lift_selfsimilar,
    mat_rank,
    open_set_check,
    quantized_entropy,
    sample_scheme,
    search_best_subspace,
    uniform_codewords,
    upper_bound,
    validate_scheme,
)
from dofkit.errors import AnalysisError, OpenSetUnverified
from dofkit.estimator import ifs_truncation_depth

import reference as ref

Q = Fraction

# The paper's three-user, M=2 alignment example (total 3 of a possible 3).
EX1_ROWS = [
    [1, 0, 1, 0, 1, 0],
    [1, 1, 1, 1, 0, 1],
    [1, 0, 1, 0, 1, 0],
    [2, 2, 0, 1, 1, 1],
    [1, 0, 2, 0, 1, 1],
    [0, 1, 0, 1, 0, 1],
]
EX1_ALIGNED = [(1, 1), (1, 2), (1, 3)]

# Criterion 8's two-user mixture channel.
MIXTURE_ROWS = [[1, 0, 1, Q(1, 3)], [0, 1, Q(1, 4), 1],
                [1, Q(1, 5), 1, 0], [Q(1, 6), 1, 0, 1]]


@dataclass
class Op:
    kind: str
    seed: int
    inputs: dict


def op_seed(seed: int, op_id: int) -> int:
    """Op seeds come straight from the workload seed, one per op id."""
    return seed * 100_000 + op_id


def _rand_q(rng: random.Random) -> Fraction:
    return Q(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_vec(rng: random.Random, m: int) -> tuple:
    while True:
        v = tuple(_rand_q(rng) for _ in range(m))
        if any(v):
            return v


def _parallel_rows(subchannels) -> list[list[Fraction]]:
    """KM x KM rows of the channel whose (i,j) block is
    diag(S_1[i][j], ..., S_M[i][j])."""
    M = len(subchannels)
    K = len(subchannels[0])
    rows = [[Q(0)] * (K * M) for _ in range(K * M)]
    for i in range(K):
        for j in range(K):
            for m in range(M):
                rows[i * M + m][j * M + m] = Q(subchannels[m][i][j])
    return rows


def _cyclic_rows(K: int, M: int) -> list[list[int]]:
    """Unit-delay cyclic channel: identity direct links, one-sample cyclic
    shift on every cross link."""
    rows = [[0] * (K * M) for _ in range(K * M)]
    for i in range(K):
        for j in range(K):
            for a in range(M):
                b = a if i == j else (a - 1) % M
                rows[i * M + a][j * M + b] = 1
    return rows


def _columns(V: RatMatrix) -> tuple:
    return tuple(V.col(c) for c in range(V.cols))


def _exact_eq(name, got, want):
    if got != want:
        return "%s: got %r, reference %r" % (name, got, want)
    return None


def _first(*causes):
    return next((c for c in causes if c), None)


class Workload:
    name = ""
    kinds: tuple = ()  # op kinds, issued in this cycle

    def kind_of(self, index: int) -> str:
        return self.kinds[index % len(self.kinds)]


# -- search -------------------------------------------------------------------

class Search(Workload):
    """search_best_subspace over pools of aligning vectors plus seeded
    rational distractors; the exact rational core does all the work."""

    name = "search"
    kinds = ("ex1", "k3m3")

    def make(self, kind, seed):
        rng = random.Random(seed)
        if kind == "ex1":
            pool = EX1_ALIGNED + [_rand_vec(rng, 2) for _ in range(6)]
            pools = []
            for _ in range(3):
                p = list(pool)
                rng.shuffle(p)
                pools.append(p)
            return Op(kind, seed, dict(K=3, M=2, rows=EX1_ROWS,
                                       pools=pools, dims=[1, 1, 1]))
        # Three parallel standard-form subchannels [[a,1,1],[1,b,1],[1,d,c]];
        # user 1 aligns on (1,1,1) and d, users 2 and 3 on (1,1,1).  The
        # scaled copy (2,2,2) makes some of user 1's pairs rank deficient.
        a, b, c, d = ([Q(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
                      for _ in range(4))
        subs = [[[a[m], 1, 1], [1, b[m], 1], [1, d[m], c[m]]] for m in range(3)]
        ones = (1, 1, 1)
        pools = [[ones, tuple(d), (2, 2, 2)] + [_rand_vec(rng, 3) for _ in range(3)],
                 [ones] + [_rand_vec(rng, 3) for _ in range(4)],
                 [ones] + [_rand_vec(rng, 3) for _ in range(4)]]
        for p in pools:
            rng.shuffle(p)
        return Op(kind, seed, dict(K=3, M=3, rows=_parallel_rows(subs),
                                   pools=pools, dims=[2, 1, 1]))

    def reference(self, op):
        x = op.inputs
        return ref.search_reference(x["rows"], x["K"], x["M"], x["pools"], x["dims"])

    def build(self, op):
        x = op.inputs
        return (ChannelMatrix.from_rows(x["K"], x["M"], x["rows"]),
                x["pools"], x["dims"])

    def run(self, objs):
        H, pools, dims = objs
        scheme, report = search_best_subspace(H, pools, dims)
        return (report.total.rational,
                tuple(_columns(V) for V in scheme.directions), report.bound)

    def traced(self, objs, tr):
        H, pools, dims = objs
        K, M = H.K, H.M
        vec_pools = [[tuple(Q(x) for x in v) for v in pool] for pool in pools]
        choices = [tuple(itertools.combinations(range(len(vec_pools[j])), dims[j]))
                   for j in range(K)]
        best = None
        assignments = full_rank = 0
        for assignment in itertools.product(*choices):
            assignments += 1
            mats = []
            for j in range(K):
                cols = [vec_pools[j][t] for t in assignment[j]]
                mats.append(RatMatrix(M, len(cols), tuple(
                    cols[c][i] for i in range(M) for c in range(len(cols)))))
            deficient = False
            for V in mats:
                with tr.span("linalg.mat_rank"):
                    deficient = mat_rank(V) != V.cols
                if deficient:
                    break
            if deficient:
                continue
            full_rank += 1
            scheme = SubspaceScheme(tuple(mats), "uniform01")
            validate_scheme(scheme, H)
            total = 0
            for i in range(K):
                images = []
                for j in range(K):
                    with tr.span("linalg.matmul"):
                        images.append(H.block(i, j) * mats[j])
                with tr.span("dimension.dim_subspace_sum"):
                    full = dim_subspace_sum(images)
                with tr.span("dimension.dim_subspace_sum"):
                    intf = dim_subspace_sum([images[j] for j in range(K) if j != i])
                total += full - intf
            with tr.span("engine.upper_bound"):
                bound = upper_bound(H)
            if best is None or total > best[0]:
                best = (Q(total), tuple(_columns(V) for V in mats), bound)
        tr.count(**{"engine.search.assignments": assignments,
                    "engine.search.full_rank": full_rank})
        return best

    def check(self, op, ans, want):
        return _first(_exact_eq("total", ans[0], want[0]),
                      _exact_eq("argmax directions", ans[1], want[1]),
                      _exact_eq("bound", ans[2], want[2]))


# -- construct ----------------------------------------------------------------

def _grid3_base() -> list[list[int]]:
    """The K=3, M=2 channel that every grid3 op relabels: the first draw of
    entries in {+-1, +-2} from random.Random(0).  Its six sumsets have
    163, 45, 141, 65, 215 and 61 points."""
    rng = random.Random(0)
    return [[rng.choice((-2, -1, 1, 2)) for _ in range(6)] for _ in range(6)]


GRID3_BASE = _grid3_base()
# The 2x2 signed permutation matrices.
SIGNED_PERMS = [[[s, 0], [0, t]] for s in (1, -1) for t in (1, -1)] + \
               [[[0, s], [t, 0]] for s in (1, -1) for t in (1, -1)]


def _relabel(rng: random.Random, rows, K: int = 3, M: int = 2) -> list[list[int]]:
    """A seeded relabelling of `rows` that keeps the constructor's work
    fixed.  Users are permuted, and receiver i's block row is multiplied on
    the left by a signed permutation L_i.  So each receiver's sumsets are
    isometric copies of the base's (same sizes, same l-infinity distances,
    same entropies), while the channel entries differ from op to op."""
    perm = rng.sample(range(K), K)
    out = [[0] * (K * M) for _ in range(K * M)]
    for i in range(K):
        L = rng.choice(SIGNED_PERMS)
        for j in range(K):
            for a in range(M):
                for c in range(M):
                    out[perm[i] * M + a][perm[j] * M + c] = sum(
                        L[a][b] * rows[i * M + b][j * M + c] for b in range(M))
    return out


class Construct(Workload):
    """The N=1 constructor pipeline on seeded K=3, M=2 integer channels at a
    grid of 3 (k = p+1), interleaved with ex1 at k=9 (a grid of 5).  The
    grid3 channels are relabellings of one base channel, so every grid3 op
    does the same work and a run's figures do not depend on which channels
    its seed draws."""

    name = "construct"
    kinds = ("grid3", "grid3", "grid3", "grid3", "ex1_k9")

    def make(self, kind, seed):
        if kind == "ex1_k9":
            return Op(kind, seed, dict(K=3, M=2, rows=EX1_ROWS, k=9))
        rows = _relabel(random.Random(seed), GRID3_BASE)
        h_max = max(abs(x) for row in rows for x in row)
        p = max(1, (8 * 3 * 2 * h_max - 1).bit_length())
        return Op(kind, seed, dict(K=3, M=2, rows=rows, k=p + 1))

    def reference(self, op):
        x = op.inputs
        return ref.construct_reference(x["rows"], x["K"], x["M"], x["k"])

    def build(self, op):
        x = op.inputs
        return ChannelMatrix.from_rows(x["K"], x["M"], x["rows"]), x["k"]

    def run(self, objs):
        H, k = objs
        Hc = clear_to_integers(H)
        params, grid = grid_build(Hc, k, 1)
        codewords = uniform_codewords(grid, Hc.K, Hc.M, params.N)
        folded = fold_codewords(codewords, params)
        scheme = lift_selfsimilar(folded, params)
        report = constructed_dof(Hc, scheme, params)
        per_rx = tuple((t.full_dim.entropy_bits, t.interference_dim.entropy_bits)
                       for t in report.per_receiver)
        return (per_rx, report.total.entropy_bits, report.total.log2_inv_ratio,
                report.bound)

    def traced(self, objs, tr):
        H, k = objs
        try:
            with tr.span("construct.build"):
                Hc = clear_to_integers(H)
                params, grid = grid_build(Hc, k, 1)
                codewords = uniform_codewords(grid, Hc.K, Hc.M, params.N)
                folded = fold_codewords(codewords, params)
                scheme = lift_selfsimilar(folded, params)
            tr.count(**{"construct.codeword_points":
                        sum(len(c.points) for c in codewords)})
            validate_scheme(scheme, Hc)
            per_rx = _selfsimilar_receivers(tr, Hc, scheme)
        except AnalysisError:
            tr.count(**{"construct.refusals": 1})
            raise
        with tr.span("engine.upper_bound"):
            bound = upper_bound(Hc)
        total = math.fsum(hf - hi for hf, hi in per_rx)
        return tuple(per_rx), total, float(params.N * params.k), bound

    def check(self, op, ans, want):
        return _first(_exact_eq("per-receiver entropy bits", ans[0], want[0]),
                      _exact_eq("total bits", ans[1], want[1]),
                      _exact_eq("log2(1/r)", ans[2], want[2]),
                      _exact_eq("bound", ans[3], want[3]))


def _selfsimilar_receivers(tr, H, scheme):
    """The per-receiver loop shared by dof_eval's entropy-ratio path and
    constructed_dof: convolve, check, convolve, check, then both entropies."""
    per_rx = []
    for i in range(H.K):
        dists = []
        for users in (range(H.K), [j for j in range(H.K) if j != i]):
            terms = [(H.block(i, j), scheme.supports[j]) for j in users]
            with tr.span("dimension.convolve_linear") as span:
                dist = convolve_linear(terms)
            span.counts = {
                "dimension.convolve_linear.product_points":
                    math.prod(len(D.points) for _, D in terms),
                "dimension.convolve_linear.sumset_points": len(dist.points)}
            n = len(dist.points)
            with tr.span("dimension.open_set_check", **{
                    "dimension.open_set_check.points": n,
                    "dimension.open_set_check.pairs": n * (n - 1) // 2}):
                ok = open_set_check(scheme.ratio, dist.points)
            if not ok:
                raise OpenSetUnverified("receiver %d sumset fails the "
                                        "contraction check" % (i + 1,))
            dists.append(dist)
        bits = []
        for dist in dists:
            with tr.span("dimension.entropy_finite"):
                bits.append(entropy_finite(dist))
        per_rx.append(tuple(bits))
    return per_rx


# -- estimate: estimate_dof and the self-similar op ---------------------------

class EstimateDof:
    """Op family: estimate_dof at two configurations tier-1 asserts, the
    cyclic (3,2) subspace scheme and criterion 8's two-user mixture."""

    def make(self, kind, seed):
        if kind == "cyclic":
            return Op(kind, seed, dict(
                K=3, M=2, rows=_cyclic_rows(3, 2), directions=[[(1, 0)]] * 3,
                n=100_000, k1=2, k2=5, tol=0.2))
        return Op(kind, seed, dict(
            K=2, M=2, rows=MIXTURE_ROWS, alphas=(Q(1, 2), Q(1, 2)),
            n=100_000, k1=3, k2=6, tol=0.15))

    def reference(self, op):
        x = op.inputs
        if op.kind == "cyclic":
            exact = ref.subspace_total(x["rows"], x["K"], x["M"], x["directions"])
        else:
            exact = ref.mixture_total(x["alphas"], x["K"], x["M"])
        return exact, ref.derangement_bound(x["rows"], x["K"], x["M"])

    def build(self, op):
        x = op.inputs
        H = ChannelMatrix.from_rows(x["K"], x["M"], x["rows"])
        if op.kind == "cyclic":
            scheme = SubspaceScheme.from_columns(x["directions"])
        else:
            scheme = MixtureScheme.of(x["alphas"])
        return H, scheme, EstimatorConfig(x["n"], x["k1"], x["k2"], op.seed)

    def run(self, objs):
        report = estimate_dof(*objs)
        return report.total.estimate, report.bound

    def traced(self, objs, tr):
        H, scheme, cfg = objs
        validate_scheme(scheme, H)
        with tr.span("estimator.sample_scheme"):
            samples = sample_scheme(scheme, cfg.n_samples, cfg.seed, M=H.M,
                                    ifs_depth=cfg.ifs_depth, k2=cfg.k2)
        tr.count(**{"estimator.samples": cfg.n_samples * len(samples)})
        blocks = [[np.array(H.block(i, j).to_float_rows()) for j in range(H.K)]
                  for i in range(H.K)]
        values = []
        for i in range(H.K):
            with tr.span("estimator.receive"):
                full = sum(samples[j] @ blocks[i][j].T for j in range(H.K))
                intf = sum(samples[j] @ blocks[i][j].T
                           for j in range(H.K) if j != i)
            with tr.span("estimator.estimate_dim"):
                ef = estimate_dim(full, cfg)
            with tr.span("estimator.estimate_dim"):
                ei = estimate_dim(intf, cfg)
            values.append(ef.value - ei.value)
            for signal in (full, intf):
                probe_cells(tr, signal, cfg)
        with tr.span("engine.upper_bound"):
            bound = upper_bound(H)
        return math.fsum(values), bound

    def check(self, op, ans, want):
        return _first(_within("total estimate", ans[0], want[0], op.inputs["tol"]),
                      _exact_eq("bound", ans[1], want[1]))


def _within(name, got, exact, tol):
    if not abs(got - float(exact)) <= tol:
        return "%s: got %r, exact %s, tolerance %s" % (name, got, exact, tol)
    return None


def probe_cells(tr, samples, cfg) -> None:
    """Traced-run probe: dyadic cell counting at k1 and k2 on the same
    samples estimate_dim just used, plus the number of distinct k2 cells."""
    for k in (cfg.k1, cfg.k2):
        with tr.span("estimator.quantized_entropy"):
            quantized_entropy(samples, k)
    tr.count(**{"estimator.cells_distinct": distinct_cells(samples, cfg.k2)})


def distinct_cells(samples, k: int) -> int:
    """Distinct rows of floor(2^k x), counted through one packed int64 key
    per row (the cells here span at most a few thousand values per
    coordinate, far from int64 overflow)."""
    cells = np.floor(np.asarray(samples, dtype=float).reshape(len(samples), -1)
                     * float(2 ** k)).astype(np.int64)
    cells -= cells.min(axis=0)
    key = np.zeros(len(cells), dtype=np.int64)
    for col in cells.T:
        key = key * (int(col.max()) + 1) + col
    return len(np.unique(key))


class SelfSimilar:
    """Op family: an exact dof_eval on the entropy-ratio path (K=2, M=1,
    two Cantor users on [[1,1],[1,1]]) plus the criterion 7 Cantor
    estimate, i.e. IFS sampling and 1-D cells at high resolution."""

    def make(self, kind, seed):
        return Op(kind, seed, dict(
            K=2, M=1, rows=[[1, 1], [1, 1]], ratio=Q(1, 3), support=(0, 2),
            n=200_000, k1=8, k2=12, tol=0.05))

    def reference(self, op):
        x = op.inputs
        per_rx, total = ref.selfsimilar_reference([1, 1], x["support"], x["K"])
        return (per_rx, total, math.log2(1 / x["ratio"]),
                ref.derangement_bound(x["rows"], x["K"], x["M"]),
                1 / math.log2(3))

    def build(self, op):
        x = op.inputs
        H = ChannelMatrix.from_rows(x["K"], x["M"], x["rows"])
        W = FiniteDist.uniform(list(x["support"]))
        scheme = SelfSimilarScheme(x["ratio"], (W,) * x["K"])
        cantor = SelfSimilarScheme(x["ratio"], (W,))
        cfg = EstimatorConfig(x["n"], x["k1"], x["k2"], op.seed)
        return H, scheme, cantor, cfg

    def run(self, objs):
        H, scheme, cantor, cfg = objs
        report = dof_eval(H, scheme)
        samples = sample_scheme(cantor, cfg.n_samples, cfg.seed, k2=cfg.k2)
        est = estimate_dim(samples[0], cfg)
        per_rx = tuple((t.full_dim.entropy_bits, t.interference_dim.entropy_bits)
                       for t in report.per_receiver)
        return (per_rx, report.total.entropy_bits, report.total.log2_inv_ratio,
                report.bound, est.value)

    def traced(self, objs, tr):
        H, scheme, cantor, cfg = objs
        validate_scheme(scheme, H)
        log2_inv = math.log2(Q(1) / scheme.ratio)
        per_rx = _selfsimilar_receivers(tr, H, scheme)
        with tr.span("engine.upper_bound"):
            bound = upper_bound(H)
        total = math.fsum(hf - hi for hf, hi in per_rx)
        depth = ifs_truncation_depth(cantor, cfg.k2)
        with tr.span("estimator.sample_scheme"):
            samples = sample_scheme(cantor, cfg.n_samples, cfg.seed, k2=cfg.k2)
        tr.count(**{"estimator.samples": cfg.n_samples,
                    "estimator.ifs_depth": depth})
        with tr.span("estimator.estimate_dim"):
            est = estimate_dim(samples[0], cfg)
        probe_cells(tr, samples[0], cfg)
        return tuple(per_rx), total, log2_inv, bound, est.value

    def check(self, op, ans, want):
        return _first(_exact_eq("per-receiver entropy bits", ans[0], want[0]),
                      _exact_eq("total bits", ans[1], want[1]),
                      _exact_eq("log2(1/r)", ans[2], want[2]),
                      _exact_eq("bound", ans[3], want[3]),
                      _within("Cantor estimate", ans[4], want[4], op.inputs["tol"]))


class Mixed(Workload):
    """A workload whose op kinds come from several op families."""

    def __init__(self, name, kinds, families):
        self.name = name
        self.kinds = kinds
        self.families = families  # kind -> family

    def make(self, kind, seed):
        return self.families[kind].make(kind, seed)

    def reference(self, op):
        return self.families[op.kind].reference(op)

    def build(self, op):
        family = self.families[op.kind]
        return family, family.build(op)

    def run(self, objs):
        family, objs = objs
        return family.run(objs)

    def traced(self, objs, tr):
        family, objs = objs
        return family.traced(objs, tr)

    def check(self, op, ans, want):
        return self.families[op.kind].check(op, ans, want)


_ESTIMATE_DOF = EstimateDof()

WORKLOADS = {w.name: w for w in (
    Search(),
    Construct(),
    # Three mixture ops per cycle keep the median and the tail inside the
    # mixture latencies, between the faster Cantor op and the slower
    # cyclic op.
    Mixed("estimate", ("cantor", "mixture", "mixture", "mixture", "cyclic"),
          {"cantor": SelfSimilar(), "mixture": _ESTIMATE_DOF,
           "cyclic": _ESTIMATE_DOF}),
)}
