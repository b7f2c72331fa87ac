#!/usr/bin/env python3
"""dofkit benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Run it from the repository root; dofkit is imported from ./src.  One caller
issues one op at a time (a closed loop) until the ops have taken --seconds
of measured time.  Every op's answer is checked against a reference that
does not use dofkit; the exit code is 1 when any answer disagrees.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every op twice,
once through the top-level call and once through the layers' public
functions inside spans (alternating which goes first), prints the
per-layer metrics and writes the spans to perfbench/out/.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# One caller, one thread: pin BLAS and OpenMP pools before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Set-up rounds before the first timed op, each on its own fixed inputs.
SETUP_ROUNDS = 3
TAIL_BEYOND = 10
# A plain run measures for --seconds and for at least this many ops, so
# that op_tail_s always has TAIL_BEYOND samples beyond it.
MIN_OPS = TAIL_BEYOND + 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}

# Per-layer metrics: span name -> which of .calls (per op, over the count
# window) and .s (seconds per op, over every traced op) are reported.
LAYER_SPANS = {
    "linalg.mat_rank": ("calls", "s"),
    "linalg.matmul": ("calls", "s"),
    "dimension.dim_subspace_sum": ("calls", "s"),
    "engine.upper_bound": ("calls", "s"),
    "dimension.convolve_linear": ("calls", "s"),
    "dimension.open_set_check": ("calls", "s"),
    "dimension.entropy_finite": ("s",),
    "construct.build": ("s",),
    "estimator.sample_scheme": ("calls", "s"),
    "estimator.receive": ("s",),
    "estimator.estimate_dim": ("calls", "s"),
    "estimator.quantized_entropy": ("calls", "s"),
}
# Work counts recorded on spans, reported per op over the count window.
WORK_COUNTS = (
    "engine.search.assignments",
    "engine.search.full_rank",
    "dimension.convolve_linear.product_points",
    "dimension.convolve_linear.sumset_points",
    "dimension.open_set_check.points",
    "dimension.open_set_check.pairs",
    "construct.codeword_points",
    "construct.refusals",
    "estimator.samples",
    "estimator.ifs_depth",
    "estimator.cells_distinct",
)


def per_layer_units() -> dict:
    units = {}
    for name, kinds in LAYER_SPANS.items():
        for kind in kinds:
            units["%s.%s" % (name, kind)] = "count" if kind == "calls" else "s"
    for name in WORK_COUNTS:
        units[name] = "count"
    units["engine.search.useful_ratio"] = "ratio"
    units["dimension.convolve_linear.merge_ratio"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    units["trace.layer_coverage"] = "ratio"
    return units


def import_dofkit():
    """Put ./src first on the path and import the workloads (and through
    them dofkit).  Exits with status 1 when the source tree is missing, so
    an installed copy elsewhere is never measured by mistake."""
    if not os.path.isfile(os.path.join(SRC, "dofkit", "__init__.py")):
        sys.exit("perfbench: no dofkit source at %s; run from the repository "
                 "root" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    import dofkit
    if os.path.dirname(os.path.dirname(os.path.abspath(dofkit.__file__))) != SRC:
        sys.exit("perfbench: imported dofkit from %s, not %s"
                 % (dofkit.__file__, SRC))
    return workloads


class Runner:
    """Issues ops, checks them, and keeps their latencies and failures."""

    def __init__(self, wl, seed, tracer=None):
        self.wl = wl
        self.seed = seed
        self.tracer = tracer
        self.failures = []
        self.next_id = 0

    def new_op(self, kind, seed=None):
        """The next op of `kind`, with inputs from the workload seed (or
        from `seed`), and its reference answer."""
        from workloads import op_seed
        op_id = self.next_id
        self.next_id += 1
        op = self.wl.make(kind, op_seed(self.seed if seed is None else seed, op_id))
        return op_id, op, self.wl.reference(op)

    def attempt(self, op_id, op, want, path, trace_op=None):
        """One timed op on `path` ("plain" or "traced"); returns
        (seconds, ok).  Inputs are built before the clock starts."""
        from dofkit.errors import AnalysisError
        objs = self.wl.build(op)
        tr = self.tracer
        t0 = time.perf_counter()
        try:
            if path == "plain":
                ans = self.wl.run(objs)
            else:
                tr.op = trace_op
                with tr.span("op"):
                    ans = self.wl.traced(objs, tr)
        except AnalysisError as exc:
            cause = "refused: %s: %s" % (type(exc).__name__, exc)
        except Exception as exc:  # any raise counts as a failed op
            where = traceback.extract_tb(exc.__traceback__)[-1]
            cause = "raised: %s: %s (at %s:%d)" % (
                type(exc).__name__, exc, os.path.basename(where.filename),
                where.lineno)
        else:
            cause = None
        elapsed = time.perf_counter() - t0
        if cause is None:
            cause = self.wl.check(op, ans, want)
        if cause is not None:
            self.failures.append((op_id, op.kind, op.seed, path, cause))
        return elapsed, cause is None


def setup(runner, traced):
    """Rounds of input generation, reference answers and a warm-up op of the
    workload's first kind; returns each round's seconds.  Round r's inputs
    come from op_seed(0, r): fixed, so set-up time does not depend on which
    inputs the workload seed draws, and different in every round, so no
    round reuses another's inputs.  A traced run reports no setup_s, so it
    warms both paths up once."""
    rounds = []
    for _ in range(1 if traced else SETUP_ROUNDS):
        t0 = time.perf_counter()
        op_id, op, want = runner.new_op(runner.wl.kinds[0], seed=0)
        runner.attempt(op_id, op, want, "plain")
        if traced:
            runner.attempt(op_id, op, want, "traced", trace_op="warmup")
        rounds.append(time.perf_counter() - t0)
    return rounds


def tail(latencies):
    """Latency at the highest percentile that has TAIL_BEYOND samples above
    it (needs more than TAIL_BEYOND samples), and that percentile."""
    xs = sorted(latencies)
    n = len(xs)
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def measure_plain(runner, seconds):
    """Ops until they have taken `seconds`, MIN_OPS have run, and the last
    cycle of op kinds is complete, so every run has the same op mix."""
    cycle = len(runner.wl.kinds)
    latencies, correct = [], 0
    t = 0
    while sum(latencies) < seconds or t < MIN_OPS or t % cycle:
        op_id, op, want = runner.new_op(runner.wl.kind_of(t))
        elapsed, ok = runner.attempt(op_id, op, want, "plain")
        latencies.append(elapsed)
        correct += ok
        t += 1
    return latencies, correct


def measure_traced(runner, seconds):
    """Each op runs on both paths, plain first on even ops and traced first
    on odd ones; stops once both paths together have taken `seconds` and
    the last cycle of op kinds is complete (the first cycle is the count
    window).  Returns the per-path latencies and the number of ops correct
    on both paths."""
    cycle = len(runner.wl.kinds)
    plain, traced, correct = [], [], 0
    t = 0
    while sum(plain) + sum(traced) < seconds or t == 0 or t % cycle:
        op_id, op, want = runner.new_op(runner.wl.kind_of(t))
        ok = True
        for path in (("plain", "traced") if t % 2 == 0 else ("traced", "plain")):
            elapsed, path_ok = runner.attempt(op_id, op, want, path, trace_op=t)
            (plain if path == "plain" else traced).append(elapsed)
            ok = ok and path_ok
        correct += ok
        t += 1
    return plain, traced, correct


def layer_metrics(tracer, window, n_ops, plain_s, traced_s):
    from spans import coverage, layer_totals
    seconds, _, _ = layer_totals(tracer.spans, range(n_ops))
    _, calls, work = layer_totals(tracer.spans, range(window))
    m = {}
    for name, kinds in LAYER_SPANS.items():
        if "calls" in kinds:
            m[name + ".calls"] = calls.get(name, 0) / window
        if "s" in kinds:
            m[name + ".s"] = seconds.get(name, 0.0) / n_ops
    for name in WORK_COUNTS:
        m[name] = work.get(name, 0) / window

    def ratio(a, b):
        return work.get(a, 0) / work[b] if work.get(b) else 0.0
    m["engine.search.useful_ratio"] = ratio("engine.search.full_rank",
                                            "engine.search.assignments")
    m["dimension.convolve_linear.merge_ratio"] = ratio(
        "dimension.convolve_linear.sumset_points",
        "dimension.convolve_linear.product_points")
    m["trace.overhead_frac"] = traced_s / plain_s - 1.0
    m["trace.layer_coverage"] = coverage(tracer.spans, "op")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = import_dofkit()
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload]
    imported = time.perf_counter() - START

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    runner = Runner(wl, args.seed, tracer)
    rounds = setup(runner, bool(args.trace))
    if tracer:
        tracer.spans.clear()  # warm-up spans are not measurements
    warmup_failures = len(runner.failures)

    print("# workload=%s seed=%d seconds=%g trace=%d"
          % (wl.name, args.seed, args.seconds, args.trace))
    print("# threads: " + " ".join("%s=%s" % (v, os.environ[v])
                                   for v in THREAD_VARS))
    print("# setup: import %.4f s, rounds %s s"
          % (imported, " ".join("%.4f" % r for r in rounds)))

    if args.trace:
        plain, traced, correct = measure_traced(runner, args.seconds)
        attempted = len(plain)
        metrics = layer_metrics(tracer, len(wl.kinds), attempted,
                                sum(plain), sum(traced))
        units = per_layer_units()
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "spans-%s-%d.json.gz" % (wl.name, args.seed))
        tracer.write(path, {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "kinds": list(wl.kinds), "count_window": len(wl.kinds),
            "ops": attempted})
        print("# counts are per op over the first %d ops; .s is seconds per "
              "op over all %d traced ops; spans in %s"
              % (len(wl.kinds), attempted, os.path.relpath(path)))
        if metrics["trace.layer_coverage"] < 0.5:
            print("# WARNING: layer spans cover only %.1f%% of traced op time"
                  % (100 * metrics["trace.layer_coverage"]))
    else:
        # Everything from process start to the first timed op.
        setup_s = time.perf_counter() - START
        latencies, correct = measure_plain(runner, args.seconds)
        attempted = len(latencies)
        tail_s, pct = tail(latencies)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": correct / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": correct / attempted,
        }
        units = END_TO_END_UNITS
        print("# op_tail_s is p%.1f of %d ops (%d beyond)"
              % (pct, attempted, TAIL_BEYOND))

    failed = attempted - correct
    print("# fail_frac %.6g (%d of %d ops; %d warm-up failures)"
          % (failed / attempted, failed, attempted, warmup_failures))
    for op_id, kind, seed, path, cause in runner.failures:
        print("# FAIL op %d (%s, seed %d, %s): %s" % (op_id, kind, seed, path, cause))
    for name, value in metrics.items():
        print("%-44s %.6g %s" % (name, value, units[name]))
    ok = not runner.failures
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
