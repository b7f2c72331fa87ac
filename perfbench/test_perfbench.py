"""Self-tests for the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

They run every workload at smoke size (one set-up round, one cycle of ops),
show that a wrong answer is reported as a failed op, check that the traced
spans nest, and check that the traced run's spans and work counts match
the calls dofkit itself makes.
"""

import gzip
import json
import math
import os
import subprocess
import sys

import pytest

import run

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

workloads = run.import_dofkit()
import spans  # noqa: E402  (needs the path set up by import_dofkit)


@pytest.fixture
def smoke(monkeypatch):
    """One set-up round and one timed op cycle; the tail is then the
    slowest op."""
    monkeypatch.setattr(run, "SETUP_ROUNDS", 1)
    monkeypatch.setattr(run, "TAIL_BEYOND", 0)
    monkeypatch.setattr(run, "MIN_OPS", 1)


def _run(capsys, *args):
    code = run.main([str(a) for a in args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_prints_every_metric_with_unit(smoke, capsys, name, trace):
    code, lines, result = _run(capsys, "--workload", name, "--seed", 12345,
                               "--seconds", 0.01, "--trace", trace)
    assert code == 0, lines
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines), m["name"]
    if trace:
        assert result["metrics"]["trace.layer_coverage"]["value"] >= 0.5


def _corrupt(kind, want):
    """A reference answer that differs from the right one in one place."""
    if kind in ("grid3", "ex1_k9"):  # one ulp off: compared bit for bit
        return (want[0], math.nextafter(want[1], math.inf)) + want[2:]
    if kind == "cantor":  # outside the estimate's tolerance
        return want[:4] + (want[4] + 0.1,)
    return (want[0] + 1,) + want[1:]  # exact total, or outside the tolerance


KINDS = [(name, kind) for name in WORKLOADS
         for kind in dict.fromkeys(workloads.WORKLOADS[name].kinds)]


@pytest.mark.parametrize("name,kind", KINDS)
def test_corrupted_reference_fails_the_check(name, kind):
    wl = workloads.WORKLOADS[name]
    op = wl.make(kind, workloads.op_seed(7, 0))
    want = wl.reference(op)
    ans = wl.run(wl.build(op))
    assert wl.check(op, ans, want) is None
    assert wl.check(op, ans, _corrupt(kind, want)) is not None


def test_corrupted_reference_is_a_failed_op(smoke, capsys, monkeypatch):
    wl = workloads.WORKLOADS["search"]
    right = wl.reference
    monkeypatch.setattr(wl, "reference", lambda op: _corrupt(op.kind, right(op)))
    code, lines, result = _run(capsys, "--workload", "search", "--seed", 3,
                               "--seconds", 0.01, "--trace", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert any(line.startswith("# FAIL op") for line in lines)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_spans_nest(name):
    wl = workloads.WORKLOADS[name]
    tr = spans.Tracer()
    for t, kind in enumerate(dict.fromkeys(wl.kinds)):
        if kind == "ex1_k9":
            continue  # same layer calls as grid3, four times slower
        op = wl.make(kind, workloads.op_seed(11, t))
        tr.op = t
        with tr.span("op"):
            ans = wl.traced(wl.build(op), tr)
        assert wl.check(op, ans, wl.reference(op)) is None
    assert spans.nesting_errors(tr.spans) == []
    roots = {sid for sid, s in enumerate(tr.spans) if s.name == "op"}
    layers = set(run.LAYER_SPANS)
    for s in tr.spans:
        assert s.name == "op" or (s.parent in roots and s.name in layers), s.name
    assert spans.coverage(tr.spans, "op") >= 0.5


def test_written_spans_nest(smoke, capsys):
    _run(capsys, "--workload", "search", "--seed", 5,
         "--seconds", 0.01, "--trace", 1)
    path = os.path.join(HERE, "out", "spans-search-5.json.gz")
    with gzip.open(path, "rt") as fh:
        doc = json.load(fh)
    loaded = []
    for name, start, end, parent, op, counts in doc["spans"]:
        s = spans.Span(doc["names"][name], start, parent, op)
        s.end, s.counts = end, counts
        loaded.append(s)
    assert loaded and spans.nesting_errors(loaded) == []


def test_nesting_check_catches_a_bad_span():
    tr = spans.Tracer()
    tr.op = 0
    with tr.span("op"):
        with tr.span("linalg.mat_rank"):
            pass
    tr.spans[1].end = tr.spans[0].end + 1.0
    assert spans.nesting_errors(tr.spans)


def test_reference_does_not_import_dofkit():
    code = ("import sys; sys.path.insert(0, %r); import reference; "
            "assert not any(m.split('.')[0] == 'dofkit' for m in sys.modules)"
            % HERE)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


# The traced run mirrors the top-level calls by hand (the `traced` methods
# in workloads.py).  This table says which library call each layer span
# stands for: the function's name and the functions it is called from.
MIRRORED_CALLS = {
    "linalg.mat_rank": ("mat_rank", {"search_best_subspace"}),
    "linalg.matmul": ("__mul__", {"dof_eval"}),
    "dimension.dim_subspace_sum": ("dim_subspace_sum", {"dof_eval"}),
    "engine.upper_bound": ("upper_bound", {"assemble_report"}),
    "dimension.convolve_linear": ("convolve_linear", {"dof_eval", "constructed_dof"}),
    "dimension.open_set_check": ("open_set_check", {"dof_eval", "constructed_dof"}),
    "dimension.entropy_finite": ("entropy_finite", {"dof_eval", "constructed_dof"}),
    "estimator.sample_scheme": ("sample_scheme", {"estimate_dof", "run"}),
    "estimator.estimate_dim": ("estimate_dim", {"estimate_dof", "run"}),
}
# Other calls the work counts are derived from.
COUNTED_CALLS = ("dof_eval", "uniform_codewords")


def _caller():
    """Name of the function that made the call being recorded, skipping
    comprehension and generator frames."""
    f = sys._getframe(2)
    while f.f_code.co_name.startswith("<"):
        f = f.f_back
    return f.f_code.co_name


def _record_library_calls(monkeypatch):
    """Wrap every mirrored function where the library (and the workloads)
    look it up; returns the log of (name, caller, args, result)."""
    import importlib
    log = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            caller = _caller()
            out = fn(*args, **kwargs)
            log.append((name, caller, args, out))
            return out
        return wrapper

    modules = [importlib.import_module(m) for m in (
        "dofkit", "dofkit.linalg", "dofkit.dimension", "dofkit.schemes",
        "dofkit.engine", "dofkit.construct", "dofkit.estimator")] + [workloads]
    names = {fn for fn, _ in MIRRORED_CALLS.values()} | set(COUNTED_CALLS)
    names.discard("__mul__")
    for name in names:
        original = getattr(importlib.import_module("dofkit"), name)
        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting(name, original))
    monkeypatch.setattr(workloads.RatMatrix, "__mul__",
                        counting("__mul__", workloads.RatMatrix.__mul__))
    return log


MIRROR_KINDS = [(n, k) for n, k in KINDS if k != "ex1_k9"]  # ex1_k9: as grid3


@pytest.mark.parametrize("name,kind", MIRROR_KINDS)
def test_traced_run_mirrors_the_library_calls(monkeypatch, name, kind):
    """Each layer span matches one library call made by the top-level call,
    and the work counts match that call's arguments and results.  A change
    to the library's call sequence that the mirror does not follow fails
    here."""
    wl = workloads.WORKLOADS[name]
    op = wl.make(kind, workloads.op_seed(13, 0))
    tr = spans.Tracer()
    tr.op = 0
    with tr.span("op"):
        wl.traced(wl.build(op), tr)
    _, span_calls, work = spans.layer_totals(tr.spans, [0])

    log = _record_library_calls(monkeypatch)
    wl.run(wl.build(op))
    monkeypatch.undo()

    def calls(fn, callers=None):
        return [(args, out) for f, c, args, out in log
                if f == fn and (callers is None or c in callers)]

    for span_name, (fn, callers) in MIRRORED_CALLS.items():
        assert len(calls(fn, callers)) == span_calls.get(span_name, 0), span_name
    conv = calls("convolve_linear", MIRRORED_CALLS["dimension.convolve_linear"][1])
    osc = calls("open_set_check", MIRRORED_CALLS["dimension.open_set_check"][1])
    samp = calls("sample_scheme", MIRRORED_CALLS["estimator.sample_scheme"][1])
    library_work = {
        "dimension.convolve_linear.product_points": sum(
            math.prod(len(D.points) for _, D in args[0]) for args, _ in conv),
        "dimension.convolve_linear.sumset_points": sum(
            len(out.points) for _, out in conv),
        "dimension.open_set_check.points": sum(len(args[1]) for args, _ in osc),
        "dimension.open_set_check.pairs": sum(
            len(args[1]) * (len(args[1]) - 1) // 2 for args, _ in osc),
        "estimator.samples": sum(args[1] * len(out) for args, out in samp),
        "engine.search.full_rank": len(calls("dof_eval", {"search_best_subspace"})),
        "construct.codeword_points": sum(
            len(D.points) for _, out in calls("uniform_codewords") for D in out),
    }
    for key, value in library_work.items():
        assert work.get(key, 0) == value, key
    if name == "search":
        x = op.inputs
        assert work["engine.search.assignments"] == math.prod(
            math.comb(len(p), d) for p, d in zip(x["pools"], x["dims"]))


def test_grid3_ops_do_the_same_work():
    """Every grid3 op relabels one base channel, so its sumset sizes and
    entropies are those of the base, whatever the seed."""
    wl = workloads.WORKLOADS["construct"]
    seen = set()
    for seed in (1, 2, 3):
        op = wl.make("grid3", workloads.op_seed(seed, 0))
        tr = spans.Tracer()
        tr.op = 0
        with tr.span("op"):
            ans = wl.traced(wl.build(op), tr)
        assert wl.check(op, ans, wl.reference(op)) is None
        sizes = tuple(sorted(s.counts["dimension.open_set_check.points"]
                             for s in tr.spans if s.name == "dimension.open_set_check"))
        seen.add((tuple(op.inputs["rows"][0]), sizes, ans[1]))
    assert len({rows for rows, _, _ in seen}) == 3
    assert len({(sizes, total) for _, sizes, total in seen}) == 1
