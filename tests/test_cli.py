import argparse
import hashlib
import json
import pathlib
import shlex
from fractions import Fraction as Q

import pytest

from dofkit import ChannelMatrix, MixtureScheme, SubspaceScheme, dof_eval
from dofkit.cli import build_parser, main
from dofkit.examples import ex1, k3m3
from dofkit.serialize import channel_json, report_json, scheme_json

TWO_USER = ChannelMatrix.from_rows(2, 1, [[1, 1], [1, -1]])

EX1_ROWS = [[1, 0, 1, 0, 1, 0], [1, 1, 1, 1, 0, 1], [1, 0, 1, 0, 1, 0],
            [2, 2, 0, 1, 1, 1], [1, 0, 2, 0, 1, 1], [0, 1, 0, 1, 0, 1]]


@pytest.fixture
def files(tmp_path):
    """Channel / scheme / pool / pairs JSON files shared by the commands."""
    H, scheme = ex1()
    paths = {}

    def put(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
        return str(p)

    put("ex1.json", channel_json(H))
    put("ex1_scheme.json", scheme_json(scheme))
    put("two.json", channel_json(TWO_USER))
    put("mix.json", scheme_json(MixtureScheme((Q(1, 2), Q(1, 2)))))
    put("pool.json", {"pool": [["1", "0"], ["0", "1"], ["1", "1"],
                               ["1", "2"], ["1", "3"]],
                      "dims": [1, 1, 1]})
    put("pairs.json", {"pairs": [
        {"U": [["1", "1"]], "V": [["3", "-1"]]},
        {"U": [["1", "2"]], "V": [["4", "-1"]]},
        {"U": [["1", "3"]], "V": [["1", "-1"]]}]})
    put("selfsim.json", {"family": "selfsimilar", "ratio": "1/2",
                         "supports": [{"points": [["0"], ["2"]],
                                       "probs": ["1/2", "1/2"]}] * 2})
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_eval_command(files, capsys):
    code, out, err = run(capsys, "eval", "--channel", files["ex1.json"],
                         "--scheme", files["ex1_scheme.json"])
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["total"]["value"] == "3"
    assert obj["normalized"] == "3/2"
    H, scheme = ex1()
    assert obj == report_json(dof_eval(H, scheme))


def test_eval_pretty_keeps_stdout_clean(files, capsys):
    code, out, err = run(capsys, "eval", "--channel", files["ex1.json"],
                         "--scheme", files["ex1_scheme.json"], "--pretty")
    assert code == 0
    json.loads(out)  # still pure JSON
    assert "receiver" in err and "total" in err


def test_out_file_replaces_stdout(files, capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "eval", "--channel", files["ex1.json"],
                       "--scheme", files["ex1_scheme.json"],
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["total"]["value"] == "3"


def test_example_fixtures(capsys):
    code, out, _ = run(capsys, "example", "ex1")
    assert code == 0
    H, scheme = ex1()
    assert json.loads(out) == report_json(dof_eval(H, scheme))

    code, out, _ = run(capsys, "example", "k3m3", "--seed", "7")
    assert code == 0 and json.loads(out)["total"]["value"] == "4"

    code, out, _ = run(capsys, "example", "cyclic", "4", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["total"]["value"] == "12" and obj["bound_met"] is True

    assert main(["example", "nosuchfixture"]) == 2


def test_bound_command(files, capsys):
    code, out, _ = run(capsys, "bound", "--channel", files["ex1.json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["bound"] == "3"
    assert obj["derangement"]["sigma"] == [2, 3, 1]


def test_mimo_command(files, capsys):
    code, out, _ = run(capsys, "mimo", "--channel", files["ex1.json"],
                       "--pairs", files["pairs.json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["ell"] == 3 and obj["failures"] == []


def test_parallel_command(capsys, tmp_path):
    from dofkit.examples import stacked
    p = tmp_path / "stacked.json"
    p.write_text(json.dumps(channel_json(stacked()[0])))
    code, out, _ = run(capsys, "parallel", "--channel", str(p))
    assert code == 0
    obj = json.loads(out)
    assert len(obj["subchannels"]) == 2
    assert obj["fully_connected"] is True and obj["dets_verified"] is True


def test_parallel_rejects_coupled(files, capsys):
    assert main(["parallel", "--channel", files["ex1.json"]]) == 1


def test_construct_command(files, capsys):
    code, out, _ = run(capsys, "construct", "--channel", files["two.json"],
                       "--N", "2", "--k", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["params"]["p"] == 4
    assert obj["params"]["grid"] == ["0", "1/4", "1/2", "3/4", "1"]
    assert obj["report"]["method"] == "entropy-ratio"
    # regression pin on the achieved value for this exact instance
    assert obj["report"]["total"]["value"] == "0.22571715857893748"


@pytest.mark.parametrize("k, digest", [
    ("8", "88987a575613ca7608f01b8998f19861b6c16b58346223fdb3b994ab4d4b41f7"),
    ("9", "a7a1e8c8c3547f93e6a6f6014a7e36a7611dbed3b1d39d28befca39ef2fe6fca"),
    ("10", "301e87ccad3b71eea4b25cd8f28e0f62a4c800ec85864a2b199f1ee1d0753d86"),
    ("11", "5a30fec20dfccb6a3742b0be3eb0679f657e71575061ae35756fce643ebca118"),
])
def test_construct_stdout_on_ex1_is_frozen(files, capsys, k, digest):
    # SHA-256 of the whole stdout (params, scheme JSON and report) for
    # ex1 (K=3, M=2) at N=1, frozen from the product-enumeration
    # constructor for k <= 10; k=11, whose product of supports is over
    # the cap, is frozen from the step-capped fold, and its entropies are
    # the oracle's (test_constructor.py::test_constructed_dof_ex1_at_k11)
    code, out, _ = run(capsys, "construct", "--channel", files["ex1.json"],
                       "--N", "1", "--k", k)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_construct_rejects_coarse_resolution(files, capsys):
    assert main(["construct", "--channel", files["two.json"],
                 "--N", "2", "--k", "4"]) == 1


@pytest.mark.parametrize("k", ["-5", "0"])
def test_construct_refuses_nonpositive_k_as_input_error(files, capsys, k):
    assert main(["construct", "--channel", files["two.json"],
                 "--N", "2", "--k", k]) == 2


def test_search_command(files, capsys):
    code, out, _ = run(capsys, "search", "--channel", files["ex1.json"],
                       "--pool", files["pool.json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["report"]["total"]["value"] == "3"
    assert obj["scheme"]["directions"] == [[["1", "1"]], [["1", "2"]],
                                           [["1", "3"]]]


K3M3_POOLS = {"pools": [[["1", "1", "1"], ["2", "2", "2"], ["1", "2", "3"],
                         ["3", "1", "2"]],
                        [["1", "1", "1"], ["1", "2", "3"], ["1", "0", "0"]],
                        [["1", "1", "1"], ["1", "2", "3"], ["1", "0", "0"]]],
              "dims": [2, 1, 1]}


@pytest.mark.parametrize("fixture, digest", [
    ("ex1", "6cd6314eee1673f701b380d874506d469149e3c8e3cc4f06469f9582f4870101"),
    ("k3m3", "1ac2256511727e072a80417b7cc68e2e684679f5bcecd231b85fb19ca476cdec"),
])
def test_search_stdout_is_frozen(files, capsys, tmp_path, fixture, digest):
    # SHA-256 of the whole stdout (scheme JSON and report), frozen from
    # the search that built every assignment's scheme before ranking it.
    # On k3m3 (seed 7) user 1's pool holds the scaled copy (2,2,2) of
    # (1,1,1), so some of its pairs are rank deficient and skipped.
    if fixture == "ex1":
        channel, pool = files["ex1.json"], files["pool.json"]
    else:
        channel, pool = tmp_path / "k3m3.json", tmp_path / "k3m3_pool.json"
        channel.write_text(json.dumps(channel_json(k3m3(7)[0])))
        pool.write_text(json.dumps(K3M3_POOLS))
    code, out, _ = run(capsys, "search", "--channel", str(channel),
                       "--pool", str(pool))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_eval_refuses_rank_deficient_scheme(files, capsys, tmp_path):
    p = tmp_path / "deficient.json"
    p.write_text(json.dumps({"family": "subspace", "directions": [
        [["1", "1"], ["2", "2"]], [["1", "2"]], [["1", "3"]]]}))
    code, out, err = run(capsys, "eval", "--channel", files["ex1.json"],
                         "--scheme", str(p))
    assert (code, out) == (2, "")
    assert err == "input error: user 1 direction matrix has dependent columns\n"


def test_search_reads_scalar_pool_entries_as_vectors(files, capsys, tmp_path):
    p = tmp_path / "scalar_pool.json"
    p.write_text(json.dumps({"pool": [1, "2"], "dims": [1, 1]}))
    code, out, _ = run(capsys, "search", "--channel", files["two.json"],
                       "--pool", str(p))
    assert code == 0
    assert json.loads(out)["scheme"]["directions"] == [[["1"]], [["1"]]]


def test_search_refuses_pools_that_are_not_lists(files, capsys, tmp_path):
    p = tmp_path / "bad_pools.json"
    p.write_text(json.dumps({"pools": 5, "dims": [1, 1]}))
    assert main(["search", "--channel", files["two.json"],
                 "--pool", str(p)]) == 2


@pytest.mark.parametrize("dims", [[1.7, 1], [True, 1], ["1", 1]])
def test_search_refuses_dims_that_are_not_integers(files, capsys, tmp_path,
                                                   dims):
    p = tmp_path / "bad_dims.json"
    p.write_text(json.dumps({"pool": [1, 2], "dims": dims}))
    assert main(["search", "--channel", files["two.json"],
                 "--pool", str(p)]) == 2


@pytest.mark.parametrize("field,value", [("K", 2.9), ("M", True), ("K", "2")])
def test_channel_refuses_sizes_that_are_not_integers(files, capsys, tmp_path,
                                                     field, value):
    p = tmp_path / "bad_channel.json"
    p.write_text(json.dumps(dict(channel_json(TWO_USER), **{field: value})))
    assert main(["eval", "--channel", str(p), "--scheme", files["mix.json"]]) == 2


@pytest.mark.parametrize("M", ["x", True, 1.5])
def test_eval_refuses_subspace_M_that_is_not_an_integer(files, capsys,
                                                        tmp_path, M):
    p = tmp_path / "bad_M.json"
    p.write_text(json.dumps({"family": "subspace", "directions": [[1], []],
                             "M": M}))
    assert main(["eval", "--channel", files["two.json"],
                 "--scheme", str(p)]) == 2


def test_eval_reads_scalar_direction_columns(files, capsys, tmp_path):
    p = tmp_path / "scalar_dirs.json"
    p.write_text(json.dumps({"family": "subspace", "directions": [[1], [1]]}))
    code, out, _ = run(capsys, "eval", "--channel", files["two.json"],
                       "--scheme", str(p))
    assert code == 0
    assert json.loads(out) == report_json(dof_eval(
        TWO_USER, SubspaceScheme.from_columns([[(1,)], [(1,)]])))


@pytest.mark.parametrize("scheme", [
    {"family": "selfsimilar", "ratio": "1/2", "supports": 5},
    {"family": "mixture", "alpha": "10"},  # not the alphas 1 and 0
])
def test_eval_refuses_scheme_fields_that_are_not_lists(files, capsys,
                                                       tmp_path, scheme):
    p = tmp_path / "bad_scheme.json"
    p.write_text(json.dumps(scheme))
    assert main(["eval", "--channel", files["two.json"],
                 "--scheme", str(p)]) == 2


@pytest.mark.parametrize("cols", [[[1, 0], [0, 1, 7]], [[1, 0, 7], [0, 1]]])
def test_eval_refuses_ragged_direction_columns(files, capsys, tmp_path, cols):
    p = tmp_path / "ragged.json"
    p.write_text(json.dumps({"family": "subspace",
                             "directions": [cols, [[1, 1]], [[1, 2]]]}))
    assert main(["eval", "--channel", files["ex1.json"],
                 "--scheme", str(p)]) == 2


@pytest.mark.parametrize("args", [["a", "b"], ["3", "2.5"], ["3", "4", "5"]])
def test_example_refuses_cyclic_sizes_that_are_not_integers(capsys, args):
    assert main(["example", "cyclic", *args]) == 2


def test_mimo_refuses_pairs_that_are_not_a_list(files, capsys, tmp_path):
    p = tmp_path / "bad_pairs.json"
    p.write_text(json.dumps({"pairs": 5}))
    assert main(["mimo", "--channel", files["ex1.json"],
                 "--pairs", str(p)]) == 2


def test_complex_channel_refuses_blocks_that_are_not_M_by_M(files, capsys,
                                                           tmp_path):
    entry = [[{"re": "1", "im": "0"}]]
    p = tmp_path / "complex.json"
    p.write_text(json.dumps({"K": 2, "M": 5, "complex": True,
                             "blocks": [[entry, entry], [entry, entry]]}))
    assert main(["bound", "--channel", str(p)]) == 2
    p.write_text(json.dumps({"K": 2, "M": 1, "complex": True,
                             "blocks": [[entry, entry], [entry, entry]]}))
    assert main(["bound", "--channel", str(p)]) == 0


def test_standardize_command(capsys, tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(
        {"matrix": [["1", "1", "-1"], ["-1", "1", "1"], ["1", "-1", "1"]]}))
    code, out, _ = run(capsys, "standardize", "--channel", str(p),
                       "--strictness")
    assert code == 0
    obj = json.loads(out)
    assert (obj["a"], obj["b"], obj["c"], obj["d"]) == ("1", "-1", "-1", "-1")
    assert obj["standard"] == [["1", "1", "1"], ["1", "-1", "1"],
                               ["1", "-1", "-1"]]
    assert obj["strictness"]["hypothesis_holds"] is True
    assert obj["strictness"]["claim"] == "DoFStrictlyBelowThreeHalves"


def test_estimate_command_deterministic(files, capsys):
    argv = ["estimate", "--channel", files["two.json"],
            "--scheme", files["mix.json"], "--samples", "20000",
            "--k1", "3", "--k2", "6", "--seed", "5"]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["method"] == "monte-carlo"
    assert obj["total"]["kind"] == "estimate"


def test_estimate_stdout_is_frozen(files, capsys):
    # SHA-256 of the whole stdout of a seeded two-user mixture estimate,
    # frozen from the estimator that grouped every resolution over all n
    # samples and formed each channel product twice
    code, out, _ = run(capsys, "estimate", "--channel", files["two.json"],
                       "--scheme", files["mix.json"], "--samples", "20000",
                       "--k1", "3", "--k2", "6", "--seed", "5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f04683f5541360b366473a6b0b32d5bdeb7f74fef9c6785e92e9eb603dd88ce6")


def test_estimate_seed_from_environment(files, capsys, monkeypatch):
    argv = ["estimate", "--channel", files["two.json"],
            "--scheme", files["mix.json"], "--samples", "20000",
            "--k1", "3", "--k2", "6"]
    monkeypatch.setenv("DOFKIT_SEED", "5")
    _, out_env, _ = run(capsys, *argv)
    monkeypatch.delenv("DOFKIT_SEED")
    _, out_flag, _ = run(capsys, *(argv + ["--seed", "5"]))
    assert out_env == out_flag
    # an explicit flag beats the environment
    monkeypatch.setenv("DOFKIT_SEED", "99")
    _, out_override, _ = run(capsys, *(argv + ["--seed", "5"]))
    assert out_override == out_flag


def test_seed_domain_is_the_estimators(files, capsys, monkeypatch):
    # the estimator's seeds are ints in [0, 2^64); a fixture's seed goes to
    # random.Random, which takes any int
    argv = ["estimate", "--channel", files["two.json"],
            "--scheme", files["mix.json"], "--samples", "100"]
    assert run(capsys, *argv, "--seed", "-1")[0] == 2
    monkeypatch.setenv("DOFKIT_SEED", str(1 << 64))
    assert run(capsys, *argv)[0] == 2
    assert run(capsys, "example", "k3m3", "--seed", "-1")[0] == 0


def test_estimate_refuses_over_deep_self_similar_draw(files, capsys):
    # refused before sampling, not after asking numpy for the memory
    code, out, err = run(capsys, "estimate", "--channel", files["two.json"],
                         "--scheme", files["selfsim.json"], "--samples",
                         "1000", "--k1", "3", "--k2", "6",
                         "--depth", str(10**12))
    assert code == 2 and out == ""
    assert "depth" in err


def test_estimate_refuses_derived_depth_past_the_draw_limit(files, capsys,
                                                            tmp_path):
    # r = 4095/4096 at k2 = 8 needs depth 62454; refused, not left to hang
    near_one = tmp_path / "near_one.json"
    near_one.write_text(json.dumps(
        {"family": "selfsimilar", "ratio": "4095/4096",
         "supports": [{"points": [["0"], ["1"]], "probs": ["1/2", "1/2"]}] * 2}))
    code, out, err = run(capsys, "estimate", "--channel", files["two.json"],
                         "--scheme", str(near_one), "--k1", "4", "--k2", "8")
    assert code == 2 and out == ""
    assert "depth 62454" in err


def test_eval_self_similar_with_probability_below_float_range(capsys,
                                                             tmp_path):
    # a support probability of 2^-1100 rounds to float 0; its entropy term
    # is 0, not a math domain error
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps(
        {"family": "selfsimilar", "ratio": "1/4",
         "supports": [{"points": [["0"], ["1"]],
                       "probs": ["%d/%d" % (2 ** 1100 - 1, 2 ** 1100),
                                 "1/%d" % 2 ** 1100]}] * 2}))
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps(channel_json(
        ChannelMatrix.from_rows(2, 1, [[1, 2], [2, 1]]))))
    code, out, err = run(capsys, "eval", "--channel", str(chan),
                         "--scheme", str(tiny))
    assert code == 0 and err == ""
    assert json.loads(out)["method"] == "entropy-ratio"


def test_exit_code_on_missing_file(capsys):
    assert main(["eval", "--channel", "/nonexistent/ch.json",
                 "--scheme", "/nonexistent/s.json"]) == 2


def test_exit_code_on_invalid_json(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["eval", "--channel", str(bad),
                 "--scheme", files["ex1_scheme.json"]]) == 2


def test_exit_code_on_mismatched_scheme(files, capsys):
    assert main(["eval", "--channel", files["two.json"],
                 "--scheme", files["ex1_scheme.json"]]) == 2


def test_exit_code_on_analysis_refusal(files, capsys):
    # overlapping self-similar supports: the dimension rule refuses
    assert main(["eval", "--channel", files["two.json"],
                 "--scheme", files["selfsim.json"]]) == 1


# Each subcommand's option strings (sorted, -h/--help left out), its
# required flags and its positionals.
SURFACE = {
    "eval": (["--channel", "--out", "--pretty", "--scheme"],
             ["--channel", "--scheme"], []),
    "bound": (["--channel", "--out", "--pretty"], ["--channel"], []),
    "mimo": (["--channel", "--out", "--pairs", "--pretty"],
             ["--channel", "--pairs"], []),
    "parallel": (["--channel", "--out", "--pretty"], ["--channel"], []),
    "estimate": (["--channel", "--depth", "--k1", "--k2", "--out", "--pretty",
                  "--samples", "--scheme", "--seed"],
                 ["--channel", "--scheme"], []),
    "construct": (["--N", "--channel", "--k", "--out", "--pretty"],
                  ["--N", "--channel", "--k"], []),
    "search": (["--channel", "--out", "--pool", "--pretty"],
               ["--channel", "--pool"], []),
    "example": (["--out", "--pretty", "--seed"], [], ["name", "args"]),
    "standardize": (["--channel", "--out", "--pretty", "--strictness"],
                    ["--channel"], []),
}


def test_cli_surface_is_frozen():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {}
    for name, p in sub.choices.items():
        actions = [a for a in p._actions
                   if not isinstance(a, argparse._HelpAction)]
        found[name] = (
            sorted(o for a in actions for o in a.option_strings),
            sorted(a.option_strings[0] for a in actions
                   if a.option_strings and a.required),
            [a.dest for a in actions if not a.option_strings])
    assert found == SURFACE


def test_readme_cli_lines_parse():
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    block = readme.read_text().split("## Quick start (CLI)")[1]
    block = block.split("```")[1]
    lines = [shlex.split(line, comments=True)
             for line in block.splitlines() if line.startswith("dofkit ")]
    assert lines
    parser = build_parser()
    for argv in lines:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1] and callable(args.fn)
