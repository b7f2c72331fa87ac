"""dofkit command-line front end.

Subcommands: eval, bound, mimo, parallel, estimate, construct, search,
example, standardize.  All inputs and outputs are JSON; --pretty adds a
human-readable summary on stderr so stdout stays machine-parseable.
Exit codes: 0 ok, 1 analysis refusal, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Optional

from . import construct as construct_mod
from . import serialize as ser
from .engine import (
    dof_eval,
    mimo_check,
    parallel_extract,
    rational_strictness,
    search_best_subspace,
    standardize_3user,
    upper_bound,
)
from .errors import AnalysisError, InputError
from .estimator import EstimatorConfig, estimate_dof
from .examples import get_fixture
from .linalg import find_derangement


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise InputError("%s is not valid JSON: %s" % (path, e))


def _resolve_seed(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("DOFKIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError("DOFKIT_SEED=%r is not an integer" % (env,))
    return 0


def _pretty_report(rep: dict) -> list[str]:
    lines = ["receiver   full         interference  term"]
    for t, row in enumerate(rep["per_receiver"]):
        lines.append("%-10d %-12s %-13s %s" % (
            t + 1, row["full"]["value"], row["interference"]["value"],
            row["term"]["value"]))
    lines.append("total      %s" % rep["total"]["value"])
    lines.append("normalized %s" % rep["normalized"])
    if rep.get("bound") is not None:
        lines.append("bound      %s (met: %s)" % (rep["bound"],
                                                  rep["bound_met"]))
    lines.append("method     %s" % rep["method"])
    return lines


def _cmd_eval(args) -> tuple[dict, list[str]]:
    H = ser.parse_channel(_load_json(args.channel))
    sch = ser.parse_scheme(_load_json(args.scheme))
    rep = ser.report_json(dof_eval(H, sch))
    return rep, _pretty_report(rep)


def _cmd_bound(args) -> tuple[dict, list[str]]:
    H = ser.parse_channel(_load_json(args.channel))
    bound = upper_bound(H)
    cert = find_derangement(H)
    out = {"bound": None if bound is None else ser.rat_str(bound),
           "derangement": ser.derangement_json(cert)}
    if bound is None:
        pretty = ["no fixed-point-free nonsingular assignment; "
                  "bound not certified"]
    else:
        pretty = ["bound %s via sigma = %s" % (out["bound"],
                                               cert.sigma if cert else None)]
    return out, pretty


def _cmd_mimo(args) -> tuple[dict, list[str]]:
    H = ser.parse_channel(_load_json(args.channel))
    cfg = ser.parse_mimo_pairs(_load_json(args.pairs), H.M)
    cert = mimo_check(H, cfg)
    out = ser.cert_json(cert)
    pretty = ["feasible: %s (ell = %d)" % (cert.ok, cert.ell)]
    for cond, idx in cert.failures:
        pretty.append("  failed condition %s at %s" % (cond, idx))
    return out, pretty


def _cmd_parallel(args) -> tuple[dict, list[str]]:
    H = ser.parse_channel(_load_json(args.channel))
    dec = parallel_extract(H)
    out = ser.parallel_json(dec)
    return out, ["%d subchannels, fully connected: %s"
                 % (len(dec.subchannels), dec.fully_connected)]


def _cmd_estimate(args) -> tuple[dict, list[str]]:
    H = ser.parse_channel(_load_json(args.channel))
    sch = ser.parse_scheme(_load_json(args.scheme))
    cfg = EstimatorConfig(n_samples=args.samples, k1=args.k1, k2=args.k2,
                          seed=_resolve_seed(args.seed),
                          ifs_depth=args.depth)
    rep = ser.report_json(estimate_dof(H, sch, cfg))
    return rep, _pretty_report(rep)


def _cmd_construct(args) -> tuple[dict, list[str]]:
    H = ser.parse_channel(_load_json(args.channel))
    Hc = construct_mod.clear_to_integers(H)
    params, grid = construct_mod.grid_build(Hc, args.k, args.N)
    codewords = construct_mod.uniform_codewords(grid, Hc.K, Hc.M, params.N)
    folded = construct_mod.fold_codewords(codewords, params)
    scheme = construct_mod.lift_selfsimilar(folded, params)
    report = construct_mod.constructed_dof(Hc, scheme, params)
    rep = ser.report_json(report)
    out = {"params": ser.params_json(params, grid),
           "scheme": ser.scheme_json(scheme),
           "report": rep}
    pretty = ["k=%d p=%d N=%d grid size %d" % (params.k, params.p, params.N,
                                               len(grid))]
    pretty.extend(_pretty_report(rep))
    return out, pretty


def _cmd_search(args) -> tuple[dict, list[str]]:
    H = ser.parse_channel(_load_json(args.channel))
    spec = _load_json(args.pool)
    try:
        dims = [ser.parse_int(d, "dims entry")
                for d in ser.parse_list(spec["dims"], "dims")]
    except (KeyError, TypeError) as e:
        raise InputError("pool file needs a dims list: %s" % e)
    if "pools" in spec:
        pools = ser.parse_list(spec["pools"], "pools")
    elif "pool" in spec:
        pools = [spec["pool"]] * H.K
    else:
        raise InputError("pool file needs a pool or pools entry")
    pools = [[ser.parse_vector(vec) for vec in ser.parse_list(pool, "pool")]
             for pool in pools]
    scheme, report = search_best_subspace(H, pools, dims)
    rep = ser.report_json(report)
    out = {"scheme": ser.scheme_json(scheme), "report": rep}
    return out, _pretty_report(rep)


def _cmd_example(args) -> tuple[dict, list[str]]:
    H, scheme = get_fixture(args.name, seed=_resolve_seed(args.seed),
                            args=args.args)
    rep = ser.report_json(dof_eval(H, scheme))
    return rep, _pretty_report(rep)


def _cmd_standardize(args) -> tuple[dict, list[str]]:
    obj = _load_json(args.channel)
    if isinstance(obj, dict) and "matrix" in obj:
        A = ser.parse_matrix(obj["matrix"])
    else:
        A = ser.parse_channel(obj).full_matrix()
    sf = standardize_3user(A)
    out = ser.standard_form_json(sf)
    if args.strictness:
        claim = rational_strictness([sf.matrix])
        out["strictness"] = ser.strictness_json(claim)
    return out, ["a=%s b=%s c=%s d=%s" % (out["a"], out["b"],
                                          out["c"], out["d"])]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dofkit",
        description="Exact degrees-of-freedom analysis for K-user vector "
                    "interference channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, files=("channel",), **file_help):
        """Add subcommand `name` with its handler fn and a required --FILE
        for each of `files` (helped by file_help[FILE])."""
        p = sub.add_parser(name, help=help)
        for f in files:
            p.add_argument("--" + f, required=True, help=file_help.get(f))
        p.set_defaults(fn=fn)
        return p

    command("eval", _cmd_eval, "evaluate a scheme on a channel",
            ("channel", "scheme"))
    command("bound", _cmd_bound, "certify the K M / 2 outer bound")
    command("mimo", _cmd_mimo, "zero-forcing feasibility test",
            ("channel", "pairs"))
    command("parallel", _cmd_parallel,
            "split a block-diagonal channel into subchannels")

    p = command("estimate", _cmd_estimate, "Monte Carlo dof estimate",
                ("channel", "scheme"))
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--k1", type=int, default=4)
    p.add_argument("--k2", type=int, default=8)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--depth", type=int, default=None,
                   help="self-similar truncation depth (default: derived)")

    p = command("construct", _cmd_construct, "self-similar input "
                "construction from uniform grid codewords")
    p.add_argument("--N", type=int, required=True, help="blocklength")
    p.add_argument("--k", type=int, required=True,
                   help="resolution exponent (r = 2^-k)")

    command("search", _cmd_search, "exhaustive direction search",
            ("channel", "pool"), pool="JSON with pool/pools and dims")

    p = command("example", _cmd_example, "run a named fixture", ())
    p.add_argument("name")
    p.add_argument("args", nargs="*", help="extra fixture arguments "
                                           "(cyclic takes K and M)")
    p.add_argument("--seed", type=int, default=None)

    p = command("standardize", _cmd_standardize, "3-user standard form",
                channel="JSON with a matrix entry, or a K=3, M=1 channel")
    p.add_argument("--strictness", action="store_true",
                   help="also evaluate the strictness predicate on the "
                        "standardized matrix")

    for p in sub.choices.values():  # after each command's own options
        p.add_argument("--out", help="write the JSON report here instead "
                                     "of stdout")
        p.add_argument("--pretty", action="store_true",
                       help="also print a human summary to stderr")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out, pretty = args.fn(args)
    except InputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    except AnalysisError as e:
        print("analysis error: %s" % e, file=sys.stderr)
        return 1
    text = json.dumps(out, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            print("cannot write %s: %s" % (args.out, e), file=sys.stderr)
            return 2
    else:
        print(text)
    if args.pretty:
        for line in pretty:
            print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
