"""JSON (de)serialization for channels, schemes, and reports.

Rationals travel as strings ("3/2", "-1", "0") so nothing is ever rounded;
floats travel as repr() strings, which round-trip bit-exactly.  Every
parse_* raises InputError on malformed input so the CLI can map it to
exit code 2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Optional, Sequence

from .construct import ConstructionParams
from .dimension import DimValue
from .engine import (
    DofReport,
    FeasibilityCert,
    MimoConfig,
    ParallelDecomposition,
    ReceiverTerms,
    StandardForm,
    StrictnessClaim,
    complex_stack,
)
from .errors import InputError, _check_ints
from .linalg import ChannelMatrix, DerangementCert, RatMatrix, Subspace
from .schemes import (
    FiniteDist,
    MixtureScheme,
    Scheme,
    SelfSimilarScheme,
    SubspaceScheme,
)

Q = Fraction


def rat_str(q: Fraction) -> str:
    return str(q)


def parse_rat(s: Any) -> Fraction:
    if isinstance(s, bool):  # Fraction(True) == 1; a JSON boolean is no number
        raise InputError("bad rational %r: booleans are not numbers" % (s,))
    try:
        return Q(s) if not isinstance(s, float) else Q(str(s))
    except (ValueError, ZeroDivisionError, TypeError) as e:
        raise InputError("bad rational %r: %s" % (s, e))


def parse_int(obj: Any, what: str) -> int:
    """obj itself when it is a JSON integer.  Booleans, other numbers and
    strings raise InputError rather than being truncated or passed on."""
    _check_ints(**{what: obj})
    return obj


def parse_list(obj: Any, what: str) -> list:
    """obj itself when it is a JSON list.  Anything else raises InputError;
    a string would otherwise be read one character per entry."""
    if not isinstance(obj, list):
        raise InputError("%s must be a list, got %r" % (what, obj))
    return obj


def parse_vector(obj: Any) -> list[Fraction]:
    """A list of rationals; a lone rational (number or string) is read as
    the 1-vector the library's constructors make of a scalar."""
    return [parse_rat(x) for x in (obj if isinstance(obj, list) else [obj])]


def float_str(x: float) -> str:
    return repr(float(x))


def parse_float(s: Any) -> float:
    try:
        return float(s)
    except (ValueError, TypeError) as e:
        raise InputError("bad float %r: %s" % (s, e))


# -- matrices and channels ---------------------------------------------------

def matrix_rows(A: RatMatrix) -> list[list[str]]:
    return [[rat_str(x) for x in A.row(i)] for i in range(A.rows)]


def parse_matrix(rows: Any) -> RatMatrix:
    if not isinstance(rows, list) or not rows:
        raise InputError("matrix must be a nonempty list of rows")
    return RatMatrix.from_rows([[parse_rat(x) for x in parse_list(row, "matrix row")]
                                for row in rows])


def channel_json(H: ChannelMatrix) -> dict:
    return {
        "K": H.K,
        "M": H.M,
        "blocks": [[matrix_rows(H.block(i, j)) for j in range(H.K)]
                   for i in range(H.K)],
    }


def parse_channel(obj: Any) -> ChannelMatrix:
    """Parse a channel; {"complex": true} inputs carry {"re","im"} entries
    and come back as their real 2M x 2M stacking."""
    try:
        K = parse_int(obj["K"], "channel K")
        M = parse_int(obj["M"], "channel M")
        raw = obj["blocks"]
    except (KeyError, TypeError) as e:
        raise InputError("channel needs K, M and a KxK blocks grid: %s" % e)
    if not isinstance(raw, list) or len(raw) != K \
            or any(not isinstance(r, list) or len(r) != K for r in raw):
        raise InputError("blocks grid is not K x K")
    if obj.get("complex"):
        return complex_stack(_blocks(raw, M, "re"), _blocks(raw, M, "im"))
    return ChannelMatrix.from_blocks(_blocks(raw, M))


def _blocks(raw: list, M: int, part: Optional[str] = None
            ) -> list[list[RatMatrix]]:
    """The grid's blocks, each read by parse_matrix and required M x M;
    `part` picks that field ("re" or "im") of every complex entry."""
    try:
        blocks = [[parse_matrix([[e if part is None else e[part]
                                  for e in parse_list(row, "matrix row")]
                                 for row in parse_list(block, "matrix")])
                   for block in brow] for brow in raw]
    except (KeyError, TypeError) as e:
        raise InputError("complex entries need re/im fields: %s" % e)
    if any((b.rows, b.cols) != (M, M) for brow in blocks for b in brow):
        raise InputError("every block must be M x M")
    return blocks


# -- schemes -----------------------------------------------------------------

def _columns(A: RatMatrix) -> list[list[str]]:
    return [[rat_str(x) for x in A.col(j)] for j in range(A.cols)]


def scheme_json(scheme: Scheme) -> dict:
    if isinstance(scheme, SubspaceScheme):
        return {"family": "subspace",
                "directions": [_columns(V) for V in scheme.directions],
                "latent": scheme.latent_tag,
                "M": scheme.directions[0].rows if scheme.directions else 0}
    if isinstance(scheme, MixtureScheme):
        return {"family": "mixture",
                "alpha": [rat_str(a) for a in scheme.alphas]}
    if isinstance(scheme, SelfSimilarScheme):
        return {"family": "selfsimilar",
                "ratio": rat_str(scheme.ratio),
                "supports": [finite_dist_json(s) for s in scheme.supports]}
    raise InputError("unknown scheme type %r" % (type(scheme).__name__,))


def parse_scheme(obj: Any) -> Scheme:
    try:
        family = obj["family"]
    except (KeyError, TypeError) as e:
        raise InputError("scheme needs a family field: %s" % e)
    if family == "subspace":
        per_user = parse_list(obj.get("directions"), "directions")
        cols = [[parse_vector(col) for col in parse_list(user, "user directions")]
                for user in per_user]
        M = obj.get("M")
        return SubspaceScheme.from_columns(
            cols, obj.get("latent", "uniform01"),
            ambient_dim=None if M is None else parse_int(M, "scheme M"))
    if family == "mixture":
        return MixtureScheme.of([parse_rat(a)
                                 for a in parse_list(obj.get("alpha", []), "alpha")])
    if family == "selfsimilar":
        supports = [parse_finite_dist(s)
                    for s in parse_list(obj.get("supports", []), "supports")]
        return SelfSimilarScheme(ratio=parse_rat(obj.get("ratio")),
                                 supports=tuple(supports))
    raise InputError("unknown scheme family %r" % (family,))


def finite_dist_json(D: FiniteDist) -> dict:
    return {"points": [[rat_str(x) for x in pt] for pt in D.points],
            "probs": [rat_str(p) for p in D.probs]}


def parse_finite_dist(obj: Any) -> FiniteDist:
    try:
        pts = [parse_vector(pt) for pt in parse_list(obj["points"], "points")]
        probs = [parse_rat(p) for p in parse_list(obj["probs"], "probs")]
    except (KeyError, TypeError) as e:
        raise InputError("finite distribution needs points and probs: %s" % e)
    return FiniteDist(pts, probs)


# -- subspace pairs for the feasibility test ---------------------------------

def parse_mimo_pairs(obj: Any, M: int) -> MimoConfig:
    try:
        raw = obj["pairs"]
    except (KeyError, TypeError) as e:
        raise InputError("mimo input needs a pairs list: %s" % e)
    pairs = []
    for t, pair in enumerate(parse_list(raw, "pairs")):
        try:
            U, V = (Subspace.from_columns(
                M, [[parse_rat(x) for x in parse_list(col, name + " column")]
                    for col in parse_list(pair[name], name)]) for name in "UV")
        except (KeyError, TypeError) as e:
            raise InputError("pair %d needs U and V column lists: %s"
                             % (t + 1, e))
        pairs.append((U, V))
    return MimoConfig(tuple(pairs))


# -- dimension values and reports --------------------------------------------

def dimvalue_json(v: DimValue) -> dict:
    if v.kind == "rational":
        return {"kind": "rational", "value": rat_str(v.rational)}
    if v.kind == "entropy-ratio":
        return {"kind": "entropy-ratio",
                "value": float_str(v.as_float()),
                "entropy_bits": float_str(v.entropy_bits),
                "log2_inv_ratio": float_str(v.log2_inv_ratio)}
    return {"kind": "estimate",
            "value": float_str(v.estimate),
            "stderr": None if v.stderr is None else float_str(v.stderr)}


def parse_dimvalue(obj: Any) -> DimValue:
    try:
        kind = obj["kind"]
        if kind == "rational":
            return DimValue.from_rational(parse_rat(obj["value"]))
        if kind == "entropy-ratio":
            return DimValue.from_entropy_ratio(
                parse_float(obj["entropy_bits"]),
                parse_float(obj["log2_inv_ratio"]))
        if kind == "estimate":
            se = obj.get("stderr")
            return DimValue.from_estimate(
                parse_float(obj["value"]),
                None if se is None else parse_float(se))
    except (KeyError, TypeError) as e:
        raise InputError("bad dimension value: %s" % e)
    raise InputError("unknown dimension kind %r" % (kind,))


def report_json(r: DofReport) -> dict:
    if isinstance(r.normalized, Fraction):
        normalized = rat_str(r.normalized)
    else:
        normalized = float_str(r.normalized)
    return {
        "method": r.method,
        "per_receiver": [{
            "full": dimvalue_json(t.full_dim),
            "interference": dimvalue_json(t.interference_dim),
            "term": dimvalue_json(t.term),
        } for t in r.per_receiver],
        "total": dimvalue_json(r.total),
        "normalized": normalized,
        "bound": None if r.bound is None else rat_str(r.bound),
        "bound_met": r.bound_met,
    }


def parse_report(obj: Any) -> DofReport:
    try:
        per = tuple(
            ReceiverTerms(
                full_dim=parse_dimvalue(t["full"]),
                interference_dim=parse_dimvalue(t["interference"]),
                term=parse_dimvalue(t["term"]),
            ) for t in obj["per_receiver"])
        total = parse_dimvalue(obj["total"])
        if total.kind == "rational":
            normalized: Any = parse_rat(obj["normalized"])
        else:
            normalized = parse_float(obj["normalized"])
        bound = obj.get("bound")
        return DofReport(
            per_receiver=per,
            total=total,
            normalized=normalized,
            bound=None if bound is None else parse_rat(bound),
            bound_met=obj.get("bound_met"),
            method=obj["method"],
        )
    except (KeyError, TypeError) as e:
        raise InputError("bad report: %s" % e)


# -- other result types --------------------------------------------------------

def cert_json(cert: FeasibilityCert) -> dict:
    return {"ok": cert.ok, "ell": cert.ell,
            "failures": [[c, list(idx)] for c, idx in cert.failures],
            "detV_nonzero": list(cert.detV_nonzero)}


def derangement_json(cert: Optional[DerangementCert]) -> Optional[dict]:
    if cert is None:
        return None
    return {"sigma": list(cert.sigma), "verified": cert.verified}


def parallel_json(dec: ParallelDecomposition) -> dict:
    return {"subchannels": [matrix_rows(S) for S in dec.subchannels],
            "fully_connected": dec.fully_connected,
            "dets_verified": dec.dets_verified}


def standard_form_json(sf: StandardForm) -> dict:
    return {"standard": matrix_rows(sf.matrix),
            "row_scalings": [rat_str(x) for x in sf.row_scalings],
            "col_scalings": [rat_str(x) for x in sf.col_scalings],
            "a": rat_str(sf.a), "b": rat_str(sf.b),
            "c": rat_str(sf.c), "d": rat_str(sf.d)}


def strictness_json(claim: StrictnessClaim) -> dict:
    return {"hypothesis_holds": claim.hypothesis_holds,
            "claim": claim.claim,
            "constant_families": list(claim.constant_families),
            "symmetry_based": claim.symmetry_based}


def params_json(params: ConstructionParams, grid: Sequence[Fraction]) -> dict:
    return {"k": params.k, "p": params.p, "N": params.N,
            "H_max": rat_str(params.H_max), "r": rat_str(params.r),
            "grid": [rat_str(v) for v in grid]}

