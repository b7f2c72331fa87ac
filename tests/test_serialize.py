import json
import math
import warnings
from fractions import Fraction as Q

import pytest

from dofkit import (
    ChannelMatrix,
    DimValue,
    EstimatorConfig,
    FiniteDist,
    MixtureScheme,
    RatMatrix,
    SelfSimilarScheme,
    Subspace,
    SubspaceScheme,
    cyclic_delay_channel,
    dof_eval,
    estimate_dof,
    mat_det,
)
from dofkit.errors import InputError
from dofkit.examples import ex1
from dofkit.serialize import (
    channel_json,
    dimvalue_json,
    parse_channel,
    parse_dimvalue,
    parse_finite_dist,
    parse_matrix,
    parse_mimo_pairs,
    parse_rat,
    parse_report,
    parse_scheme,
    finite_dist_json,
    matrix_rows,
    rat_str,
    report_json,
    scheme_json,
)

TWO_USER = ChannelMatrix.from_rows(2, 1, [[1, 1], [1, -1]])


def test_rational_strings():
    assert rat_str(Q(3, 2)) == "3/2"
    assert rat_str(Q(-4)) == "-4"
    assert parse_rat("3/2") == Q(3, 2)
    assert parse_rat("-7") == -7
    assert parse_rat(5) == 5
    assert parse_rat("0.25") == Q(1, 4)  # decimal literals are exact
    for bad in ("3/2/1", "x", None, [1]):
        with pytest.raises(InputError):
            parse_rat(bad)


def test_parse_rat_refuses_booleans():
    for bad in (True, False):
        with pytest.raises(InputError):
            parse_rat(bad)
    with pytest.raises(InputError):
        parse_matrix(json.loads("[[1, true], [0, 1]]"))


def test_matrix_roundtrip():
    A = RatMatrix.from_rows([[Q(1, 2), 3], [0, Q(-5, 7)]])
    assert parse_matrix(matrix_rows(A)) == A
    with pytest.raises(InputError):
        parse_matrix([["1", "2"], ["3"]])
    with pytest.raises(InputError):
        parse_matrix([])
    with pytest.raises(InputError):  # not the rows [1, 2] and [3, 4]
        parse_matrix(["12", "34"])


def test_channel_roundtrip():
    H, _ = ex1()
    obj = channel_json(H)
    assert obj["K"] == 3 and obj["M"] == 2
    assert parse_channel(obj) == H
    assert parse_channel(json.loads(json.dumps(obj))) == H
    for bad in ({}, {"K": 2}, {"K": 2, "M": 1, "blocks": [[]]}):
        with pytest.raises(InputError):
            parse_channel(bad)


def test_complex_channel_parses_to_stacked_real_form():
    obj = {
        "complex": True, "K": 2, "M": 1,
        "blocks": [[[[{"re": "3", "im": "4"}]], [[{"re": "1", "im": "0"}]]],
                   [[[{"re": "0", "im": "1"}]], [[{"re": "2", "im": "-1"}]]]],
    }
    H = parse_channel(obj)
    assert H.M == 2  # real and imaginary parts stacked
    assert H.block(0, 0).to_rows() == [[3, -4], [4, 3]]
    assert mat_det(H.block(0, 0)) == 25  # squared modulus of 3+4i
    assert mat_det(H.block(1, 1)) == 5


def test_scheme_roundtrips():
    subs = SubspaceScheme.from_columns([[(1, 1)], []], ambient_dim=2)
    assert parse_scheme(scheme_json(subs)) == subs   # silent user survives
    mix = MixtureScheme((Q(1, 2), Q(1, 3)))
    assert parse_scheme(scheme_json(mix)) == mix
    ss = SelfSimilarScheme(Q(1, 3), (FiniteDist.uniform([0, 2]),
                                     FiniteDist.uniform([0, 2])))
    assert parse_scheme(scheme_json(ss)) == ss
    with pytest.raises(InputError):
        parse_scheme({"family": "spline"})
    with pytest.raises(InputError):
        parse_scheme({"family": "mixture"})


def test_finite_dist_roundtrip():
    D = FiniteDist.from_pairs([((0, 1), Q(1, 4)), ((2, 3), Q(3, 4))])
    assert parse_finite_dist(finite_dist_json(D)) == D


def test_dimvalue_roundtrips():
    for v in (DimValue.from_rational(Q(7, 3)),
              DimValue.from_estimate(0.123456789, 0.00123),
              DimValue.from_entropy_ratio(1.5, math.log2(3.0))):
        assert parse_dimvalue(dimvalue_json(v)) == v
    # the serialized convenience value is ignored on the way back in:
    # bits and ratio are the exact carriers for entropy-ratio values
    obj = dimvalue_json(DimValue.from_entropy_ratio(1.0, math.log2(3.0)))
    obj["value"] = "0.999"
    assert parse_dimvalue(obj).as_float() == 1.0 / math.log2(3.0)


def test_report_roundtrip_all_methods():
    H, scheme = ex1()
    reports = [dof_eval(H, scheme),
               dof_eval(TWO_USER, MixtureScheme((Q(1, 2), Q(1, 2)))),
               dof_eval(TWO_USER, SelfSimilarScheme(
                   Q(1, 3), (FiniteDist.uniform([0, 2]),) * 2))]
    Hc, sc = cyclic_delay_channel(3, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports.append(estimate_dof(Hc, sc, EstimatorConfig(
            n_samples=5000, k1=2, k2=4, seed=1)))
    for r in reports:
        wire = json.loads(json.dumps(report_json(r)))
        assert parse_report(wire) == r


def test_report_json_shape():
    H, scheme = ex1()
    obj = report_json(dof_eval(H, scheme))
    assert obj["method"] == "rank"
    assert obj["total"] == {"kind": "rational", "value": "3"}
    assert obj["normalized"] == "3/2"
    assert obj["bound"] == "3" and obj["bound_met"] is True
    assert [t["term"]["value"] for t in obj["per_receiver"]] == ["1"] * 3


def test_parse_mimo_pairs():
    cfg = parse_mimo_pairs(
        {"pairs": [{"U": [["1", "1"]], "V": [["3", "-1"]]}]}, M=2)
    U, V = cfg.pairs[0]
    assert U.basis.to_rows() == [[1], [1]]
    assert V.basis.to_rows() == [[3], [-1]]
    with pytest.raises(InputError):
        parse_mimo_pairs({"pairs": [{"U": [["1", "1"]]}]}, M=2)
    with pytest.raises(InputError):
        parse_mimo_pairs({}, M=2)
    with pytest.raises(InputError):  # not the column (1)
        parse_mimo_pairs({"pairs": [{"U": "1", "V": [["1"]]}]}, M=1)
