"""Checks on the library source itself."""

import ast
import pathlib

import dofkit

SRC = pathlib.Path(dofkit.__file__).parent


def test_library_has_no_assert_statements():
    # invariants must raise real errors: python -O strips assert statements
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements in src/dofkit: %s" % found


def test_only_linalg_reads_numerators_and_denominators():
    # one module decides how rationals become integers over a common
    # denominator (linalg._over_lcm and linalg._lattice); the rest use it
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr in ("numerator", "denominator")
    ]
    assert not found, "numerator/denominator outside linalg.py: %s" % found


def test_only_dimension_reads_the_convolve_cap():
    # one module decides how large a finite sum may be: convolve_linear
    # caps each fold step and _check_power a builder's power of points;
    # the rest call those
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py")) if path.name != "dimension.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Name) and node.id == "CONVOLVE_CAP")
        or (isinstance(node, ast.Attribute) and node.attr == "CONVOLVE_CAP")
        or (isinstance(node, ast.alias) and node.name == "CONVOLVE_CAP")
    ]
    assert not found, "CONVOLVE_CAP outside dimension.py: %s" % found


def test_only_linalg_reads_the_cached_integer_form():
    # RatMatrix.int_form is the exact kernels' view of a matrix; other
    # modules compute through those kernels (or _over_lcm, _lattice)
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "int_form")
        or (isinstance(node, ast.Constant) and node.value == "int_form")
    ]
    assert not found, "int_form outside linalg.py: %s" % found


def test_only_linalg_builds_matrices_positionally():
    # RatMatrix(rows, cols, entries) and RatMatrix._from_ints take entries
    # in row-major order; other modules build through from_rows,
    # from_columns and from_blocks, so that layout is decided in linalg.py
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "RatMatrix")
        or (isinstance(node, ast.Attribute) and node.attr == "_from_ints")
    ]
    assert not found, "positional RatMatrix built outside linalg.py: %s" % found


def test_library_draws_no_indices_with_choice():
    # the self-similar draw finds its indices on the cdf cuts itself,
    # bit-identical to Generator.choice; one index rule, no choice beside it
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "choice"
    ]
    assert not found, ".choice( calls in src/dofkit: %s" % found


def test_estimator_quantizes_in_one_routine():
    # one quantization rule: np.floor and np.ldexp appear only inside the
    # key routine _cell_keys; and one output array per sampled user, filled
    # batch by batch: no np.concatenate
    path = SRC / "estimator.py"
    tree = ast.parse(path.read_text(), str(path))
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_cell_keys"
              for node in ast.walk(fn)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "np"
            and node.attr in ("floor", "ldexp", "concatenate")]
    found = ["estimator.py:%d np.%s" % (node.lineno, node.attr)
             for node in uses
             if node.attr == "concatenate" or id(node) not in inside]
    assert not found, "quantization or concatenation outside _cell_keys: %s" \
        % found
    assert {node.attr for node in uses} == {"floor", "ldexp"}


def test_only_subspace_scheme_refuses_dependent_directions():
    # one place decides what a valid direction set is: the scheme, which
    # checks its own columns when it is built
    def raised(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "RankDeficientDirections"

    found, inside = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef)
                   and cls.name == "SubspaceScheme"
                   for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc and raised(node):
                if id(node) in allowed:
                    inside += 1
                else:
                    found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "RankDeficientDirections outside SubspaceScheme: %s" % found
    assert inside, "SubspaceScheme no longer refuses dependent directions"
