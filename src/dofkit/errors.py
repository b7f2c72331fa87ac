"""Exception taxonomy, plus the integer-argument check that raises
InputError for the library's entry points.

Two bases matter for the CLI: InputError maps to exit code 2 (the request
itself is malformed), AnalysisError maps to exit code 1 (the request is
well-formed but the analysis refuses or cannot certify).
"""


class DofkitError(Exception):
    pass


class InputError(DofkitError):
    pass


class AnalysisError(DofkitError):
    pass


# -- input/validation -------------------------------------------------------

class NonSquare(InputError):
    pass


class DimMismatch(InputError):
    pass


class RankDeficientDirections(InputError):
    pass


class AlphaOutOfRange(InputError):
    pass


class RatioOutOfRange(InputError):
    pass


class UserCountMismatch(InputError):
    pass


class AmbientDimMismatch(InputError):
    pass


class TooFewPoints(InputError):
    pass


class OddM(InputError):
    pass


class TooFewUsers(InputError):
    pass


class SingularScaling(InputError):
    pass


# -- analysis refusals ------------------------------------------------------

class OpenSetUnverified(AnalysisError):
    pass


class SupportTooLarge(AnalysisError):
    pass


class SingularBlock(AnalysisError):
    pass


class NotParallel(AnalysisError):
    pass


class NotFullyConnected(AnalysisError):
    pass


class NotStandardForm(AnalysisError):
    pass


class BudgetExceeded(AnalysisError):
    pass


class ResolutionTooCoarse(AnalysisError):
    pass


class ConditionViolated(AnalysisError):
    pass


class InvariantViolated(AnalysisError):
    """A result failed an internal consistency check; it is refused rather
    than returned.  Raised explicitly so the check survives python -O."""


def _check_ints(optional: bool = False, **values) -> None:
    """Sample counts, resolutions, depths and dimensions are ints; a bool
    or a float raises InputError.  With optional=True, None (an argument
    left out) passes too."""
    for name, x in values.items():
        if not (optional and x is None) \
                and (isinstance(x, bool) or not isinstance(x, int)):
            raise InputError("%s must be an integer, got %r" % (name, x))
