"""Exception and warning types shared across the package."""


class LameditError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LameditError):
    """Invalid configuration value or malformed config file."""


class ShapeError(LameditError):
    """Array dimensions inconsistent with the model or with each other."""


class ContainerError(ShapeError):
    """A ``.lam`` file that is not a well-formed container of the expected kind.

    Covers a bad magic, an unsupported version or dtype, a truncated file and
    array entries whose byte counts do not match their shapes.
    """


class InvalidRequestError(LameditError):
    """An edit request references a token or fact that does not exist."""


class RankRatioError(ConfigError):
    """Rank ratio too small: the retained rank floor(r * d) must be >= 1."""


class IllConditionedError(LameditError):
    """Linear system too close to singular to solve reliably.

    Carries the estimated condition number of the offending system.
    """

    def __init__(self, message, condition_estimate=float("inf")):
        super().__init__(message)
        self.condition_estimate = float(condition_estimate)


class FitError(LameditError):
    """Initial model fit missed the recall floor.

    ``diagnostics`` records per-pass recall so a failed fit can be inspected.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class EmptyNullSpaceWarning(UserWarning):
    """alphaedit's preserved null space is empty on some edit layers.

    The projector there is zero, so every edit of those layers is exactly zero.
    """
