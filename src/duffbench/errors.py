"""The two kinds of failure a run can end in.

Every error the package raises on purpose subclasses exactly one of
these. `ConfigError` is a request that cannot be carried out as given
(the CLI exits 2); `NumericFailure` is a computation that went
non-finite or lost definiteness (the CLI exits 3 and keeps the partial
artifacts). Anything else is a bug and ends in a traceback.
"""


class ConfigError(ValueError):
    """A config value, spec or argument that cannot be used as given."""


class NumericFailure(ArithmeticError):
    """A computation diverged, went non-finite or lost definiteness."""
