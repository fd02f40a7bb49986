"""Exception taxonomy shared across the toolkit.

The CLI maps these onto exit codes: configuration problems exit 2, data
problems exit 3, a training run that diverges exits 4.
"""


class ShapeError(ValueError):
    """Tensor dimensions disagree with an operation's contract."""


class ArgumentError(ValueError):
    """An argument value lies outside an operation's domain."""


class ReceptiveFieldError(ShapeError):
    """Convolution input is shorter than the kernel's receptive field."""


class ConfigError(Exception):
    """Invalid or inconsistent run/model configuration."""


class DataError(Exception):
    """Unusable input data (missing cells, NaN, empty files)."""


class FormatError(DataError):
    """Malformed binary checkpoint or report file."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""
