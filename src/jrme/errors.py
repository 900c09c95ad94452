"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1 (usage),
DataError and I/O failures -> 2, TrainingDivergedError -> 3.
"""


class JrmeError(Exception):
    """Base class for all package errors."""


class ConfigError(JrmeError):
    """Invalid configuration value or unusable flag combination."""


class DataError(JrmeError):
    """Problem with input data (files, splits, model payloads)."""


class ParseError(DataError):
    """Malformed belief file line; the message starts with `path:line:`."""


class FormatError(DataError):
    """Corrupt or foreign model file."""


class TrainingDivergedError(JrmeError):
    """Training produced a non-finite value or grew past the divergence limit."""
