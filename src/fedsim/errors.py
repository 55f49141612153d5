"""Exception types shared across the package."""


class FedsimError(Exception):
    """Base class for every error raised by fedsim."""


class ConfigError(FedsimError):
    """Invalid configuration value or malformed config file."""


class ShapeError(FedsimError):
    """Operands have incompatible shapes."""


class DataError(FedsimError):
    """Dataset violates a structural requirement (label range, emptiness)."""


class NumericError(FedsimError):
    """Non-finite values where finite ones are required."""


class FormatError(FedsimError):
    """Malformed input file (IDX or LIBSVM text)."""


class PartitionError(FedsimError):
    """Partitioning is infeasible for the requested configuration."""


class ProtocolError(FedsimError):
    """A federated round received inconsistent or missing updates."""


class ReportError(FedsimError):
    """Results are missing or unusable for report generation."""


class OutputError(FedsimError):
    """An output directory or file cannot be made or written."""
