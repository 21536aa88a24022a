"""Exception types shared across the package."""


class DcqError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(DcqError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(DcqError, RuntimeError):
    """An operation was called outside its documented contract."""


class NumericError(DcqError, ArithmeticError):
    """A computation produced or encountered a non-finite value."""


class ConfigError(DcqError, ValueError):
    """A configuration value is invalid or inconsistent."""


class CheckpointError(DcqError, RuntimeError):
    """A checkpoint file could not be read or written."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint was written by an incompatible format version."""


class CheckpointIntegrityError(CheckpointError):
    """Checkpoint is truncated, fails its checksum or does not parse."""


class TrainingDiverged(NumericError):
    """Training aborted on a non-finite loss."""


class UsageError(DcqError):
    """Bad command line invocation."""
