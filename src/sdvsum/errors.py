"""Exception taxonomy, grouped by how the CLI reports failures.

Usage and configuration problems map to exit code 1, malformed data files
to exit code 2, and numeric failures during training to exit code 3.
"""


class UsageError(ValueError):
    """Bad command-line invocation."""


class ConfigError(ValueError):
    """Bad run configuration: unknown key, malformed value, inconsistent settings."""


class DataFormatError(ValueError):
    """Base class for malformed data files (SDVE/SDVC containers, manifests)."""


class BadMagicError(DataFormatError):
    """File does not start with the expected magic bytes."""


class TruncatedPayloadError(DataFormatError):
    """File ends before the header-declared payload is complete."""


class TrailingBytesError(DataFormatError):
    """File continues past the header-declared payload."""


class DimensionOverflowError(DataFormatError):
    """Declared matrix dimensions exceed what the container supports."""


class VersionMismatchError(DataFormatError):
    """Container version is not the supported one."""


class NonFiniteValueError(DataFormatError):
    """Container payload holds NaN or infinity."""


class TensorNameError(DataFormatError):
    """Checkpoint tensor names do not match the configured model."""


class TensorShapeError(DataFormatError):
    """Checkpoint tensor shape does not match the configured model."""


class ConfigMismatchError(DataFormatError):
    """Checkpoint was written under a different model configuration."""


class ManifestError(DataFormatError):
    """Dataset manifest is malformed or references bad files."""


class LabelError(DataFormatError):
    """Ground-truth labels violate their mode's value constraints."""


class NumericError(RuntimeError):
    """Non-finite value where a finite one is required (e.g. training loss)."""
