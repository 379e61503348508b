"""Exception taxonomy: one class per line the CLI prints on failure.

``UsageError`` (``error:``) and ``ConfigError`` (``configuration error:``)
exit 1; ``DataFormatError`` (``data error:``, as any ``OSError``) exits 2;
``NumericError`` (``numeric failure:``) exits 3; Python's own ``MemoryError``
(``out of memory:``) exits 4. No subclasses: each message names its fault.
"""


class UsageError(ValueError):
    """Bad command-line invocation."""


class ConfigError(ValueError):
    """Bad run configuration: unknown key, malformed value, inconsistent settings."""


class DataFormatError(ValueError):
    """Malformed data: an SDVC file, a manifest, labels, or a checkpoint of another shape."""


class NumericError(RuntimeError):
    """Non-finite value where a finite one is required (e.g. training loss)."""
