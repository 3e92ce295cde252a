"""Exception types shared across the library and mapped to CLI exit codes."""


class ConfigError(ValueError):
    """Invalid configuration: unknown keys, malformed model specs, bad names."""


class NumericalIntegrityError(RuntimeError):
    """A numerical guarantee was violated (Hermiticity, probability bounds, ...)."""


class ResourceError(RuntimeError):
    """A computation would exceed a configured size limit: a dense matrix, S^z sectors or trace records."""
