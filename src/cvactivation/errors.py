"""Exception types shared across the package."""


class TruncationError(RuntimeError):
    """The Fock-space cutoff cannot support the requested object to tolerance."""


class InvariantError(RuntimeError):
    """An internal cross-check failed; the result cannot be trusted."""


class ConfigError(ValueError):
    """Invalid experiment configuration."""
