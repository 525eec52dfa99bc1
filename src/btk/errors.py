"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """An argument lies outside its mathematical domain (e.g. a point not in the open disk)."""


class ParameterError(ValueError):
    """A tuning parameter violates its admissible range (e.g. delta outside (0, m_tau))."""


def require_keys(data: dict, what: str, *keys: str) -> None:
    """ParameterError naming every key of keys that the JSON object data lacks."""
    missing = [k for k in keys if k not in data]
    if missing:
        raise ParameterError(f"{what} JSON lacks {', '.join(map(repr, missing))}")


class ResourceError(RuntimeError):
    """A computation would exceed a configured resource cap (e.g. lattice point budget)."""


class TruncationError(RuntimeError):
    """A series truncation is inadequate for the requested evaluation point."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


class PSDViolationError(RuntimeError):
    """A matrix that must be positive semidefinite has a significantly negative eigenvalue."""
