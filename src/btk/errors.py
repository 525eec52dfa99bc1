"""Exception types shared across the toolkit, and the checks on JSON input."""

import json


class BtkError(Exception):
    """Base of every btk error; the CLI prints one line for it and exits 2."""


class DomainError(BtkError, ValueError):
    """An argument lies outside its mathematical domain (e.g. a point not in the open disk)."""


class ParameterError(BtkError, ValueError):
    """A tuning parameter violates its admissible range (e.g. delta outside (0, m_tau))."""


def _all_of(value, kinds) -> bool:
    """True when value, or every entry of a nested list value, is of kinds (bools are not)."""
    if isinstance(value, list):
        return all(_all_of(v, kinds) for v in value)
    return isinstance(value, kinds) and not isinstance(value, bool)


def require_keys(data, what: str, *keys: str, numbers=(), integers=()) -> None:
    """ParameterError unless data is a JSON object that holds every key of keys.

    Each key of numbers (of integers) that data holds must map to a number
    (an integer) or a nested list of them; the error names every bad key.
    """
    if not isinstance(data, dict):
        raise ParameterError(f"{what} JSON must be an object, not {type(data).__name__}")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ParameterError(f"{what} JSON lacks {', '.join(map(repr, missing))}")
    for kinds, names, noun in (((int, float), numbers, "numbers"), (int, integers, "integers")):
        bad = [k for k in names if k in data and not _all_of(data[k], kinds)]
        if bad:
            raise ParameterError(f"{what} JSON needs {noun} at {', '.join(map(repr, bad))}")


def load_json(path: str):
    """The JSON value in the file at path; ParameterError naming the file and
    the position when it is not valid JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(
                f"{path} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
            ) from None


class ResourceError(BtkError, RuntimeError):
    """A computation would exceed a configured resource cap (e.g. lattice point budget)."""


class TruncationError(BtkError, RuntimeError):
    """A series truncation is inadequate for the requested evaluation point."""


class ConvergenceError(BtkError, RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


class PSDViolationError(BtkError, RuntimeError):
    """A matrix that must be positive semidefinite has a significantly negative eigenvalue."""
