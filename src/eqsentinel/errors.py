"""Shared exception types, the one probability-vector check and the one
reader of the versioned text formats."""

import numpy as np

#: Tolerance on the sum of a strategy, policy row or mixture weight vector.
PROB_TOL = 1e-12


class ShapeError(ValueError):
    """Array shapes or index ranges are inconsistent with the game."""


class DomainError(ValueError):
    """A scalar parameter lies outside its documented domain."""


class StateError(RuntimeError):
    """An operation was applied to a state machine in the wrong phase."""


class CapacityError(ValueError):
    """Input exceeds a documented size limit."""


class ErgodicityError(RuntimeError):
    """The chain has no unique reachable stationary distribution."""


class ConfigError(DomainError):
    """A config file or a library config object holds a malformed value."""


def check_distribution(p, what: str, tol: float, positive: bool = False) -> np.ndarray:
    """``p`` as a float array; ``ShapeError`` if it is empty, ``DomainError``
    unless every entry is nonnegative (positive when asked) and each vector
    along the last axis sums to 1 within ``tol``. NaN fails both tests, -inf
    the first, +inf the sum."""
    p = np.asarray(p, dtype=float)
    if p.size == 0:
        raise ShapeError(f"{what} must not be empty")
    low = p.min()
    if not (low > 0.0 if positive else low >= 0.0):
        raise DomainError(f"{what} must be {'positive' if positive else 'nonnegative'}")
    if not np.max(np.abs(p.sum(axis=-1) - 1.0)) <= tol:
        raise DomainError(f"{what} must sum to 1 within {tol}")
    return p


def format_floats(values) -> str:
    """Floats as the text formats write them: ``repr``, space-separated."""
    return " ".join(repr(float(v)) for v in values)


class LineReader:
    """Positional reader for the package's versioned text formats.

    Reads the non-blank lines after one of ``headers`` in order, one
    ``key v1 v2 ...`` line per ``read``; ``header`` is the one matched and
    ``lineno`` the number of the line read last. ``DomainError`` for a wrong
    header, a wrong key or a malformed or invalid value; ``ShapeError`` for a
    wrong value count, text that ends early or text past the end. Every
    message names its line and key.
    """

    def __init__(self, text: str, *headers: str):
        lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if not lines or lines[0][1] not in headers:
            where = lines[0][0] if lines else 1
            raise DomainError(f"line {where}: expected header {' or '.join(map(repr, headers))}")
        self.header = lines[0][1]
        self._lines = [(n, ln.split()) for n, ln in lines[1:]]
        self._next = 0

    def read(self, key: str | None, cast=float, count: int | None = 1, valid=None) -> list:
        """The values after ``key`` on the next line (a bare row has no key),
        each cast and checked by ``valid``; ``count=None`` takes any number."""
        what = repr(key) if key else "row"
        if self._next == len(self._lines):
            raise ShapeError(f"text ends before its {what} line")
        lineno, fields = self._lines[self._next]
        self._next += 1
        self.lineno = lineno
        if key is not None:
            if fields[0] != key:
                raise DomainError(f"line {lineno}: expected {what}, got {fields[0]!r}")
            fields = fields[1:]
        try:
            values = [cast(v) for v in fields]
        except ValueError:
            raise DomainError(f"line {lineno}: malformed {what} values") from None
        if count is not None and len(values) != count:
            raise ShapeError(f"line {lineno}: {what} has {len(values)} values, expected {count}")
        for v in values:
            if valid is not None and not valid(v):
                raise DomainError(f"line {lineno}: invalid {what} value {v!r}")
        return values

    def end(self) -> None:
        """``ShapeError`` unless every line has been read."""
        if self._next < len(self._lines):
            raise ShapeError(f"line {self._lines[self._next][0]}: text past the end of the format")
