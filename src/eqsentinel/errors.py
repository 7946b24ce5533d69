"""Shared exception types, and the one probability-vector check."""

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


class ConfigError(ValueError):
    """An experiment configuration is malformed."""


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
