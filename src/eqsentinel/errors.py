"""Shared exception types."""


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
