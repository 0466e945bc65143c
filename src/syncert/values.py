"""The rejection of a network-description value, the number rules its
fields share, and the read-only marking of stored arrays.  An owner names
the pointer of its field (``/knots/0``); the parser places it in the
owner's block (``/couplings/3/knots/0``)."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ConfigError", "to_float", "finite", "positive", "integer", "read_only"]


class ConfigError(ValueError):
    """Configuration rejection; ``pointer`` locates the offending value."""

    def __init__(self, pointer: str, message: str) -> None:
        self.pointer = pointer or "/"
        self.message = message
        super().__init__(f"{self.pointer}: {message}")


def to_float(value, pointer: str) -> float:
    """``value``, an int or a float but not a bool, as a float; an int
    beyond the float range is an infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                          np.floating)):
        raise ConfigError(pointer, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def finite(value, pointer: str) -> float:
    out = to_float(value, pointer)
    if not math.isfinite(out):
        raise ConfigError(pointer, f"expected a finite number, got {value!r}")
    return out


def positive(value, pointer: str) -> float:
    out = finite(value, pointer)
    if out <= 0.0:
        raise ConfigError(pointer, f"must be positive, got {value!r}")
    return out


def integer(value, pointer: str):
    """``value``, checked to be an int, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(pointer, f"expected an integer, got {value!r}")
    return value


def read_only(values: np.ndarray) -> np.ndarray:
    """``values``, marked read-only."""
    values.flags.writeable = False
    return values
