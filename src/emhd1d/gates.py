"""One pass/fail row per gate of a harness: its value against its bound."""

from typing import NamedTuple


class Gate(NamedTuple):
    name: str
    value: float
    bound: float
    passed: bool


def at_most(name: str, value: float, bound: float) -> Gate:
    """The gate value <= bound, which a NaN value fails."""
    return Gate(name, value, bound, bool(value <= bound))


def at_least(name: str, value: float, bound: float) -> Gate:
    """The gate value >= bound, which a NaN value fails."""
    return Gate(name, value, bound, bool(value >= bound))
