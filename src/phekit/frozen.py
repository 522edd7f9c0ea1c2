"""Immutable value classes without `dataclasses`, and integers as text.

Importing `dataclasses` brings in `inspect` (with `ast`, `dis` and
`tokenize`), and each `@dataclass` compiles its generated methods when its
class is defined: a cost every phekit process would pay at import. A
:class:`Frozen` subclass names its fields in `__slots__` and sets them once,
from `__init__`, with `_set`.

This module also decides how every integer becomes text, whatever the
interpreter's int/str digit limit: `to_decimal` and `from_decimal` write and
read decimal digits in full, for documents, reprs and the command line, and
`int_shown` names an integer in a message.
"""

from __future__ import annotations

from typing import Any, Callable


def _via_decimal(convert: Callable[[Any], Any], value: Any) -> Any:
    """convert(value), whatever the interpreter's int/str digit limit: past
    it, convert(Decimal(value)), through the C `decimal` module, which has no
    such limit and is imported only then."""
    try:
        return convert(value)
    except ValueError:
        from decimal import Decimal

        return convert(Decimal(value))


def to_decimal(value: int) -> str:
    """str(value), whatever the interpreter's int/str digit limit."""
    return _via_decimal(str, value)


def from_decimal(text: str) -> int:
    """int(text) for a string of ASCII digits, whatever the interpreter's
    int/str digit limit. The caller checks the digits and bounds their
    count."""
    return _via_decimal(int, text)


def int_shown(value: int) -> str:
    """value in decimal up to 2048 bits (617 digits, inside the smallest
    int/str digit limit, 640), past that its bit length: a message that
    names an integer reads the same under every limit."""
    bits = value.bit_length()
    return str(value) if bits <= 2048 else f"a {bits}-bit integer"


class _Digits(str):
    """An integer's decimal text, which reprs as the integer does: unquoted."""

    __repr__ = str.__str__


def _shown(value: Any) -> Any:
    """value with every int in it, also inside a tuple, list or dict, as its
    `to_decimal` text: the repr of the result is value's repr."""
    if type(value) is int:
        return _Digits(to_decimal(value))
    if type(value) is dict:
        return {key: _shown(item) for key, item in value.items()}
    return type(value)(map(_shown, value)) if type(value) in (tuple, list) else value


class Frozen:
    """A value whose fields cannot be assigned or deleted once set.

    It compares, hashes and prints as the fields its subclass names in
    `_compared`: a list field hashes as a tuple, and the repr writes its
    integers whatever the int/str digit limit. `replace` returns a copy
    with some fields changed, built by the constructor, as
    `dataclasses.replace` does.
    """

    __slots__ = ()

    def _set(self, *values: Any) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def replace(self, **changes: Any) -> Any:
        return type(self)(**{name: getattr(self, name) for name in self.__slots__} | changes)

    def __reduce__(self) -> tuple:
        # copy and pickle through the constructor, which takes the fields in
        # `__slots__` order: setting them one by one would raise
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in self._compared)

    def __hash__(self) -> int:
        values = (getattr(self, name) for name in self._compared)
        return hash(tuple(tuple(v) if type(v) is list else v for v in values))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_shown(getattr(self, name))!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"
