"""Immutable value classes without `dataclasses`.

Importing `dataclasses` brings in `inspect` (with `ast`, `dis` and
`tokenize`), and each `@dataclass` compiles its generated methods when its
class is defined: a cost every phekit process would pay at import. A
:class:`Frozen` subclass names its fields in `__slots__` and sets them once,
from `__init__`, with `_set`.
"""

from __future__ import annotations

from typing import Any


class Frozen:
    """A value whose fields cannot be assigned or deleted once set.

    It compares, hashes and prints as the fields its subclass names in
    `_compared`. `replace` returns a copy with some fields changed, built by
    the constructor, as `dataclasses.replace` does.
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
        return hash(tuple(getattr(self, name) for name in self._compared))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"
