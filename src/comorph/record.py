"""Immutable slotted records, defined without generating code at import."""

_set = object.__setattr__


class Record:
    """Fields are the ``__slots__``, in order; a subclass's ``__init__`` names, defaults
    and checks them, then passes them here. Equal to a record of its own class with equal
    fields, hashed and pickled as the tuple of its fields, shown as ``Name(field=value, ...)``."""

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return (self.__class__, self._values())

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
