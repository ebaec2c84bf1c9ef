"""Base class of the package's immutable result and value records.

A record's `__init__` validates its arguments and then stores every field
with one `self.__dict__.update(...)`, in declaration order, so
`vars(record)` maps field names to values.  Equality compares the fields of
two records of the same class, the hash is that of the field values in
order, and assignment and deletion raise AttributeError: the behaviour of a
frozen dataclass.  Written out by hand because `dataclasses` would import
`inspect` and generate code for every class each time the package loads.
"""


class Record:
    def _values(self) -> tuple:
        return tuple(self.__dict__.values())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"
