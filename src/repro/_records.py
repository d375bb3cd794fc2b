"""One generated constructor for the hot frozen records.

A frozen dataclass's own ``__init__`` stores each field through
``object.__setattr__``, one call a field, because the class's
``__setattr__`` refuses assignment.  That is most of the cost of a
record built once per served request or per Phase-2 unit.
:func:`dict_init` replaces it with an ``__init__`` generated from
:func:`dataclasses.fields` that fills the instance dict in one
``update``, so it cannot drift from the field list.
"""

from __future__ import annotations

import dataclasses
from typing import TypeVar

__all__ = ["dict_init"]

T = TypeVar("T", bound=type)


def dict_init(cls: T) -> T:
    """Give the frozen dataclass ``cls`` a one-step ``__init__``.

    The generated ``__init__`` has the signature the dataclass generated
    -- the same parameters, defaults and annotations -- and stores every
    field into the instance dict with one ``update``.  Equality,
    hashing, ``repr``, :func:`dataclasses.replace`, pickling and the
    frozen ``__setattr__`` stay the dataclass's own.

    Raises ``TypeError`` for a class the plain body could not honour:
    one that is not a frozen dataclass, has no instance dict
    (``slots=True``), or has a ``__post_init__``, a ``default_factory``,
    an ``init=False`` field or a keyword-only field.
    """
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen:
        raise TypeError(f"{cls.__qualname__} is not a frozen dataclass")
    if "__slots__" in cls.__dict__:
        raise TypeError(f"{cls.__qualname__} has no instance dict")
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__qualname__} has a __post_init__")
    fields = dataclasses.fields(cls)
    for f in fields:
        if f.default_factory is not dataclasses.MISSING:
            raise TypeError(f"{cls.__qualname__}.{f.name} has a default_factory")
        if not f.init or f.kw_only:
            raise TypeError(f"{cls.__qualname__}.{f.name} is not a positional init field")
    names = [f.name for f in fields]
    namespace: dict = {}
    exec(
        f"def __init__(self, {', '.join(names)}):\n"
        f"    self.__dict__.update({', '.join(f'{n}={n}' for n in names)})\n",
        namespace,
    )
    init = namespace["__init__"]
    init.__defaults__ = (
        tuple(f.default for f in fields if f.default is not dataclasses.MISSING)
        or None
    )
    init.__annotations__ = {**{f.name: f.type for f in fields}, "return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls
