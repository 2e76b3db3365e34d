"""Exact workbench for exponent-pair zero-density bounds.

Subpackages: exact rational substrate (``exact``), exponent-pair
generation (``pairs``), density curves and audits (``density``), the
exact hull and line-envelope geometry of the optimizer (``hull``),
tau-table arithmetic checks (``hecke``), floating-point desk probes
(``probes``), and the ``zdx`` command line (``cli``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

__version__ = "0.1.0"

#: Default pair-generation depth and tau-table size of the CLI; kept here
#: so that it can show them without importing ``zdx.pairs`` or ``zdx.hecke``.
DEFAULT_DEPTH = 12
DEFAULT_LIMIT = 10_000


def dec_str(q) -> str:
    """Decimal rendering of a Fraction (or int) with 20 significant digits
    (deterministic).  Kept here, with its imports inside, so
    ``hecke-verify`` need not load ``zdx.exact``."""
    from decimal import Decimal, localcontext
    from fractions import Fraction

    if type(q) is not Fraction:
        q = Fraction(q)
    with localcontext() as ctx:
        ctx.prec = 20
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d)


#: Most digits ``rat`` accepts in a numerator or denominator read from text:
#: Python's own limit on an int read from a string, here for every notation.
_TEXT_DIGITS = 4300


def rat(x: Fraction | int | str) -> Fraction:
    """Parse an exact rational from "p/q", integer, or decimal text.

    Text whose value needs more than ``_TEXT_DIGITS`` digits raises
    ValueError; the exponent is checked first, as "1e999999999" would
    otherwise build 10**999999999 before anything could look at it.  Kept
    here, like ``dec_str``, so ``zdx.pairs`` and the CLI's rational options
    need not load ``zdx.exact``.
    """
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    text = str(x).strip()
    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > _TEXT_DIGITS:
        raise ValueError(f"the exponent of {text!r} exceeds {_TEXT_DIGITS}")
    q = Fraction(text)
    if max(abs(q.numerator), q.denominator) >= 10**_TEXT_DIGITS:
        raise ValueError(f"{text!r} needs more than {_TEXT_DIGITS} digits")
    return q


_set = object.__setattr__


class Record:
    """Base of zdx's immutable records: what ``@dataclass(frozen=True)`` made
    of them, without generating code.

    A subclass's annotations, its own after its bases', are its fields in
    order, and a value assigned to one in the class body is its default.
    They are read once, when the subclass is created; ``__match_args__``
    holds the names.  Instances take the fields positionally or by name,
    then run ``__post_init__``, which may set a field with
    ``object.__setattr__``.  Equality is by the field tuple, within one
    class only, and ``__hash__`` hashes that tuple, as the dataclass did;
    ``__repr__`` is the dataclass's.  Assignment and deletion raise
    ``dataclasses.FrozenInstanceError``, imported only then, so that no
    import of a record's module loads ``dataclasses``.  Instances keep a
    ``__dict__``, as ``functools.cached_property`` needs.
    """

    __match_args__: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _tail: tuple = ()  # the defaults of the last fields, which all have one
    _key = staticmethod(lambda record: ())  # the field tuple of a record

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        names = tuple(dict.fromkeys(cls.__match_args__ + tuple(own)))
        defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        for before, name in zip(names, names[1:]):
            if before in defaults and name not in defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")
        cls.__match_args__, cls._defaults = names, defaults
        cls._tail = tuple(defaults[n] for n in names if n in defaults)
        if len(names) > 1:
            cls._key = staticmethod(attrgetter(*names))
        elif names:
            cls._key = staticmethod(lambda record, get=attrgetter(*names): (get(record),))

    def __init__(self, *args, **kwargs) -> None:
        names, tail = self.__match_args__, self._tail
        if kwargs or not len(names) - len(tail) <= len(args) <= len(names):
            args = self._bind(args, kwargs)
        elif len(args) < len(names):
            args += tail[len(args) - len(names):]
        # one attribute at a time, not through __dict__, which reading would make slower
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, from arguments that are not all positional."""
        names, name = cls.__match_args__, cls.__qualname__
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(names, args))
        for key, value in kwargs.items():
            if key not in names:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [n for n in names if n not in values and n not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [values[n] if n in values else cls._defaults[n] for n in names]

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Inadmissible(ValueError):
    """Input outside what the library supports: a pair, region, interval,
    size or probe parameter it rejects.  The ``zdx`` CLI exits 3 on it."""
