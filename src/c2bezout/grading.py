"""Degree arithmetic for the two grading lattices.

RO(C2) degrees are written a + b*sigma.  The extended grading lattice is
recorded as a triple of ranks (total, fixed0, fixed1): the underlying
nonequivariant rank and the ranks of the fixed parts over the two
components of the fixed set.  The two fixed ranks always share a parity,
and the triple determines the degree.
"""

from __future__ import annotations

from operator import itemgetter


class GradingError(ValueError):
    pass


def _order(symbol, op):
    """op on two records of one class declared with order=True; a
    TypeError for any other pair, so that tuple's own order never
    compares a record with a plain tuple or a record of another class."""
    def method(self, other):
        if self._ordered and other.__class__ is self.__class__:
            return op(self, other)
        raise TypeError(f"'{symbol}' not supported between instances of "
                        f"'{type(self).__name__}' and '{type(other).__name__}'")
    return method


class FrozenRecord(tuple):
    """Base of the package's immutable value records: each record is the
    tuple of its fields.

    A subclass lists its fields in ``_fields``, in constructor order, and
    declares ``__slots__ = ()``; each field gets a read-only accessor.
    The constructor takes the fields by position or keyword; a class that
    validates, sorts or takes defaults defines its own ``__new__``, which
    ends in ``tuple.__new__(cls, fields)``.  Hashing is the tuple's.
    Equality is the tuple's between two records of one class, and a record
    equals nothing else, not even the plain tuple of its fields.  A class
    declared with ``order=True`` orders as the tuple against records of
    its own class; any other order comparison raises ``TypeError``.  The
    repr is ``Name(field=value, ...)``, and pickling and copying rebuild
    the record from its fields."""

    __slots__ = ()
    _fields = ()
    _ordered = False

    def __init_subclass__(cls, order: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._ordered = order
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *args, **kwargs):
        if kwargs:
            args += tuple(kwargs.pop(f) for f in cls._fields[len(args):] if f in kwargs)
        if kwargs or len(args) != len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(cls._fields)}")
        return tuple.__new__(cls, args)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    __lt__, __le__, __gt__, __ge__ = (
        _order(s, op) for s, op in (("<", tuple.__lt__), ("<=", tuple.__le__),
                                    (">", tuple.__gt__), (">=", tuple.__ge__)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)


class ROC2Degree(FrozenRecord):
    """a + b*sigma with integer a (trivial rank) and b (sign rank)."""

    __slots__ = ()
    _fields = ("trivial_rank", "sign_rank")

    def to_pib(self) -> "PiBDegree":
        a, b = self
        return PiBDegree(a + b, a, a)

    def __str__(self) -> str:
        a, b = self.trivial_rank, self.sign_rank
        if b == 0:
            return str(a)
        sig = "sigma" if b == 1 else ("-sigma" if b == -1 else f"{b}sigma")
        if a == 0:
            return sig
        return f"{a}{'+' if b > 0 else ''}{sig}"


class PiBDegree(FrozenRecord):
    """Rank triple (total, fixed0, fixed1); fixed ranks have equal parity."""

    __slots__ = ()
    _fields = ("total_rank", "fixed_rank_0", "fixed_rank_1")

    def __new__(cls, total_rank: int, fixed_rank_0: int, fixed_rank_1: int) -> "PiBDegree":
        self = tuple.__new__(cls, (total_rank, fixed_rank_0, fixed_rank_1))
        if (fixed_rank_0 - fixed_rank_1) % 2 != 0:
            raise GradingError(f"fixed ranks must share parity: {self}")
        return self

    def __add__(self, other: "PiBDegree") -> "PiBDegree":
        t, f0, f1 = self
        u, g0, g1 = other
        return PiBDegree(t + u, f0 + g0, f1 + g1)

    def __sub__(self, other: "PiBDegree") -> "PiBDegree":
        return self + (-other)

    def __neg__(self) -> "PiBDegree":
        t, f0, f1 = self
        return PiBDegree(-t, -f0, -f1)

    def __mul__(self, n: int) -> "PiBDegree":
        t, f0, f1 = self
        return PiBDegree(n * t, n * f0, n * f1)

    __rmul__ = __mul__

    def is_roc2(self) -> bool:
        """True iff the degree is pulled back from RO(C2)."""
        return self.fixed_rank_0 == self.fixed_rank_1

    def to_roc2(self) -> ROC2Degree:
        # a + b*sigma has triple (a+b, a, a), so a = fixed rank and
        # b = total - fixed.
        if not self.is_roc2():
            raise GradingError(f"{self} is not an RO(C2) degree")
        a = self.fixed_rank_0
        return ROC2Degree(a, self.total_rank - a)

    def __str__(self) -> str:
        return f"({self.total_rank},{self.fixed_rank_0},{self.fixed_rank_1})"


SIGMA = PiBDegree(1, 0, 0)
OMEGA = PiBDegree(2, 2, 0)       # omega = 2 + Omega1
CHI_OMEGA = PiBDegree(2, 0, 2)   # chi omega = 2 + Omega0
OMEGA0 = PiBDegree(0, -2, 0)     # 2sigma-2 on the first fixed component
OMEGA1 = PiBDegree(0, 0, -2)
TWO = PiBDegree(2, 2, 2)

# Degrees of the ring generators.
DEG_ZETA0 = CHI_OMEGA - TWO      # = OMEGA0
DEG_ZETA1 = OMEGA - TWO          # = OMEGA1
DEG_CW = OMEGA
DEG_CXW = CHI_OMEGA
DEG_E = SIGMA
