"""Degree arithmetic for the two grading lattices.

RO(C2) degrees are written a + b*sigma.  The extended grading lattice is
recorded as a triple of ranks (total, fixed0, fixed1): the underlying
nonequivariant rank and the ranks of the fixed parts over the two
components of the fixed set.  The two fixed ranks always share a parity,
and the triple determines the degree.
"""

from __future__ import annotations

from operator import attrgetter, eq, ge, gt, le, lt


class GradingError(ValueError):
    pass


_set = object.__setattr__


def _compare(op):
    """op on the field tuples of two records of one class."""
    def method(self, other):
        if other.__class__ is self.__class__:
            return op(self._key(self), other._key(other))
        return NotImplemented
    return method


_ORDER = tuple(_compare(op) for op in (lt, le, gt, ge))


class FrozenRecord:
    """Base of the package's immutable value records.

    A subclass lists its fields in ``__slots__``, in constructor order,
    and sets them in its own ``__init__`` through ``object.__setattr__``.
    Everything else is derived once per class from ``__slots__``, as on a
    frozen dataclass: equality and hashing on the tuple of fields, which
    the class's ``_key`` reads (a record equals only a record of its own
    class), the order methods on the same tuple for a class declared
    with ``order=True``, the repr
    ``Name(field=value, ...)``, and pickling and copying through the
    constructor.  Assignment and deletion raise ``AttributeError``."""

    __slots__ = ()

    def __init_subclass__(cls, order: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__slots__)
        if order:
            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = _ORDER

    __eq__ = _compare(eq)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class ROC2Degree(FrozenRecord):
    """a + b*sigma with integer a (trivial rank) and b (sign rank)."""

    __slots__ = ("trivial_rank", "sign_rank")

    def __init__(self, trivial_rank: int, sign_rank: int) -> None:
        _set(self, "trivial_rank", trivial_rank)
        _set(self, "sign_rank", sign_rank)

    def to_pib(self) -> "PiBDegree":
        a, b = self.trivial_rank, self.sign_rank
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

    __slots__ = ("total_rank", "fixed_rank_0", "fixed_rank_1")

    def __init__(self, total_rank: int, fixed_rank_0: int, fixed_rank_1: int) -> None:
        _set(self, "total_rank", total_rank)
        _set(self, "fixed_rank_0", fixed_rank_0)
        _set(self, "fixed_rank_1", fixed_rank_1)
        if (fixed_rank_0 - fixed_rank_1) % 2 != 0:
            raise GradingError(f"fixed ranks must share parity: {self}")

    def __add__(self, other: "PiBDegree") -> "PiBDegree":
        return PiBDegree(
            self.total_rank + other.total_rank,
            self.fixed_rank_0 + other.fixed_rank_0,
            self.fixed_rank_1 + other.fixed_rank_1,
        )

    def __sub__(self, other: "PiBDegree") -> "PiBDegree":
        return self + (-other)

    def __neg__(self) -> "PiBDegree":
        return PiBDegree(-self.total_rank, -self.fixed_rank_0, -self.fixed_rank_1)

    def __mul__(self, n: int) -> "PiBDegree":
        return PiBDegree(n * self.total_rank, n * self.fixed_rank_0, n * self.fixed_rank_1)

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

    def as_list(self) -> list[int]:
        return [self.total_rank, self.fixed_rank_0, self.fixed_rank_1]

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
