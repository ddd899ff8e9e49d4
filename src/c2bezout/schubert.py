"""Symbolic Schubert representatives and the Bezout expansion.

Four kinds of geometric terms appear:

* ``FreeOrbit`` -- a doubled nonequivariant subvariety, contributing a
  transfer class.  It carries its target degree explicitly because the
  free piece can be regraded at will.
* ``InvariantChain`` -- an invariant subvariety with up to two levels of
  singular parts cut out by smaller invariant subvarieties; the class is
  a zeta-decorated product of the two Euler-class generators.
* ``BinatePair`` -- the desingularized union of a subvariety and its
  translate, with affine data (i, p_i, q_i) and isotropy defect
  k = i - p_i - q_i; optionally with one more singular level, recorded as
  "zeta0" or "zeta1" according to which fixed index drops.
* ``FixedPoint`` -- a fixed point of one of the two fixed components,
  the terms of the dimension-0 corollary.

An expansion (``BezoutExpansion``) is an immutable, hashable record
whose terms never have numerator 0.  Coefficients are stored as integer
numerators over the fixed denominator 2; an odd numerator is only legal
on a defect-0 binate term, whose class is twice an honest monomial class.
"""

from __future__ import annotations

from math import comb

from . import bundles as bd
from .bundles import BundleInvariants, ContextViolation, beta
from .grading import FrozenRecord, PiBDegree
from .laurent import mono_degree
from .projective import (Ambient, ProjClass, linear_combination, proj_tau,
                         pushed_s_kernel)


class InfeasibleTerm(ValueError):
    pass


class FreeOrbit(FrozenRecord):
    """C2 x (nonequivariant variety of affine dimension affine_dim)."""

    __slots__ = ()
    _fields = ("affine_dim", "target")

    def codim(self, amb: Ambient) -> int:
        return amb.p + amb.q - self.affine_dim

    def validate(self, amb: Ambient) -> None:
        lam = self.codim(amb)
        if not 0 <= lam <= amb.p + amb.q:
            raise InfeasibleTerm(f"free orbit dimension {self.affine_dim} "
                                 f"is out of range for {amb!r}")
        if self.target.total_rank != 2 * lam:
            raise InfeasibleTerm(
                f"free orbit target {self.target} has the wrong total rank")


class InvariantChain(FrozenRecord):
    """[X^{pp,qq}; X^{pp-j,qq} u X^{pp,qq-i}; X^{pp-j,qq-i}]^*.

    i = 0 or j = 0 degenerate to a single singular level, i = j = 0 to
    the plain invariant subvariety.
    """

    __slots__ = ()
    _fields = ("pp", "qq", "i", "j")

    def validate(self, amb: Ambient) -> None:
        pp, qq, i, j = self
        if not (0 <= pp <= amb.p and 0 <= qq <= amb.q):
            raise InfeasibleTerm(f"{self} does not fit in {amb!r}")
        if i < 0 or j < 0 or i > qq or j > pp:
            raise InfeasibleTerm(f"chain indices out of range in {self}")


class BinatePair(FrozenRecord):
    """Desingularized binate variety with affine data (i, p_i, q_i).

    p_i, q_i may be negative; the underlying space clamps them at 0 but
    the dimension bookkeeping keeps the raw values.  The optional
    singular field adds the one-lower binate singular part, "zeta0" for
    (i-1, p_i, q_i-1) and "zeta1" for (i-1, p_i-1, q_i).
    """

    __slots__ = ()
    _fields = ("i", "p_i", "q_i", "singular")

    def __new__(cls, i: int, p_i: int, q_i: int, singular: str | None = None) -> "BinatePair":
        if singular not in (None, "zeta0", "zeta1"):
            raise ValueError(f"bad singular tag {singular!r}")
        return tuple.__new__(cls, (i, p_i, q_i, singular))

    @property
    def defect(self) -> int:
        i, p_i, q_i, _ = self
        return i - p_i - q_i

    def validate(self, amb: Ambient) -> None:
        i, p_i, q_i, _ = self
        if i < 0:
            raise InfeasibleTerm(f"negative flag level in {self}")
        ok = p_i + q_i <= i and i - q_i <= amb.p and i - p_i <= amb.q
        if not ok:
            raise InfeasibleTerm(f"{self} is not realizable in {amb!r}")


class FixedPoint(FrozenRecord):
    """A fixed point of the indicated component, regraded to its slot in
    the Euler-class degree.  component 0 lies in the pointwise-fixed
    projective subspace, component 1 in the twisted one; regrade is m1
    for component 0 and m0 for component 1, at most 1."""

    __slots__ = ()
    _fields = ("component", "regrade", "target")

    def __new__(cls, component: int, regrade: int, target: PiBDegree) -> "FixedPoint":
        if component not in (0, 1):
            raise InfeasibleTerm("bad fixed-point component")
        return tuple.__new__(cls, (component, regrade, target))

    def validate(self, amb: Ambient) -> None:
        if (amb.p, amb.q)[self.component] < 1:
            raise InfeasibleTerm(f"{amb!r} has no fixed component {self.component}")


# The four kinds of geometric term, as a tuple: an annotation names one
# of them, and isinstance(term, GeometricTerm) tests for any.
GeometricTerm = (FreeOrbit, InvariantChain, BinatePair, FixedPoint)


def class_of(term: GeometricTerm, amb: Ambient) -> ProjClass:
    """The cohomology class a geometric term represents, memoised per
    ambient."""
    return amb.memo(term, lambda: _class_of(term, amb))


def _class_of(term: GeometricTerm, amb: Ambient) -> ProjClass:
    term.validate(amb)
    if isinstance(term, FreeOrbit):
        d = term.target
        total, f0, f1 = d
        mono = (total - f0, (f0 - f1) // 2, term.codim(amb))
        if mono_degree(mono) != d:
            raise InfeasibleTerm(f"degree data of {term} is inconsistent")
        return proj_tau(amb, {mono: 1})
    if isinstance(term, InvariantChain):
        return ProjClass.from_mono(
            amb, (term.i, term.j, amb.p - term.pp, amb.q - term.qq))
    if isinstance(term, FixedPoint):
        if term.component == 0:
            mono = (0, term.regrade, amb.p - 1, amb.q)
        else:
            mono = (term.regrade, 0, amb.p, amb.q - 1)
        cls = ProjClass.from_mono(amb, mono)
        if not cls.is_zero() and cls.degree() != term.target:
            raise InfeasibleTerm(f"fixed point regrade {term} misses its degree")
        return cls
    # binate
    base = _binate_base(term, amb, numerator=2)
    if term.singular is None:
        return base
    zeta = (1, 0, 0, 0) if term.singular == "zeta0" else (0, 1, 0, 0)
    return ProjClass.from_mono(amb, zeta) * base


def has_half(term: GeometricTerm) -> bool:
    """True iff the term's class is 2-divisible by construction: a
    defect-0 binate term without a singular part, the only kind an
    expansion may give an odd numerator."""
    return (isinstance(term, BinatePair)
            and term.defect == 0 and term.singular is None)


def half_class_of(term: GeometricTerm, amb: Ambient) -> ProjClass:
    """Half the class, defined exactly when `has_half(term)`."""
    term.validate(amb)
    if has_half(term):
        return _binate_base(term, amb, numerator=1)
    raise InfeasibleTerm(f"{term} has no canonical half")


def _binate_base(term: BinatePair, amb: Ambient, numerator: int) -> ProjClass:
    i, p_i, q_i, _ = term
    cw = amb.p - (i - q_i)
    ccw = amb.q - (i - p_i)
    return pushed_s_kernel(amb, (0, 0, cw, ccw), term.defect, numerator)


def chiQ_class(amb: Ambient):
    """Two-chain decomposition of the twisted quadric class, with the
    class the two chains add up to; the sweep's `prop_chi_q` compares it
    with `class_chi_Q`."""
    if amb.p < 1 or amb.q < 1:
        raise InfeasibleTerm("the twisted quadric chain needs p, q >= 1")
    terms = [InvariantChain(amb.p - 1, amb.q, 1, 0),
             InvariantChain(amb.p, amb.q - 1, 0, 1)]
    return terms, class_of(terms[0], amb) + class_of(terms[1], amb)


# ---------------------------------------------------------------------------
# expansions

class BezoutExpansion(FrozenRecord):
    """Terms ((numerator, GeometricTerm), ...), each with coefficient
    numerator / 2, of an expansion of the Euler class of a sum.  The
    constructor keeps the terms whose numerator is not 0, as a tuple, and
    refuses an odd numerator on a term without a half."""

    __slots__ = ()
    _fields = ("ambient", "invariants", "terms", "label")

    def __new__(cls, ambient: tuple, invariants: BundleInvariants,
                terms, label: str = "bezout") -> "BezoutExpansion":
        terms = tuple([t for t in terms if t[0]])
        for num, term in terms:
            if num % 2 and not has_half(term):
                raise ArithmeticError(
                    f"half-integral coefficient {num}/2 on non-divisible term {term}")
        return tuple.__new__(cls, (ambient, invariants, terms, label))


def expansion_class(exp: BezoutExpansion, amb: Ambient) -> ProjClass:
    parts = []
    for num, term in exp.terms:
        if num % 2 == 0:
            parts.append((num // 2, class_of(term, amb)))
        else:
            parts.append((num, half_class_of(term, amb)))
    return linear_combination(amb, parts)


def _free_term(inv: BundleInvariants) -> FreeOrbit:
    return FreeOrbit(inv.m, inv.euler_degree())


def bezout_expansion(inv: BundleInvariants) -> BezoutExpansion:
    """The main expansion of the Euler class into Schubert classes."""
    inv.require_context()
    m, m0, m1 = inv.m, inv.m0, inv.m1
    terms = []
    if inv.ell <= 0:
        if m0 <= 0 and m1 <= 0:
            terms.append((inv.Delta, _free_term(inv)))
        elif m0 <= 0:
            terms.append((inv.Delta1, BinatePair(m, m0, m1)))
            terms.append((inv.Delta - inv.Delta1, _free_term(inv)))
        elif m1 <= 0:
            terms.append((inv.Delta0, BinatePair(m, m0, m1)))
            terms.append((inv.Delta - inv.Delta0, _free_term(inv)))
        else:
            # the reference value is min(Delta0, Delta1) whenever that is
            # admissible; for negative degrees the other representative
            # may be forced (the expansion is independent of the choice)
            dstar = bd.pick_delta_star(inv)
            terms.append((dstar, BinatePair(m, m0, m1)))
            terms.append((inv.Delta0 - dstar, BinatePair(m, m0, m1 - 1, "zeta1")))
            terms.append((inv.Delta1 - dstar, BinatePair(m, m0 - 1, m1, "zeta0")))
            terms.append((inv.Delta - (inv.Delta0 + inv.Delta1 - dstar),
                          _free_term(inv)))
    else:
        ell = inv.ell
        if inv.eps:
            for j in range(1, ell):
                if comb(ell, j) % 2:
                    terms.append((2, InvariantChain(m0 - j, m - m0 + j, j, ell - j)))
        terms.append((2 * inv.Delta0, InvariantChain(m0, m - m0, 0, ell)))
        terms.append((2 * inv.Delta1, InvariantChain(m - m1, m1, ell, 0)))
        cfree = inv.Delta - inv.Delta0 - inv.Delta1 - inv.eps * ((1 << beta(ell)) - 2)
        terms.append((cfree, _free_term(inv)))
    return BezoutExpansion((inv.p, inv.q), inv, terms)


# ---------------------------------------------------------------------------
# special cases, produced independently for cross-checking

def special_case(kind: str, inv: BundleInvariants) -> BezoutExpansion:
    if kind == "codim1":
        return _codim1_case(inv)
    if kind == "dim0":
        return _dim0_case(inv)
    if kind == "dim1_table":
        return _dim1_table_case(inv)
    if kind == "dim2_examples":
        return _dim2_case(inv)
    raise ValueError(f"unknown special case {kind!r}")


def _codim1_case(inv: BundleInvariants) -> BezoutExpansion:
    if inv.n != 1:
        raise ContextViolation([f"codim-1 case needs n = 1, got {inv.n}"])
    inv.require_context()
    p, q = inv.p, inv.q
    i = next(i for i, count in enumerate(inv.n_by_family) if count)
    fam, d = bd.FAMILIES[i], inv.d_by_family[i]
    k = d // 2
    top = p + q - 1
    if fam == "I":
        terms = [(2, InvariantChain(p - 1, q, 0, 0)),
                 (2 * k, BinatePair(top, p - 1, q - 1, "zeta1"))]
    elif fam == "II":
        terms = [(2 * k, BinatePair(top, p - 1, q - 1))]
    elif fam == "III":
        terms = [(2, InvariantChain(p, q - 1, 0, 0)),
                 (2 * k, BinatePair(top, p - 1, q - 1, "zeta0"))]
    else:
        terms = [(2, InvariantChain(p, q - 1, 0, 1)),
                 (2, InvariantChain(p - 1, q, 1, 0)),
                 (2 * (k - 1), _free_term(inv))]
    return BezoutExpansion((p, q), inv, terms, label=f"codim1-{fam}")


def _dim0_case(inv: BundleInvariants) -> BezoutExpansion:
    if inv.m != 1:
        raise ContextViolation([f"dim-0 case needs m = 1, got {inv.m}"])
    inv.require_context()
    terms = [(2 * inv.Delta0, FixedPoint(0, inv.m1, inv.euler_degree())),
             (2 * inv.Delta1, FixedPoint(1, inv.m0, inv.euler_degree())),
             (inv.Delta - inv.Delta0 - inv.Delta1, _free_term(inv))]
    return BezoutExpansion((inv.p, inv.q), inv, terms, label="dim0")


def _dim1_table_case(inv: BundleInvariants) -> BezoutExpansion:
    if inv.m != 2:
        raise ContextViolation([f"dim-1 table needs m = 2, got {inv.m}"])
    inv.require_context()
    m0, m1 = inv.m0, inv.m1
    D, D0, D1 = inv.Delta, inv.Delta0, inv.Delta1
    row = 2 if m0 >= 2 else (1 if m0 == 1 else 0)
    col = 2 if m1 >= 2 else (1 if m1 == 1 else 0)
    fr = _free_term(inv)
    if row == 2 and col == 2:
        terms = [(2 * D0, InvariantChain(2, 0, 0, 2)),
                 (2 * D1, InvariantChain(0, 2, 2, 0)),
                 (D - D0 - D1, fr)]
    elif row == 2 and col == 1:
        terms = [(2 * D0, InvariantChain(2, 0, 0, 1)),
                 (2 * D1, InvariantChain(1, 1, 1, 0)),
                 (D - D0 - D1, fr)]
    elif row == 1 and col == 2:
        terms = [(2 * D0, InvariantChain(1, 1, 0, 1)),
                 (2 * D1, InvariantChain(0, 2, 1, 0)),
                 (D - D0 - D1, fr)]
    elif row == 1 and col == 1:
        dstar = bd.pick_delta_star(inv)  # = min(D0, D1) on the standard grid
        terms = [(dstar, BinatePair(2, 1, 1)),
                 (D0 - dstar, BinatePair(2, 1, 0, "zeta1")),
                 (D1 - dstar, BinatePair(2, 0, 1, "zeta0")),
                 (D - (D0 + D1 - dstar), fr)]
    elif row == 2 and col == 0:
        # table cell printed with Delta1 in the free coefficient; the
        # theorem's m1 <= 0 simplification fixes it to Delta0
        terms = [(D0, BinatePair(2, 2, m1)), (D - D0, fr)]
    elif row == 1 and col == 0:
        terms = [(D0, BinatePair(2, 1, m1)), (D - D0, fr)]
    elif row == 0 and col == 2:
        terms = [(D1, BinatePair(2, m0, 2)), (D - D1, fr)]
    elif row == 0 and col == 1:
        terms = [(D1, BinatePair(2, m0, 1)), (D - D1, fr)]
    else:
        terms = [(D, fr)]
    return BezoutExpansion((inv.p, inv.q), inv, terms, label=f"dim1[{row},{col}]")


def _dim2_case(inv: BundleInvariants) -> BezoutExpansion:
    inv.require_context()
    m0, m1 = inv.m0, inv.m1
    D, D0, D1 = inv.Delta, inv.Delta0, inv.Delta1
    fr = _free_term(inv)
    if (inv.m, m0, m1, inv.ell) == (3, 3, 3, 3):
        if inv.eps != 1:
            raise ContextViolation(["the first dim-2 scenario forces eps = 1"])
        terms = [(2 * (comb(3, 1) % 2), InvariantChain(2, 1, 1, 2)),
                 (2 * (comb(3, 2) % 2), InvariantChain(1, 2, 2, 1)),
                 (2 * D0, InvariantChain(3, 0, 0, 3)),
                 (2 * D1, InvariantChain(0, 3, 3, 0)),
                 (D - D0 - D1 - 2, fr)]
        label = "dim2-a"
    elif (inv.m, m0, m1, inv.ell) == (3, 2, 1, 0):
        dstar = bd.pick_delta_star(inv)
        terms = [(dstar, BinatePair(3, 2, 1)),
                 (D0 - dstar, BinatePair(3, 2, 0, "zeta1")),
                 (D1 - dstar, BinatePair(3, 1, 1, "zeta0")),
                 (D - (D0 + D1 - dstar), fr)]
        label = "dim2-b"
    else:
        raise ContextViolation(
            [f"dim-2 worked cases need (m,m0,m1,l) in {{(3,3,3,3),(3,2,1,0)}}, "
             f"got ({inv.m},{m0},{m1},{inv.ell})"])
    return BezoutExpansion((inv.p, inv.q), inv, terms, label=label)
