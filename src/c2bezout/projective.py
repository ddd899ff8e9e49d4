"""The extended-graded cohomology ring of a finite projective space.

Classes are stored in canonical basis coordinates: a tuple of (normal
monomial, coefficient) pairs in monomial order, where a monomial
(z0, z1, cw, ccw) lists the exponents of zeta0, zeta1, c_w, c_xw and the
coefficient is a point-ring element (a sorted tuple, see `point`).  Terms
are immutable, so classes and caches share them instead of copying.

The reducer rewrites an arbitrary product of generators (and divided
classes) into this form using the ring relations

    zeta0 zeta1 = xi
    zeta1 c_xw = (1-kappa) zeta0 c_w + e^2     (and its mirror)
    c_w^p c_xw^q = 0

together with the divided-class bookkeeping for saturated powers.  It
walks the rewrite DAG with an explicit stack, so no input meets a
recursion-depth limit.  The normal monomial set coincides, coset by
coset, with the standard free basis; that coincidence (and hence
confluence) is enforced by tests, not assumed.
"""

from __future__ import annotations

import threading
from itertools import islice

from . import point as pt
from .grading import PiBDegree, GradingError
from .laurent import LTerms, mono_degree

Mono = tuple  # (z0, z1, cw, ccw)
UNIT: Mono = (0, 0, 0, 0)

MONO_ZETA0: Mono = (1, 0, 0, 0)
MONO_ZETA1: Mono = (0, 1, 0, 0)
MONO_CW: Mono = (0, 0, 1, 0)
MONO_CXW: Mono = (0, 0, 0, 1)


class KernelError(RuntimeError):
    """A normal form the rewrite system should never produce."""


# the rules' coefficients are the point ring's shared objects, so every
# normal form built from them holds each value once
ONE: pt.Coeff = pt.p_shared(pt.p_int(1))  # the unit coefficient
_ONE_MINUS_KAPPA: pt.Coeff = pt.p_shared(pt.p_one_minus_kappa())

# the reduction-cache entry of a normal monomial m, which stands for the
# normal form ((m, ONE),) without a tuple of its own
_NORMAL = object()


def mono_mul(a: Mono, b: Mono) -> Mono:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def mono_ranks(m: Mono) -> tuple:
    """(total, fixed0, fixed1) ranks of the monomial's degree."""
    z0, z1, cw, ccw = m
    return (2 * (cw + ccw), 2 * (cw - z0), 2 * (ccw - z1))


def mono_degree_pib(m: Mono) -> PiBDegree:
    return PiBDegree(*mono_ranks(m))


def term_ranks(m: Mono, s: pt.Sym) -> tuple:
    """Ranks of the degree of the point symbol s times the monomial m.
    A symbol of degree a + b sigma has ranks (a + b, a, a)."""
    t, f0, f1 = mono_ranks(m)
    a, b = pt.sym_ranks(s)
    return (t + a + b, f0 + a, f1 + a)


def mono_coset(m: Mono) -> int:
    z0, z1, cw, ccw = m
    return -z0 + z1 + cw - ccw


def mono_rho(m: Mono) -> tuple:
    """Laurent exponents (iota, zeta, c) of the restriction."""
    z0, z1, cw, ccw = m
    return (2 * z0 + 2 * ccw, -z0 + z1 + cw - ccw, cw + ccw)


# A cache miss whose rewrite DAG has at most this many new monomials is
# evaluated bottom-up, memoising every one of them: later calls ask for
# many of them by name.  A larger DAG is evaluated top-down and only its
# root is memoised, since the normal forms along its peel chains grow
# with their length.
_MEMO_DAG_NODES = 8


class _RingTable(dict):
    """The cache of a ring class: clipped space (p, q) -> sub-table, and
    `views`: space (p, q) -> the list of sub-tables it reads.  `size`, the
    sum of the sub-tables' sizes, stays within `point.CACHE_LIMIT`: a full
    ring empties every sub-table in place, so the lists that spaces hold
    stay valid, and drops `views`.  Inserts hold a lock, reads take none."""

    __slots__ = ("size", "views", "_lock")

    def __init__(self):
        super().__init__()
        self.size = 0
        self.views = {}
        self._lock = threading.Lock()

    def insert(self, table: dict, key, value):
        """table[key] = value, for a sub-table of this ring."""
        with self._lock:
            if key not in table:
                if self.size >= pt.CACHE_LIMIT:
                    # a copy: a space may add a sub-table meanwhile
                    for sub in list(self.values()):
                        sub.clear()
                    self.views.clear()
                    self.size = 0
                self.size += 1
            table[key] = value
        return value


class Ambient:
    """The projective space of lines in C^p + (C^sigma)^q, p + q > 0.

    A space is a value: spaces of the same type and (p, q) are equal, so
    classes on them compare and combine.  It holds p, q and `_tables`,
    its views into `_ring_table`, filled on first use: the one cache of
    its ring class (each subclass, another ring, gets its own).  Each
    entry goes to the sub-table that `_table` names, so spaces that differ
    only above the c-degrees its build reads share it.  Entries hold
    terms, never classes, so no cycle keeps a space alive; concurrent
    inserts are idempotent.  Keys never collide: a reduction's is its
    monomial, a plain tuple of ints; the others are ("tau", a, b, k),
    ("S", mono, k), "chi_Q", a Schubert term (a record, which equals no
    plain tuple) and ("basis", m)."""

    TENSOR_E2 = 1   # the coefficient of e^2 in the tensor relation
    _e2 = pt.p_shared(pt.p_sym(("e", 2), TENSOR_E2))
    _ring_table = _RingTable()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._e2 = pt.p_shared(pt.p_sym(("e", 2), cls.TENSOR_E2))
        cls._ring_table = _RingTable()

    def __init__(self, p: int, q: int):
        # a bool is an int to Python, but not a dimension
        if type(p) is not int or type(q) is not int or p < 0 or q < 0 or p + q <= 0:
            raise ValueError(f"invalid ambient ({p!r},{q!r})")
        self.p = p
        self.q = q
        self._tables: list = []   # c -> self._table(c), made on first use

    def __repr__(self) -> str:
        return f"Ambient({self.p},{self.q})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q)

    def __hash__(self) -> int:
        return hash((self.__class__, self.p, self.q))

    def _table(self, c: int) -> dict:
        """The ring's sub-table for entries whose build reads no c-degree
        above c: that of (min(p, c + 1), min(q, c + 1)), or a fresh dict
        for a negative c.  A build that only compares c exponents of at
        most c with p or q gives the same terms on (p, q) and on the
        clipped space:
        - a reduction of m, c = cw + ccw: no rule of `_rewrite` raises
          cw + ccw (a peel and the zeta0^2 c_w rule move one c power or
          drop it, the zeta rules keep both), so no monomial on its
          rewrite DAG has a c exponent above c;
        - chi_Q, c = 1: the sum of two reductions of c-degree 1;
        - a unit transfer ("tau", a, b, k), c = k: its witness is the k-th
          basis monomial, which reads only whether p and q exceed k;
        - a unit S-kernel ("S", mono, k), c = cw + ccw + 2k, the c-degree
          of its kappa monomial: its transfer part has c-degree
          cw + ccw + k, and its domain check compares cw + k and ccw + k.
        From c = max(p, q) - 1 on it is (p, q) itself, the home of Schubert
        classes and bases.  The list of views, up to c = 2(p + q), past any
        product of two normal monomials, comes from the ring's `views` on
        first use; threads that race to make it make equal lists."""
        tables = self._tables
        if 0 <= c < len(tables):
            return tables[c]
        if c < 0:
            return {}
        if not tables:
            p, q = self.p, self.q
            ring = self._ring_table
            tables = ring.views.get((p, q))
            if tables is None:
                tables = [ring.setdefault((min(p, k), min(q, k)), {}) for k in range(1, max(p, q))]
                tables += [ring.setdefault((p, q), {})] * (2 * (p + q) + 1 - len(tables))
                ring.views[p, q] = tables
            self._tables = tables
        return tables[c] if c < len(tables) else tables[-1]

    def memo(self, key, build, c: int | None = None) -> "ProjClass":
        """The class under key in the ring's table, made by build() on a
        miss; c is the largest c-degree build reads, None for all."""
        if c is None:
            c = self.p + self.q
        tables = self._tables
        table = tables[c] if 0 <= c < len(tables) else self._table(c)
        terms = table.get(key)
        if terms is None:
            terms = self._ring_table.insert(table, key, build().terms)
        return ProjClass(self, terms)

    # -- normal monomial predicate ---------------------------------------

    def is_normal_mono(self, m: Mono) -> bool:
        z0, z1, cw, ccw = m
        p, q = self.p, self.q
        if not (0 <= cw <= p and 0 <= ccw <= q):
            return False
        if cw >= p and ccw >= q:
            return False
        if z0 and z1:
            return False
        if z1 > 0 and (ccw > 0 or cw >= p):
            return False
        if z1 < 0 and ccw != q:
            return False
        if z0 > 0 and ccw >= q:
            return False
        if z0 >= 2 and cw != 0:
            return False
        if z0 < 0 and cw != p:
            return False
        return True

    # -- reduction --------------------------------------------------------

    def reduce_mono(self, m: Mono) -> tuple:
        """Basis coordinates ((normal_mono, coeff), ...) of a raw monomial
        of the ring: c exponents >= 0, zeta0^-k only with c_w^p and
        zeta1^-k only with c_xw^q.  Any other is a ValueError, and so is
        a non-integer exponent, on a hit too: a float twin of a cached
        monomial would be read back with the float in its normal form."""
        _check_exponents(m)
        return self._normal_form(m)

    def _normal_form(self, m: Mono) -> tuple:
        """reduce_mono for a monomial the kernel built from int parts."""
        tables = self._tables
        c = m[2] + m[3]
        cached = tables[c].get(m) if 0 <= c < len(tables) else None
        if cached is None:
            self._check_domain(m)
            cached = self._table(c).get(m)
        if cached is not None:
            return ((m, ONE),) if cached is _NORMAL else cached
        # most misses are one rewrite step: m is normal, vanishes, or its
        # rule leads only to cached monomials
        rule = self._rewrite(m)
        if rule:
            children = [self._table(child[2] + child[3]).get(child)
                        for child, _ in rule]
            if None in children:
                return self._reduce_walk(m, rule)
            return self._settle(m, rule, children)
        return self._settle(m, rule, ())

    def _check_domain(self, m: Mono, saturating: int = 0) -> None:
        """Refuse a monomial outside the ring with a ValueError: a
        negative c exponent, or a negative zeta0 (zeta1) exponent without
        c_w^p (c_xw^q).  With saturating = k, the zeta test reads m times
        c_w^k c_xw^k, the c powers that the kernel S_k adds.  Exponents
        are ints here: `_check_exponents` has seen them."""
        z0, z1, cw, ccw = m
        if (cw < 0 or ccw < 0 or (z0 < 0 and cw + saturating < self.p)
                or (z1 < 0 and ccw + saturating < self.q)):
            raise ValueError(f"monomial {m} lies outside the ring of {self!r}")

    def _store(self, m: Mono, entry):
        return self._ring_table.insert(self._table(m[2] + m[3]), m, entry)

    def _settle(self, m: Mono, rule, children) -> tuple:
        """Cache and return the normal form of m, from its rule and the
        cache entries of the rule's children, in rule order."""
        if rule is None:
            out = ((m, ONE),)
            self._check_degrees(m, out)
            self._store(m, _NORMAL)
            return out
        acc: dict = {}
        for (child, coeff), terms in zip(rule, children):
            if terms is _NORMAL:
                terms = ((child, ONE),)
            _add_scaled(acc, terms, coeff)
        out = _freeze_terms(acc)
        self._check_degrees(m, out)
        return self._store(m, out)

    def _reduce_walk(self, root: Mono, rule) -> tuple:
        """Normal form of a monomial missing from the cache, given its
        rule.

        Walks the rewrite DAG below root with an explicit stack, stopping
        at monomials in the ring's table and at normal ones; a monomial
        met again on its own rewrite path, or a path longer than
        `_measure(root)`, is a KernelError.
        Terms read from the cache are kept in `known`, so a concurrent
        clear cannot lose them.  A small DAG is evaluated bottom-up and
        every monomial in it is memoised; a large one pushes coefficients
        top-down, one product per edge, and memoises the root alone.
        """
        known: dict = {}    # monomial -> normal form, read or computed here
        edges: dict = {}    # new monomial -> its rewrite, None if normal
        done: set = set()
        order: list = []    # new monomials, children before parents
        limit = self._measure(root)
        edges[root] = rule
        stack = [(root, iter(rule or ()))]   # the current path
        while stack:
            m, children = stack[-1]
            for child, _ in children:
                if child in edges:
                    if child not in done:
                        raise KernelError(f"reduction of {child} did not terminate")
                    continue
                if child in known:
                    continue
                terms = self._table(child[2] + child[3]).get(child)
                if terms is not None:
                    known[child] = ((child, ONE),) if terms is _NORMAL else terms
                    continue
                if len(stack) > limit:
                    raise KernelError(f"reduction of {child} did not terminate")
                rule = edges[child] = self._rewrite(child)
                stack.append((child, iter(rule or ())))
                break
            else:
                stack.pop()
                done.add(m)
                order.append(m)
        if len(order) <= _MEMO_DAG_NODES:
            for m in order:
                rule = edges[m]
                known[m] = self._settle(
                    m, rule, [known[child] for child, _ in rule or ()])
            return known[root]
        weight = {root: ONE}
        acc = {}
        for m in reversed(order):
            w = weight.pop(m, None)
            if not w:
                continue
            rule = edges[m]
            if rule is None:
                _add_scaled(acc, ((m, w),), None)
                continue
            for child, coeff in rule:
                c = coeff if w == ONE else pt.p_mul(w, coeff)
                if child in known:
                    _add_scaled(acc, known[child], c)
                else:
                    cur = weight.get(child)
                    weight[child] = c if cur is None else pt.p_add(cur, c)
        out = _freeze_terms(acc)
        self._check_degrees(root, out)
        return self._store(root, out)

    def _check_degrees(self, m: Mono, out: tuple) -> None:
        """Every rewrite is degree-honest; check each stored normal form."""
        want = mono_ranks(m)
        for mono, coeff in out:
            for s, _ in coeff:
                if term_ranks(mono, s) != want:
                    raise KernelError(
                        f"degree drift reducing {m}: term {mono} carries {s}")

    def _measure(self, m: Mono) -> int:
        """A bound on the length of every rewrite path from m.

        Every rule of `_rewrite` lowers this measure by at least 1 and it
        is never negative.  The rules are tried in order, so each fires
        only where the earlier ones fail: the zeta rules lower the
        positive zeta exponents and leave the excess alone; a c_w peel
        needs c_w > p, c_xw < q and zeta1 <= 0, so it takes 3 off the
        excess and adds at most 2 (zeta1 0 -> 1); a c_xw peel either
        needs c_xw > q and zeta0 <= 0, so it takes 3 off the excess and
        adds at most 1 (zeta0 0 -> 1), or, on zeta0 = 0 < zeta1, trades 2
        of zeta1 for 1 of zeta0; the zeta0^2 c_w rule lowers zeta0 and
        keeps c_xw <= q.
        """
        z0, z1, cw, ccw = m
        excess = max(cw - self.p, 0) + max(ccw - self.q, 0)
        return 3 * excess + max(z0, 0) + 2 * max(z1, 0)

    def _rewrite(self, m: Mono):
        """One rewrite of m as ((child, coeff), ...): () when m vanishes,
        None when m is normal."""
        z0, z1, cw, ccw = m
        p, q = self.p, self.q
        e2 = self._e2
        if cw >= p and ccw >= q:
            return ()
        if z0 > 0 and z1 > 0:
            t = min(z0, z1)
            return (((z0 - t, z1 - t, cw, ccw), _xi(t)),)
        if z1 > 0 and (z0 < 0 or cw >= p):
            return (((z0 - z1, 0, cw, ccw), _xi(z1)),)
        if z0 > 0 and (z1 < 0 or ccw >= q):
            return (((0, z1 - z0, cw, ccw), _xi(z0)),)
        if cw > p:
            # peel one (zeta0 c_w) = (1-kappa) zeta1 c_xw + e^2
            return (((z0 - 1, z1 + 1, cw - 1, ccw + 1), _ONE_MINUS_KAPPA),
                    ((z0 - 1, z1, cw - 1, ccw), e2))
        if ccw > q or (z1 > 0 and ccw > 0):
            # peel one (zeta1 c_xw) = (1-kappa) zeta0 c_w + e^2
            return (((z0 + 1, z1 - 1, cw + 1, ccw - 1), _ONE_MINUS_KAPPA),
                    ((z0, z1 - 1, cw, ccw - 1), e2))
        if z0 >= 2 and cw >= 1:
            # zeta0 * (zeta0 c_w) = xi c_xw + e^2 zeta0
            return (((z0 - 2, z1, cw - 1, ccw + 1), _xi(1)),
                    ((z0 - 1, z1, cw - 1, ccw), e2))
        if not self.is_normal_mono(m):
            raise KernelError(f"stuck at non-normal monomial {m} in {self!r}")
        return None

    # -- basis ------------------------------------------------------------

    def basis(self, m: int) -> tuple:
        """Ordered free basis of the coset m*omega + RO(C2)."""
        c, tables = self.p + self.q, self._tables
        table = tables[c] if c < len(tables) else self._table(c)
        key = ("basis", m)
        got = table.get(key)
        if got is None:
            got = self._ring_table.insert(table, key, tuple(_basis_iter(self.p, self.q, m)))
        return got


def _xi(t: int) -> pt.Coeff:
    return pt.p_shared(((("xi", t), 1),))


def _basis_iter(p: int, q: int, m: int):
    """The basis of coset m in order; its k-th monomial has c-degree k.
    While both p and q are positive, the head zeta1^m (m >= 0) or
    zeta0^-m (m < 0) is followed by the basis of the space one smaller in
    p or q, shifted by c_w or c_xw."""
    cw = ccw = 0
    while p and q:
        if m >= 0:
            yield (0, m, cw, ccw)
            p, m, cw = p - 1, m - 1, cw + 1
        else:
            yield (-m, 0, cw, ccw)
            q, m, ccw = q - 1, m + 1, ccw + 1
    if p == 0:
        yield from ((-m - j, 0, cw, ccw + j) for j in range(q))
    else:
        yield from ((0, m - j, cw + j, ccw) for j in range(p))


def _add_scaled(acc: dict, terms: tuple, coeff) -> None:
    """acc[mono] += coeff * c for each (mono, c) of terms; coeff None is 1."""
    for mono, c in terms:
        if coeff is not None:
            c = coeff if c == ONE else pt.p_mul(coeff, c)
        cur = acc.get(mono)
        acc[mono] = c if cur is None else pt.p_add(cur, c)


def _scaled_terms(terms: tuple, h: pt.Coeff) -> tuple:
    """h * terms for a shared point element h.  The monomials are normal
    and distinct already, so each term is scaled in place, and a term
    with coefficient 1 keeps the shared object h."""
    prods = ((m, h if c == ONE else pt.p_mul(h, c)) for m, c in terms)
    return tuple(t for t in prods if t[1])


def _freeze_terms(acc: dict) -> tuple:
    """Class terms from an accumulator of _add_scaled: in monomial order,
    without zero coefficients."""
    out = [(mono, c) for mono, c in acc.items() if c]
    out.sort()
    return tuple(out)


def _check_exponents(m: Mono) -> None:
    """Refuse a monomial with a non-integer exponent, before any cache
    reads it: a float or bool hashes like the int it equals."""
    z0, z1, cw, ccw = m
    if (type(z0) is not int or type(z1) is not int or type(cw) is not int
            or type(ccw) is not int):
        raise ValueError(f"non-integer exponent in monomial {m}")


def ambient(p: int, q: int) -> Ambient:
    """The space (p, q), a value; `Ambient` refuses invalid dimensions."""
    return Ambient(p, q)


# ---------------------------------------------------------------------------
# classes

class ProjClass:
    """An element of the cohomology ring, kept in basis coordinates.

    `terms` is a tuple of (normal monomial, frozen coefficient) pairs in
    monomial order, so equal classes have equal terms and classes are
    immutable values."""

    __slots__ = ("amb", "terms")

    def __init__(self, amb: Ambient, terms: tuple):
        self.amb = amb
        self.terms = terms

    # construction ---------------------------------------------------------

    @classmethod
    def zero(cls, amb: Ambient) -> "ProjClass":
        return cls(amb, ())

    @classmethod
    def from_mono(cls, amb: Ambient, m: Mono, coeff=1) -> "ProjClass":
        """coeff * m for an int coeff or a point element in any form
        `point.p_normalize` reads (a dict or pairs); a coefficient that is
        neither, such as a float, is a ValueError."""
        if not isinstance(coeff, int) and not hasattr(coeff, "__iter__"):
            raise ValueError(f"coefficient {coeff!r} is neither an int nor a point element")
        out = cls(amb, amb.reduce_mono(m))
        return out.scale(coeff) if isinstance(coeff, int) else out.scale_point(coeff)

    @classmethod
    def from_point(cls, amb: Ambient, coeff) -> "ProjClass":
        coeff = pt.p_normalize(coeff)
        return cls(amb, ((UNIT, coeff),) if coeff else ())

    @classmethod
    def unit(cls, amb: Ambient) -> "ProjClass":
        return cls(amb, ((UNIT, ONE),))

    # ring ops --------------------------------------------------------------

    # a sum with an empty operand is the other operand, with no pass over
    # its terms
    def __add__(self, other: "ProjClass") -> "ProjClass":
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return linear_combination(self.amb, [(1, self), (1, other)])

    def __sub__(self, other: "ProjClass") -> "ProjClass":
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other.scale(-1)
        return linear_combination(self.amb, [(1, self), (-1, other)])

    def scale(self, n: int) -> "ProjClass":
        if n == 1:
            return self
        scaled = ((m, pt.p_scale(c, n)) for m, c in self.terms)
        return ProjClass(self.amb, tuple(t for t in scaled if t[1]))

    def scale_point(self, h) -> "ProjClass":
        h = pt.p_shared(pt.p_normalize(h))
        if h == ONE:
            return self
        return ProjClass(self.amb, _scaled_terms(self.terms, h))

    def __mul__(self, other: "ProjClass") -> "ProjClass":
        self._check(other)
        reduce = self.amb._normal_form
        acc: dict = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                if cb == ONE:
                    coeff = None if ca == ONE else ca
                elif ca == ONE:
                    coeff = cb
                else:
                    coeff = pt.p_mul(ca, cb)
                    if not coeff:
                        continue
                _add_scaled(acc, reduce(mono_mul(ma, mb)), coeff)
        return ProjClass(self.amb, _freeze_terms(acc))

    def __pow__(self, n: int) -> "ProjClass":
        if n < 0:
            raise ValueError("negative powers are not defined")
        if n == 0:
            return ProjClass.unit(self.amb)
        out = None   # the first factor: no product with the unit
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjClass):
            return NotImplemented
        return ((self.amb is other.amb or self.amb == other.amb)
                and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("ProjClass is not hashable")

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "ProjClass") -> None:
        if self.amb is not other.amb and self.amb != other.amb:
            raise ValueError("ambient mismatch")

    # degree ----------------------------------------------------------------

    def degrees(self) -> set:
        ranks = {term_ranks(m, s) for m, c in self.terms for s, _ in c}
        return {PiBDegree(*r) for r in ranks}

    def degree(self) -> PiBDegree:
        ds = self.degrees()
        if len(ds) != 1:
            raise GradingError(f"class is not homogeneous: degrees {ds}")
        return next(iter(ds))

    def cosets(self) -> set:
        return {mono_coset(m) for m, _ in self.terms}

    # shadows -----------------------------------------------------------------

    def rho(self) -> LTerms:
        trunc = self.amb.p + self.amb.q
        out: LTerms = {}
        for m, c in self.terms:
            ia, za, ca = mono_rho(m)
            if ca >= trunc:
                continue
            for ie, v in pt.p_rho(c).items():
                key = (ia + ie, za, ca)
                n = out.get(key, 0) + v
                if n:
                    out[key] = n
                else:
                    out.pop(key, None)
        return out

    def fixed(self) -> tuple:
        """Images in Z[c]/(c^p) and Z[c]/(c^q) over the two fixed components."""
        f0: dict = {}
        f1: dict = {}
        for m, c in self.terms:
            z0, z1, cw, ccw = m
            v = pt.p_fixed(c)
            if v == 0:
                continue
            if z0 <= 0 and cw < self.amb.p:
                f0[cw] = f0.get(cw, 0) + v
            if z1 <= 0 and ccw < self.amb.q:
                f1[ccw] = f1.get(ccw, 0) + v
        return ({k: v for k, v in f0.items() if v}, {k: v for k, v in f1.items() if v})

    # basis -------------------------------------------------------------------

    def reduce_to_basis(self) -> dict:
        """Coefficient vector {basis monomial: point terms} over the basis
        of the class's single coset, as fresh dicts."""
        if not self.terms:
            return {}
        cosets = self.cosets()
        if len(cosets) != 1:
            raise GradingError(f"class spans several cosets: {sorted(cosets)}")
        basis = self.amb.basis(next(iter(cosets)))
        for m, _ in self.terms:
            c = m[2] + m[3]     # the k-th basis monomial has c-degree k
            if not (c < len(basis) and basis[c] == m):
                raise KernelError(
                    f"normal form {m} escapes the basis of coset "
                    f"{mono_coset(m)} in {self.amb!r}")
        return {m: dict(c) for m, c in self.terms}


def linear_combination(amb: Ambient, pairs: list) -> ProjClass:
    """The sum of n * cls over the (n, cls) pairs, added up in one pass."""
    for _, cls in pairs:
        if cls.amb is not amb and cls.amb != amb:
            raise ValueError("ambient mismatch")
    if len(pairs) == 1:
        n, cls = pairs[0]
        return cls.scale(n)
    acc: dict = {}
    for n, cls in pairs:
        if n:
            for mono, c in cls.terms:
                if n != 1:
                    c = pt.p_scale(c, n)
                cur = acc.get(mono)
                acc[mono] = c if cur is None else pt.p_add(cur, c)
    return ProjClass(amb, _freeze_terms(acc))


# ---------------------------------------------------------------------------
# generators and standard classes

def gen_zeta0(amb: Ambient) -> ProjClass:
    return ProjClass.from_mono(amb, MONO_ZETA0)


def gen_zeta1(amb: Ambient) -> ProjClass:
    return ProjClass.from_mono(amb, MONO_ZETA1)


def gen_cw(amb: Ambient) -> ProjClass:
    return ProjClass.from_mono(amb, MONO_CW)


def gen_cxw(amb: Ambient) -> ProjClass:
    return ProjClass.from_mono(amb, MONO_CXW)


def proj_tau(amb: Ambient, x: LTerms, target: PiBDegree | None = None) -> ProjClass:
    """Transfer of a shadow class, one Laurent monomial at a time.

    Each monomial iota^a zeta^b c^k determines its own target degree; the
    optional argument is checked against it.  Odd iota exponents lie
    outside the supported subring.  The transfer of each monomial with
    coefficient 1 is memoised in the ring's table and scaled by the
    coefficient.
    """
    return linear_combination(amb, tau_pairs(amb, x, target))


def tau_pairs(amb: Ambient, x: LTerms, target: PiBDegree | None = None) -> list:
    """The (coefficient, memoised unit transfer) pairs whose linear
    combination is proj_tau(amb, x, target), with its checks."""
    pairs = []
    for (a, b, k), coeff in x.items():
        # the unit transfer builds its coefficient itself, so no point
        # symbol check downstream sees these exponents
        if type(a) is not int or type(b) is not int or type(k) is not int:
            raise ValueError(f"non-integer exponent in tau(iota^{a} zeta^{b} c^{k})")
        if target is not None and mono_degree((a, b, k)) != target:
            raise GradingError(
                f"tau target {target} does not match monomial degree "
                f"{mono_degree((a, b, k))}")
        if k < 0:
            raise ValueError(f"negative c-exponent {k} in transfer")
        if a % 2 != 0:
            raise pt.OutsideSupportedSubring(
                f"tau(iota^{a} zeta^{b} c^{k}) lies outside the supported subring")
        if coeff and k < amb.p + amb.q:
            unit = amb.memo(("tau", a, b, k), lambda: _unit_tau(amb, a, b, k), k)
            pairs.append((coeff, unit))
    return pairs


def _unit_tau(amb: Ambient, a: int, b: int, k: int) -> ProjClass:
    """tau(iota^a zeta^b c^k) for even a and 0 <= k < p + q.

    The witness is the k-th monomial m of the basis of coset b: it is
    normal and rho(m) = iota^(2(z0+ccw)) zeta^b c^k, so by the projection
    formula tau(iota^a zeta^b c^k) = m * tau(iota^(a - 2(z0+ccw))), one
    point transfer on a monomial that needs no rewriting.  The witness is
    read off the basis order without caching the coset's basis, and its
    reduction must be itself: the transfer is the one term (witness, h)."""
    witness = next(islice(_basis_iter(amb.p, amb.q, b), k, None))
    if amb._normal_form(witness) != ((witness, ONE),):
        raise KernelError(f"transfer witness {witness} is not normal in {amb!r}")
    z0, _, _, ccw = witness
    return ProjClass(amb, ((witness, pt.p_tau_iota(a // 2 - z0 - ccw)),))


def class_Q(amb: Ambient) -> ProjClass:
    """Euler class of the square of the dual tautological bundle: the
    unit S-kernel S_1."""
    return s_kernel_pair(amb, UNIT, 1, 2)[1]


def class_chi_Q(amb: Ambient) -> ProjClass:
    """Euler class of the sign twist of that square."""
    return amb.memo("chi_Q", lambda: ProjClass.from_mono(amb, (1, 0, 1, 0))
                    + ProjClass.from_mono(amb, (0, 1, 0, 1)), 1)


def s_kernel_pair(amb: Ambient, mono: Mono, defect: int, numerator: int) -> tuple:
    """(n, unit) with n * unit = (numerator/2) * mono * S_k for defect k,
    evaluated without ever dividing a class by two.

    The kernel S_k = tau(c^k) + e^{-2k} kappa c_w^k c_xw^k equals
    Q^k / 2^{k-1}, so S_1 = Q; it is the class of the desingularized
    binate variety with isotropy defect k, before pushing forward.  For
    defect 0 the kernel is the constant 2, so any integer numerator is
    fine, and the unit is the reduced monomial.  For positive defect the
    transfer part is folded through the Frobenius relation, which also
    makes this safe for divided monomials (negative zeta exponents riding
    a saturated power), and the unit kernel mono * S_k is memoised in the
    ring's table.  A class is linear_combination(amb, [s_kernel_pair(...)]).
    """
    if type(defect) is not int or type(numerator) is not int:
        raise ValueError(f"non-integer defect {defect!r} or numerator "
                         f"{numerator!r} in an S-kernel")
    if defect < 0:
        raise ValueError(f"negative defect {defect} in an S-kernel")
    if defect == 0:
        return numerator, ProjClass(amb, amb.reduce_mono(mono))
    _check_exponents(mono)
    if numerator % 2:
        raise ArithmeticError(
            f"coefficient {numerator}/2 on a defect-{defect} term is not integral")
    half = numerator // 2
    if half == 0:
        return 0, ProjClass.zero(amb)
    return half, amb.memo(("S", mono, defect), lambda: _unit_s_kernel(amb, mono, defect),
                          mono[2] + mono[3] + 2 * defect)


def _unit_s_kernel(amb: Ambient, mono: Mono, defect: int) -> ProjClass:
    """mono * S_k = tau(rho(mono) c^k) + e^-2k kappa mono c_w^k c_xw^k for
    k = defect >= 1: the memoised unit transfer plus the reduced kappa
    monomial scaled in place, added up in one pass."""
    amb._check_domain(mono, defect)
    a, b, k = mono_rho(mono)
    pairs = tau_pairs(amb, {(a, b, k + defect): 1})
    kappa_mono = mono_mul(mono, (0, 0, defect, defect))
    kappa = pt.p_shared(pt.p_kappa(2 * defect))
    pairs.append((1, ProjClass(amb, _scaled_terms(amb._normal_form(kappa_mono), kappa))))
    return linear_combination(amb, pairs)


def divided(amb: Ambient, k: int, which: int, extra_cxw: int = 0) -> ProjClass:
    """zeta0^-k c_w^p (which=0) or zeta1^-k c_xw^q (which=1), times
    c_xw^extra_cxw."""
    if k < 0:
        raise ValueError("divide by a positive power")
    if which not in (0, 1):
        raise ValueError(f"divided class which={which!r} is neither 0 nor 1")
    if which == 0:
        return ProjClass.from_mono(amb, (-k, 0, amb.p, extra_cxw))
    return ProjClass.from_mono(amb, (0, -k, 0, amb.q + extra_cxw))
