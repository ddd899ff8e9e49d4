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


ONE: pt.Coeff = pt.p_int(1)  # the unit coefficient
_ONE_MINUS_KAPPA: pt.Coeff = pt.p_one_minus_kappa()


def mono_mul(a: Mono, b: Mono) -> Mono:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def mono_ranks(m: Mono) -> tuple:
    """(total, fixed0, fixed1) ranks of the monomial's degree."""
    z0, z1, cw, ccw = m
    return (2 * (cw + ccw), 2 * (cw - z0), 2 * (ccw - z1))


def mono_degree_pib(m: Mono) -> PiBDegree:
    return PiBDegree(*mono_ranks(m))


def mono_coset(m: Mono) -> int:
    z0, z1, cw, ccw = m
    return -z0 + z1 + cw - ccw


def mono_rho(m: Mono) -> tuple:
    """Laurent exponents (iota, zeta, c) of the restriction."""
    z0, z1, cw, ccw = m
    return (2 * z0 + 2 * ccw, -z0 + z1 + cw - ccw, cw + ccw)


_CACHE_LIMIT = pt.CACHE_LIMIT

# A cache miss whose rewrite DAG has at most this many new monomials is
# evaluated bottom-up, memoising every one of them: later calls ask for
# many of them by name.  A larger DAG is evaluated top-down and only its
# root is memoised, since the normal forms along its peel chains grow
# with their length.
_MEMO_DAG_NODES = 8


class Ambient:
    """The projective space of lines in C^p + (C^sigma)^q, p + q > 0.

    Holds the per-space caches: reductions of raw monomials, bases of
    cosets, and the memo of unit transfers, unit S-kernels, standard and
    Schubert classes.  They hold terms, never classes, so an ambient is
    freed as soon as it is dropped.  Reads are safe from multiple threads;
    concurrent inserts are idempotent (the value for a key is
    deterministic), so no locking is needed around the dicts.

    `tensor_e2` is the coefficient of e^2 in the tensor relation.  Any
    value but 1 gives a deliberately wrong ring, for the soundness check
    of the verification harness; `ambient()` never returns such a space.
    """

    def __init__(self, p: int, q: int, tensor_e2: int = 1):
        if p < 0 or q < 0 or p + q <= 0:
            raise ValueError(f"invalid ambient ({p},{q})")
        self.p = p
        self.q = q
        self._e2 = pt.p_sym(("e", 2), tensor_e2)
        self._reduce: dict = {}
        self._basis: dict = {}
        self._basis_sets: dict = {}
        self._memo: dict = {}

    def __repr__(self) -> str:
        return f"Ambient({self.p},{self.q})"

    def memo(self, key, build) -> "ProjClass":
        """The class memoised under key, made by build() on a miss."""
        terms = self._memo.get(key)
        if terms is None:
            terms = _remember(self._memo, key, build().terms)
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
        """Basis coordinates ((normal_mono, coeff), ...) of a raw monomial."""
        cached = self._reduce.get(m)
        if cached is not None:
            return cached
        return self._reduce_walk(m)

    def _reduce_walk(self, root: Mono) -> tuple:
        """Normal form of a monomial missing from the cache.

        Walks the rewrite DAG below root with an explicit stack, stopping
        at cached and normal monomials; a monomial met again on its own
        rewrite path, or a path longer than `_measure(root)`, is a
        KernelError.
        Terms read from the cache are kept in `known`, so a concurrent
        clear cannot lose them.  A small DAG is evaluated bottom-up and
        every monomial in it is memoised; a large one pushes coefficients
        top-down, one product per edge, and memoises the root alone.
        """
        cache = self._reduce
        known: dict = {}    # monomial -> normal form, read or computed here
        edges: dict = {}    # new monomial -> its rewrite, None if normal
        done: set = set()
        order: list = []    # new monomials, children before parents
        limit = self._measure(root)
        edges[root] = self._rewrite(root)
        stack = [(root, iter(edges[root] or ()))]   # the current path
        while stack:
            m, children = stack[-1]
            for child, _ in children:
                if child in edges:
                    if child not in done:
                        raise KernelError(f"reduction of {child} did not terminate")
                    continue
                if child in known:
                    continue
                terms = cache.get(child)
                if terms is not None:
                    known[child] = terms
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
                if rule is None:
                    out = ((m, ONE),)
                else:
                    acc: dict = {}
                    for child, coeff in rule:
                        _add_scaled(acc, known[child], coeff)
                    out = _freeze_terms(acc)
                self._check_degrees(m, out)
                known[m] = _remember(cache, m, out)
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
        return _remember(cache, root, out)

    def _check_degrees(self, m: Mono, out: tuple) -> None:
        """Every rewrite is degree-honest; check each stored normal form.
        A point symbol of degree a + b sigma has ranks (a + b, a, a)."""
        want = mono_ranks(m)
        for mono, coeff in out:
            t, f0, f1 = mono_ranks(mono)
            for s, _ in coeff:
                a, b = pt.sym_ranks(s)
                if (t + a + b, f0 + a, f1 + a) != want:
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
            return (((z0 - t, z1 - t, cw, ccw), pt.p_sym(("xi", t))),)
        if z1 > 0 and (z0 < 0 or cw >= p):
            return (((z0 - z1, 0, cw, ccw), pt.p_sym(("xi", z1))),)
        if z0 > 0 and (z1 < 0 or ccw >= q):
            return (((0, z1 - z0, cw, ccw), pt.p_sym(("xi", z0))),)
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
            return (((z0 - 2, z1, cw - 1, ccw + 1), pt.p_sym(("xi", 1))),
                    ((z0 - 1, z1, cw - 1, ccw), e2))
        if not self.is_normal_mono(m):
            raise KernelError(f"stuck at non-normal monomial {m} in {self!r}")
        return None

    # -- basis ------------------------------------------------------------

    def basis(self, m: int) -> tuple:
        """Ordered free basis of the coset m*omega + RO(C2)."""
        got = self._basis.get(m)
        if got is None:
            got = _remember(self._basis, m, _basis_of(self.p, self.q, m))
        return got

    def basis_set(self, m: int) -> frozenset:
        got = self._basis_sets.get(m)
        if got is None:
            got = _remember(self._basis_sets, m, frozenset(self.basis(m)))
        return got


def _basis_of(p: int, q: int, m: int) -> tuple:
    """The basis of coset m: while both p and q are positive, the head
    zeta1^m (m >= 0) or zeta0^-m (m < 0) is followed by the basis of the
    space one smaller in p or q, shifted by c_w or c_xw."""
    out = []
    cw = ccw = 0
    while p and q:
        if m >= 0:
            out.append((0, m, cw, ccw))
            p, m, cw = p - 1, m - 1, cw + 1
        else:
            out.append((-m, 0, cw, ccw))
            q, m, ccw = q - 1, m + 1, ccw + 1
    if p == 0:
        out.extend((-m - j, 0, cw, ccw + j) for j in range(q))
    else:
        out.extend((0, m - j, cw + j, ccw) for j in range(p))
    return tuple(out)


def _remember(cache: dict, key, value):
    """cache[key] = value, emptying the cache first when it is full."""
    if len(cache) >= _CACHE_LIMIT:
        cache.clear()
    cache[key] = value
    return value


def _add_scaled(acc: dict, terms: tuple, coeff) -> None:
    """acc[mono] += coeff * c for each (mono, c) of terms; coeff None is 1."""
    for mono, c in terms:
        if coeff is not None:
            c = coeff if c == ONE else pt.p_mul(coeff, c)
        cur = acc.get(mono)
        acc[mono] = c if cur is None else pt.p_add(cur, c)


def _freeze_terms(acc: dict) -> tuple:
    """Class terms from an accumulator of _add_scaled: in monomial order,
    without zero coefficients."""
    out = [(mono, c) for mono, c in acc.items() if c]
    out.sort()
    return tuple(out)


_AMBIENTS: dict = {}


def ambient(p: int, q: int) -> Ambient:
    key = (p, q)
    amb = _AMBIENTS.get(key)
    if amb is None:
        amb = Ambient(p, q)
        _AMBIENTS[key] = amb
    return amb


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
        `point.p_normalize` reads."""
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

    def __add__(self, other: "ProjClass") -> "ProjClass":
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        acc = dict(self.terms)
        _add_scaled(acc, other.terms, None)
        return ProjClass(self.amb, _freeze_terms(acc))

    def __sub__(self, other: "ProjClass") -> "ProjClass":
        return self + other.scale(-1)

    def scale(self, n: int) -> "ProjClass":
        if n == 1:
            return self
        scaled = ((m, pt.p_scale(c, n)) for m, c in self.terms)
        return ProjClass(self.amb, tuple(t for t in scaled if t[1]))

    def scale_point(self, h) -> "ProjClass":
        # the monomials are normal and distinct already: scale in place
        h = pt.p_normalize(h)
        if h == ONE:
            return self
        prods = ((m, h if c == ONE else pt.p_mul(h, c)) for m, c in self.terms)
        return ProjClass(self.amb, tuple(t for t in prods if t[1]))

    def __mul__(self, other: "ProjClass") -> "ProjClass":
        self._check(other)
        reduce = self.amb.reduce_mono
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
        out = ProjClass.unit(self.amb)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjClass):
            return NotImplemented
        return self.amb is other.amb and self.terms == other.terms

    def __hash__(self):
        raise TypeError("ProjClass is not hashable")

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "ProjClass") -> None:
        if self.amb is not other.amb:
            raise ValueError("ambient mismatch")

    # degree ----------------------------------------------------------------

    def degrees(self) -> set:
        out = set()
        for m, c in self.terms:
            dm = mono_degree_pib(m)
            for d in pt.p_degrees(c):
                out.add(dm + d.to_pib())
        return out

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
        mset = self.amb.basis_set(next(iter(cosets)))
        for m, _ in self.terms:
            if m not in mset:
                raise KernelError(
                    f"normal form {m} escapes the basis of coset "
                    f"{mono_coset(m)} in {self.amb!r}")
        return {m: dict(c) for m, c in self.terms}


def linear_combination(amb: Ambient, pairs: list) -> ProjClass:
    """The sum of n * cls over the (n, cls) pairs, added up in one pass."""
    for _, cls in pairs:
        if cls.amb is not amb:
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
    coefficient 1 is memoised per ambient and scaled by the coefficient.
    """
    pairs = []
    for (a, b, k), coeff in x.items():
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
            unit = amb.memo(("tau", a, b, k), lambda: _unit_tau(amb, a, b, k))
            pairs.append((coeff, unit))
    return linear_combination(amb, pairs)


def _unit_tau(amb: Ambient, a: int, b: int, k: int) -> ProjClass:
    """tau(iota^a zeta^b c^k) for even a and 0 <= k < p + q: a point
    transfer times a witness monomial of the right coset."""
    cw = min(k, amb.p)
    ccw = k - cw
    r = b - (cw - ccw)
    z0, z1 = (0, r) if r >= 0 else (-r, 0)
    j = (a - 2 * (z0 + ccw)) // 2
    return ProjClass.from_mono(amb, (z0, z1, cw, ccw), pt.p_tau({2 * j: 1}))


def tau_c_power(amb: Ambient, k: int) -> ProjClass:
    """tau(c^k)."""
    return proj_tau(amb, {(0, 0, k): 1})


def class_Q(amb: Ambient) -> ProjClass:
    """Euler class of the square of the dual tautological bundle."""
    return amb.memo("Q", lambda: tau_c_power(amb, 1) + ProjClass.from_mono(
        amb, (0, 0, 1, 1), pt.p_kappa(2)))


def class_chi_Q(amb: Ambient) -> ProjClass:
    """Euler class of the sign twist of that square."""
    return amb.memo("chi_Q", lambda: ProjClass.from_mono(amb, (1, 0, 1, 0))
                    + ProjClass.from_mono(amb, (0, 1, 0, 1)))


def pushed_s_kernel(amb: Ambient, mono: Mono, defect: int, numerator: int) -> ProjClass:
    """(numerator/2) * mono * S_k for defect k, evaluated without ever
    dividing a class by two.

    The kernel S_k = tau(c^k) + e^{-2k} kappa c_w^k c_xw^k equals
    Q^k / 2^{k-1}; it is the class of the desingularized binate variety
    with isotropy defect k, before pushing forward.  For defect 0 the
    kernel is the constant 2, so any integer numerator is fine.  For
    positive defect the transfer part is folded through the Frobenius
    relation, which also makes this safe for divided monomials (negative
    zeta exponents riding a saturated power).  The unit kernel mono * S_k
    is memoised per ambient and scaled by numerator/2.
    """
    if defect == 0:
        return ProjClass.from_mono(amb, mono, numerator)
    if numerator % 2:
        raise ArithmeticError(
            f"coefficient {numerator}/2 on a defect-{defect} term is not integral")
    half = numerator // 2
    if half == 0:
        return ProjClass.zero(amb)
    unit = amb.memo(("S", mono, defect), lambda: _unit_s_kernel(amb, mono, defect))
    return unit.scale(half)


def _unit_s_kernel(amb: Ambient, mono: Mono, defect: int) -> ProjClass:
    a, b, k = mono_rho(mono)
    tau_part = proj_tau(amb, {(a, b, k + defect): 1})
    kappa_mono = mono_mul(mono, (0, 0, defect, defect))
    return tau_part + ProjClass.from_mono(amb, kappa_mono, pt.p_kappa(2 * defect))


def divided(amb: Ambient, k: int, which: int, extra_cw: int = 0, extra_cxw: int = 0) -> ProjClass:
    """zeta0^-k c_w^p (which=0) or zeta1^-k c_xw^q (which=1), times extras."""
    if k < 0:
        raise ValueError("divide by a positive power")
    if which == 0:
        return ProjClass.from_mono(amb, (-k, 0, amb.p + extra_cw, extra_cxw))
    return ProjClass.from_mono(amb, (0, -k, extra_cw, amb.q + extra_cxw))
