"""Line bundles over the projective space and Euler classes of sums.

Line bundles fall into four families: untwisted odd (I), untwisted even
(II), twisted odd (III) and twisted even (IV), where "twisted" means
tensored with the sign line.  A bundle token reads O(<int>) or xO(<int>).
"""

from __future__ import annotations

from math import comb

from . import point as pt
from .grading import FrozenRecord, PiBDegree
from .projective import (MONO_ZETA0, MONO_ZETA1, UNIT, Ambient, ProjClass,
                         class_Q, class_chi_Q, linear_combination, proj_tau,
                         s_kernel_pair, tau_pairs, gen_cw, gen_cxw, gen_zeta0)

FAMILIES = ("I", "II", "III", "IV")


class BundleParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class ContextViolation(ValueError):
    """A bundle sum outside the geometric hypotheses of the closed forms."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("context violated: " + "; ".join(self.violations))


class LineBundleSpec(FrozenRecord, order=True):
    """One line bundle: its family and degree.  Specs order as the tuple
    (family, degree)."""

    __slots__ = ()
    _fields = ("family", "degree")

    def __new__(cls, family: str, degree: int) -> "LineBundleSpec":
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if type(degree) is not int:   # a bool is an int to Python, not a degree
            raise ValueError(f"degree must be an integer, got {degree!r}")
        odd = family in ("I", "III")
        if degree % 2 != (1 if odd else 0):
            raise ValueError(
                f"degree {degree} has the wrong parity for family {family}")
        return tuple.__new__(cls, (family, degree))

    @property
    def twisted(self) -> bool:
        return self.family in ("III", "IV")

    @property
    def k(self) -> int:
        """The integer k with degree 2k or 2k+1."""
        return self.degree // 2

    def token(self) -> str:
        return f"{'xO' if self.twisted else 'O'}({self.degree})"

    @classmethod
    def from_token(cls, tok: str, pos: int = 0) -> "LineBundleSpec":
        t = tok.strip()
        if t.startswith("xO(") and t.endswith(")"):
            twisted, body = True, t[3:-1]
        elif t.startswith("O(") and t.endswith(")"):
            twisted, body = False, t[2:-1]
        else:
            raise BundleParseError(f"bad bundle token {tok!r}", pos)
        try:
            d = int(body)
        except ValueError:
            raise BundleParseError(f"bad degree {body!r} in {tok!r}", pos) from None
        if d % 2:
            fam = "III" if twisted else "I"
        else:
            fam = "IV" if twisted else "II"
        return cls(fam, d)


def parse_bundles(s: str) -> tuple:
    specs = []
    pos = 0
    for tok in s.split(","):
        if tok.strip():
            specs.append(LineBundleSpec.from_token(tok, pos))
        pos += len(tok) + 1
    return tuple(specs)


class BundleSum(FrozenRecord):
    """A sum of line bundles on the space (p, q); the bundles are kept
    sorted."""

    __slots__ = ()
    _fields = ("ambient", "bundles")

    def __new__(cls, ambient: tuple, bundles: tuple = ()) -> "BundleSum":
        return tuple.__new__(cls, (ambient, tuple(sorted(bundles))))

    @property
    def n(self) -> int:
        return len(self.bundles)

    def token(self) -> str:
        return ",".join(b.token() for b in self.bundles)


class BundleInvariants(FrozenRecord):
    """The counts and degree products of a bundle sum that the closed
    forms and the expansion read; built by invariants_from_counts.  The
    bundle counts and degree products per family are 4-tuples in
    FAMILIES order."""

    __slots__ = ()
    _fields = ("p", "q", "n", "n_by_family", "d_by_family", "n0", "n1", "Delta",
               "Delta0", "Delta1", "m", "m0", "m1", "ell", "k0", "k1", "eps",
               "context_violations")

    @property
    def context_ok(self) -> bool:
        return not self.context_violations

    def require_context(self) -> None:
        if self.context_violations:
            raise ContextViolation(self.context_violations)

    def euler_degree(self) -> PiBDegree:
        return PiBDegree(2 * self.n, 2 * self.n0, 2 * self.n1)


def bundle_invariants(bs: BundleSum) -> BundleInvariants:
    p, q = bs.ambient
    counts = [0, 0, 0, 0]
    degs = [1, 1, 1, 1]
    for b in bs.bundles:
        f = FAMILIES.index(b.family)
        counts[f] += 1
        degs[f] *= b.degree
    return invariants_from_counts(p, q, tuple(counts), tuple(degs))


def invariants_from_counts(p: int, q: int, counts: tuple, degs: tuple) -> BundleInvariants:
    """The invariants of a sum on the space (p, q) with counts[i] bundles
    of family FAMILIES[i], whose degrees multiply to degs[i]."""
    cI, cII, cIII, cIV = counts
    dI, dII, dIII, dIV = degs
    n = cI + cII + cIII + cIV
    n0 = cI + cII
    n1 = cII + cIII
    Delta0 = dI * dII if n0 < p else 0
    Delta1 = dII * dIII if n1 < q else 0
    # positional, in field order (this runs once per sum and per query)
    return BundleInvariants(
        p, q, n, counts, degs, n0, n1, dI * dII * dIII * dIV, Delta0, Delta1,
        p + q - n, p - n0, q - n1, n - n0 - n1, n - n0, n - n1,
        Delta0 % 2, violations_from_counts(p, q, n, n0, n1))


def violations_from_counts(p: int, q: int, n: int, n0: int, n1: int) -> tuple:
    """The closed-form hypotheses violated by a sum of n bundles on the
    space (p, q), n0 of them from families I and II and n1 from II and
    III."""
    out = []
    if not n < p + q:
        out.append(f"n < p + q fails ({n} >= {p + q})")
    if not n - q <= n0:
        out.append(f"n - q <= n0 fails ({n - q} > {n0})")
    if not n0 <= n:
        out.append(f"n0 <= n fails ({n0} > {n})")
    if not n - p <= n1:
        out.append(f"n - p <= n1 fails ({n - p} > {n1})")
    if not n1 <= n:
        out.append(f"n1 <= n fails ({n1} > {n})")
    return tuple(out)


def beta(k: int) -> int:
    """Number of ones in the binary expansion of k >= 0."""
    if k < 0:
        raise ValueError("beta of a negative integer")
    return bin(k).count("1")


def _exact_half(n: int, what: str) -> int:
    if n % 2:
        raise ArithmeticError(f"{what} = {n} is not even; input outside the "
                              "closed-form hypotheses or a kernel bug")
    return n // 2


def euler_line(amb: Ambient, spec: LineBundleSpec) -> ProjClass:
    """Euler class of a single line bundle, in closed form.

    The factors zeta1 Q (family I) and zeta0 Q (family III) are the
    memoised unit S-kernels S_1 on zeta1 and zeta0, so a line of a seen
    space costs one linear combination and no class product.  Nothing
    per degree is memoised."""
    family, k = spec.family, spec.k
    if family == "II":
        return class_Q(amb).scale(k)
    if family == "IV":
        if k == 1:
            return class_chi_Q(amb)
        return linear_combination(
            amb, [(1, class_chi_Q(amb))] + tau_pairs(amb, {(2, 0, 1): k - 1}))
    if family == "I":
        lead, zeta = gen_cw(amb), MONO_ZETA1
    else:
        lead, zeta = gen_cxw(amb), MONO_ZETA0
    if not k:
        return lead
    return linear_combination(amb, [(1, lead), s_kernel_pair(amb, zeta, 1, 2 * k)])


def euler_line_raw(amb: Ambient, spec: LineBundleSpec) -> ProjClass:
    """The unsimplified single-bundle expressions; used as a cross-check."""
    k = spec.k
    if spec.family == "I":
        cw = ProjClass.from_mono(amb, (0, 0, 1, 0))
        inner = (ProjClass.unit(amb)
                 + ProjClass.from_point(amb, pt.p_sym(pt.S_G, k))
                 + ProjClass.from_mono(amb, (0, 1, 0, 1), pt.p_kappa(2)).scale(k))
        return cw * inner
    if spec.family == "II":
        cw = ProjClass.from_mono(amb, (0, 0, 1, 0))
        inner = (gen_zeta0(amb).scale_point(pt.p_sym(("tin", 1)))
                 + ProjClass.from_mono(amb, (0, 0, 0, 1), pt.p_kappa(2)))
        return (cw * inner).scale(k)
    if spec.family == "III":
        cxw = ProjClass.from_mono(amb, (0, 0, 0, 1))
        inner = (ProjClass.unit(amb)
                 + ProjClass.from_point(amb, pt.p_sym(pt.S_G, k))
                 + ProjClass.from_mono(amb, (1, 0, 1, 0), pt.p_kappa(2)).scale(k))
        return cxw * inner
    t = ProjClass.from_mono(amb, (0, 1, 0, 1), pt.p_sym(pt.S_G, k))
    return t + ProjClass.from_point(amb, pt.p_sym(("e", 2)))


def euler_product(amb: Ambient, bs: BundleSum) -> ProjClass:
    """Product of the single-bundle Euler classes; the brute-force oracle.

    It memoises nothing itself (the line classes read their space's
    units).  It starts from the first line class, so no product with
    the unit is taken; the empty sum is the unit."""
    if (amb.p, amb.q) != bs.ambient:
        raise ValueError("ambient mismatch")
    out = None
    for b in bs.bundles:
        line = euler_line(amb, b)
        out = line if out is None else out * line
    return ProjClass.unit(amb) if out is None else out


def euler_type_block(amb: Ambient, family: str, count: int, degree_product: int) -> ProjClass:
    """Euler class of a sum of `count` bundles of one family with the
    given product of degrees."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if count == 0:
        if degree_product != 1:
            raise ValueError("empty block must have degree product 1")
        return ProjClass.unit(amb)
    if family in ("I", "III"):
        if degree_product % 2 == 0:
            raise ValueError("odd families need an odd degree product")
        # c^n + (d - 1)/2 zeta c^(n-1) Q, with zeta c^(n-1) Q the S_1 unit
        if family == "I":
            lead, lower = (0, 0, count, 0), (0, 1, count - 1, 0)
        else:
            lead, lower = (0, 0, 0, count), (1, 0, 0, count - 1)
        return linear_combination(amb, [(1, ProjClass.from_mono(amb, lead)),
                                        s_kernel_pair(amb, lower, 1, degree_product - 1)])
    if family == "II":
        if degree_product % (1 << count):
            raise ArithmeticError(
                f"degree product {degree_product} of {count} even bundles is "
                f"not divisible by 2^{count}")
        # d/2^c * Q^c is (d/2) times the defect-c kernel Q^c / 2^(c-1),
        # which avoids dividing classes by 2
        return linear_combination(amb, [s_kernel_pair(amb, UNIT, count, degree_product)])
    # family IV
    out = class_chi_Q(amb) ** count
    c = _exact_half(degree_product - (1 << count), "d_IV - 2^n_IV")
    if c:
        out = out + proj_tau(amb, {(2 * count, 0, count): c})
    return out


def euler_type_block_binomial(amb: Ambient, count: int, degree_product: int) -> ProjClass:
    """Second form of the twisted-even block, via parity of binomials."""
    out = ProjClass.zero(amb)
    for j in range(count + 1):
        if comb(count, j) % 2:
            out = out + ProjClass.from_mono(amb, (j, count - j, j, count - j))
    c = _exact_half(degree_product - (1 << beta(count)), "d_IV - 2^beta")
    if c:
        out = out + proj_tau(amb, {(2 * count, 0, count): c})
    return out


def _free_orbit_pairs(amb: Ambient, inv: BundleInvariants, coeff: int) -> list:
    if coeff == 0:
        return []
    return tau_pairs(
        amb, {(2 * inv.k0, inv.k1 - inv.k0, amb.p + amb.q - inv.m): coeff})


def pick_delta_star(inv: BundleInvariants) -> int:
    """Reference value for the el <= 0 closed form.

    The four-term expression is independent of the choice; min(D0, D1)
    matches the stated formula, but a negative total degree can make the
    minimal choice hit a negative exponent, in which case the other
    representative is the valid one.
    """
    candidates = sorted({inv.Delta0, inv.Delta1})
    for cand in candidates:
        if inv.Delta0 != cand and inv.k1 < 1:
            continue
        if inv.Delta1 != cand and inv.k0 < 1:
            continue
        if (inv.Delta0 - cand) % 2 or (inv.Delta1 - cand) % 2:
            continue
        return cand
    raise ArithmeticError(f"no admissible reference degree for {inv}")


def euler_closed_form(amb: Ambient, inv: BundleInvariants) -> ProjClass:
    """Closed form for the Euler class of the whole sum."""
    inv.require_context()
    if (amb.p, amb.q) != (inv.p, inv.q):
        raise ValueError("ambient mismatch")
    if inv.ell <= 0:
        return _closed_form_low(amb, inv)
    return _closed_form_high(amb, inv)


# The closed forms are linear combinations of memoised unit classes
# (S-kernels and transfers) and reduced monomials, each summed in one pass.

def _closed_form_low(amb: Ambient, inv: BundleInvariants) -> ProjClass:
    p, q = amb.p, amb.q
    l = -inv.ell
    k0, k1 = inv.k0, inv.k1
    if inv.m0 <= 0 and inv.m1 <= 0:
        pairs = _free_orbit_pairs(amb, inv, _exact_half(inv.Delta, "Delta"))
    elif inv.m0 <= 0:
        # Delta0 is zeroed; the lead term rides the saturated c_w^p power.
        j = inv.m - inv.m1
        pairs = [s_kernel_pair(amb, (inv.m0, 0, k1, q - inv.m), j, inv.Delta1)]
        pairs += _free_orbit_pairs(
            amb, inv, _exact_half(inv.Delta - inv.Delta1, "Delta - Delta1"))
    elif inv.m1 <= 0:
        j = inv.m - inv.m0
        pairs = [s_kernel_pair(amb, (0, inv.m1, p - inv.m, k0), j, inv.Delta0)]
        pairs += _free_orbit_pairs(
            amb, inv, _exact_half(inv.Delta - inv.Delta0, "Delta - Delta0"))
    else:
        dstar = pick_delta_star(inv)
        pairs = [s_kernel_pair(amb, (0, 0, k1, k0), l, dstar)]
        if inv.Delta0 != dstar:
            pairs.append(s_kernel_pair(amb, (0, 1, k1 - 1, k0), l + 1, inv.Delta0 - dstar))
        if inv.Delta1 != dstar:
            pairs.append(s_kernel_pair(amb, (1, 0, k1, k0 - 1), l + 1, inv.Delta1 - dstar))
        dmax = inv.Delta0 + inv.Delta1 - dstar
        pairs += _free_orbit_pairs(
            amb, inv, _exact_half(inv.Delta - dmax, "Delta - Delta_max"))
    return linear_combination(amb, pairs)


def _closed_form_high(amb: Ambient, inv: BundleInvariants) -> ProjClass:
    ell, k0, k1 = inv.ell, inv.k0, inv.k1
    eps = inv.eps
    pairs = []
    if eps:
        for j in range(1, ell):
            if comb(ell, j) % 2:
                pairs.append((1, ProjClass.from_mono(
                    amb, (j, ell - j, inv.n0 + j, k0 - j))))
    if inv.Delta0:
        pairs.append((inv.Delta0, ProjClass.from_mono(amb, (0, ell, inv.n0, k0))))
    if inv.Delta1:
        pairs.append((inv.Delta1, ProjClass.from_mono(amb, (ell, 0, k1, inv.n1))))
    cfree = _exact_half(
        inv.Delta - inv.Delta0 - inv.Delta1 - eps * ((1 << beta(ell)) - 2),
        "free-orbit numerator")
    pairs += _free_orbit_pairs(amb, inv, cfree)
    return linear_combination(amb, pairs)


def euler_I_and_III(amb: Ambient, nI: int, dI: int, nIII: int, dIII: int) -> ProjClass:
    """Closed product of the two odd blocks, for the lemma cross-check."""
    if (nI == 0 and dI != 1) or (nIII == 0 and dIII != 1):
        raise ValueError("empty block must have degree product 1")
    # zeta1 c_w^(nI-1) c_xw^nIII Q and zeta0 c_w^nI c_xw^(nIII-1) Q are
    # S_1 units
    c = _exact_half((dI - 1) * (dIII - 1), "(dI-1)(dIII-1)")
    return linear_combination(amb, [
        (1, ProjClass.from_mono(amb, (0, 0, nI, nIII))),
        s_kernel_pair(amb, (0, 1, nI - 1, nIII), 1, dI - 1),
        s_kernel_pair(amb, (1, 0, nI, nIII - 1), 1, dIII - 1),
    ] + tau_pairs(amb, {(2 * nIII, nI - nIII, nI + nIII): c}))
