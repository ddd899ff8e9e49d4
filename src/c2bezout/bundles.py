"""Line bundles over the projective space and Euler classes of sums.

Line bundles fall into four families: untwisted odd (I), untwisted even
(II), twisted odd (III) and twisted even (IV), where "twisted" means
tensored with the sign line.  A bundle token reads O(<int>) or xO(<int>).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from . import point as pt
from .grading import OMEGA, CHI_OMEGA, TWO, SIGMA, PiBDegree
from .projective import (UNIT, Ambient, ProjClass, class_Q, class_chi_Q,
                         linear_combination, proj_tau, pushed_s_kernel,
                         gen_zeta0, gen_zeta1)

FAMILIES = ("I", "II", "III", "IV")

# equivariant rank of one line bundle from each family
FAMILY_DEGREE = {
    "I": OMEGA,
    "II": TWO,
    "III": CHI_OMEGA,
    "IV": 2 * SIGMA,
}


class BundleParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class ContextViolation(ValueError):
    """A bundle sum outside the geometric hypotheses of the closed forms."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("context violated: " + "; ".join(self.violations))


@dataclass(frozen=True, order=True)
class LineBundleSpec:
    family: str
    degree: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        odd = self.family in ("I", "III")
        if self.degree % 2 != (1 if odd else 0):
            raise ValueError(
                f"degree {self.degree} has the wrong parity for family {self.family}")

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


@dataclass(frozen=True)
class BundleSum:
    ambient: tuple  # (p, q)
    bundles: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "bundles", tuple(sorted(self.bundles)))

    @property
    def n(self) -> int:
        return len(self.bundles)

    def token(self) -> str:
        return ",".join(b.token() for b in self.bundles)


@dataclass(frozen=True)
class BundleInvariants:
    p: int
    q: int
    n: int
    n_by_family: dict
    d_by_family: dict
    n0: int
    n1: int
    Delta: int
    Delta0: int
    Delta1: int
    m: int
    m0: int
    m1: int
    ell: int
    k0: int
    k1: int
    eps: int
    DeltaMin: int
    DeltaMax: int
    context_violations: tuple

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
    counts = {f: 0 for f in FAMILIES}
    degs = {f: 1 for f in FAMILIES}
    for b in bs.bundles:
        counts[b.family] += 1
        degs[b.family] *= b.degree
    n = bs.n
    n0 = counts["I"] + counts["II"]
    n1 = counts["II"] + counts["III"]
    Delta = degs["I"] * degs["II"] * degs["III"] * degs["IV"]
    Delta0 = degs["I"] * degs["II"] if n0 < p else 0
    Delta1 = degs["II"] * degs["III"] if n1 < q else 0
    m = p + q - n
    m0 = p - n0
    m1 = q - n1
    return BundleInvariants(
        p=p, q=q, n=n, n_by_family=dict(counts), d_by_family=dict(degs),
        n0=n0, n1=n1, Delta=Delta, Delta0=Delta0, Delta1=Delta1,
        m=m, m0=m0, m1=m1, ell=n - n0 - n1, k0=n - n0, k1=n - n1,
        eps=Delta0 % 2,
        DeltaMin=min(Delta0, Delta1), DeltaMax=max(Delta0, Delta1),
        context_violations=violations_from_counts(p, q, n, n0, n1),
    )


def context_violations(bs: BundleSum) -> tuple:
    """The closed-form hypotheses the sum violates, as bundle_invariants
    reports them, without computing the other invariants."""
    p, q = bs.ambient
    n0 = sum(b.family in ("I", "II") for b in bs.bundles)
    n1 = sum(b.family in ("II", "III") for b in bs.bundles)
    return violations_from_counts(p, q, bs.n, n0, n1)


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


def rem2(k: int) -> int:
    return k % 2


def _exact_half(n: int, what: str) -> int:
    if n % 2:
        raise ArithmeticError(f"{what} = {n} is not even; input outside the "
                              "closed-form hypotheses or a kernel bug")
    return n // 2


def euler_line(amb: Ambient, spec: LineBundleSpec) -> ProjClass:
    """Euler class of a single line bundle, in closed form."""
    k = spec.k
    if spec.family == "I":
        out = ProjClass.from_mono(amb, (0, 0, 1, 0))
        if k:
            out = out + (gen_zeta1(amb) * class_Q(amb)).scale(k)
        return out
    if spec.family == "II":
        return class_Q(amb).scale(k)
    if spec.family == "III":
        out = ProjClass.from_mono(amb, (0, 0, 0, 1))
        if k:
            out = out + (gen_zeta0(amb) * class_Q(amb)).scale(k)
        return out
    out = class_chi_Q(amb)
    if k != 1:
        out = out + proj_tau(amb, {(2, 0, 1): k - 1})
    return out


def euler_line_raw(amb: Ambient, spec: LineBundleSpec) -> ProjClass:
    """The unsimplified single-bundle expressions; used as a cross-check."""
    k = spec.k
    Q = class_Q(amb)
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
    """Product of the single-bundle Euler classes; the brute-force oracle."""
    out = ProjClass.unit(amb)
    for b in bs.bundles:
        out = out * euler_line(amb, b)
    return out


def euler_type_block(amb: Ambient, family: str, count: int, degree_product: int) -> ProjClass:
    """Euler class of a sum of `count` bundles of one family with the
    given product of degrees."""
    if count == 0:
        if degree_product != 1:
            raise ValueError("empty block must have degree product 1")
        return ProjClass.unit(amb)
    if family in ("I", "III"):
        if degree_product % 2 == 0:
            raise ValueError("odd families need an odd degree product")
        gen_mono = (0, 0, 1, 0) if family == "I" else (0, 0, 0, 1)
        zeta = gen_zeta1(amb) if family == "I" else gen_zeta0(amb)
        lead = ProjClass.from_mono(amb, tuple(e * count for e in gen_mono))
        half = _exact_half(degree_product - 1, "d - 1")
        if half == 0:
            return lead
        lower = ProjClass.from_mono(amb, tuple(e * (count - 1) for e in gen_mono))
        return lead + (lower * zeta * class_Q(amb)).scale(half)
    if family == "II":
        if degree_product % (1 << count):
            raise ArithmeticError(
                f"degree product {degree_product} of {count} even bundles is "
                f"not divisible by 2^{count}")
        # d/2^c * Q^c is (d/2) times the defect-c kernel Q^c / 2^(c-1),
        # which avoids dividing classes by 2
        return pushed_s_kernel(amb, UNIT, count, degree_product)
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


def _free_orbit_tau(amb: Ambient, inv: BundleInvariants, coeff: int) -> ProjClass:
    if coeff == 0:
        return ProjClass.zero(amb)
    return proj_tau(
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


def _closed_form_low(amb: Ambient, inv: BundleInvariants) -> ProjClass:
    p, q = amb.p, amb.q
    l = -inv.ell
    k0, k1 = inv.k0, inv.k1
    if inv.m0 <= 0 and inv.m1 <= 0:
        return _free_orbit_tau(amb, inv, _exact_half(inv.Delta, "Delta"))
    if inv.m0 <= 0:
        # Delta0 is zeroed; the lead term rides the saturated c_w^p power.
        j = inv.m - inv.m1
        out = pushed_s_kernel(amb, (inv.m0, 0, k1, q - inv.m), j, inv.Delta1)
        return out + _free_orbit_tau(
            amb, inv, _exact_half(inv.Delta - inv.Delta1, "Delta - Delta1"))
    if inv.m1 <= 0:
        j = inv.m - inv.m0
        out = pushed_s_kernel(amb, (0, inv.m1, p - inv.m, k0), j, inv.Delta0)
        return out + _free_orbit_tau(
            amb, inv, _exact_half(inv.Delta - inv.Delta0, "Delta - Delta0"))
    dstar = pick_delta_star(inv)
    parts = [(1, pushed_s_kernel(amb, (0, 0, k1, k0), l, dstar))]
    if inv.Delta0 != dstar:
        parts.append((1, pushed_s_kernel(amb, (0, 1, k1 - 1, k0), l + 1, inv.Delta0 - dstar)))
    if inv.Delta1 != dstar:
        parts.append((1, pushed_s_kernel(amb, (1, 0, k1, k0 - 1), l + 1, inv.Delta1 - dstar)))
    dmax = inv.Delta0 + inv.Delta1 - dstar
    parts.append((1, _free_orbit_tau(
        amb, inv, _exact_half(inv.Delta - dmax, "Delta - Delta_max"))))
    return linear_combination(amb, parts)


def _closed_form_high(amb: Ambient, inv: BundleInvariants) -> ProjClass:
    ell, k0, k1 = inv.ell, inv.k0, inv.k1
    eps = inv.eps
    parts = []
    if eps:
        for j in range(1, ell):
            if comb(ell, j) % 2:
                parts.append((1, ProjClass.from_mono(
                    amb, (j, ell - j, inv.n0 + j, k0 - j))))
    if inv.Delta0:
        parts.append((inv.Delta0, ProjClass.from_mono(amb, (0, ell, inv.n0, k0))))
    if inv.Delta1:
        parts.append((inv.Delta1, ProjClass.from_mono(amb, (ell, 0, k1, inv.n1))))
    cfree = _exact_half(
        inv.Delta - inv.Delta0 - inv.Delta1 - eps * ((1 << beta(ell)) - 2),
        "free-orbit numerator")
    parts.append((1, _free_orbit_tau(amb, inv, cfree)))
    return linear_combination(amb, parts)


def euler_I_and_III(amb: Ambient, nI: int, dI: int, nIII: int, dIII: int) -> ProjClass:
    """Closed product of the two odd blocks, for the lemma cross-check."""
    out = ProjClass.from_mono(amb, (0, 0, nI, nIII))
    hI = _exact_half(dI - 1, "dI - 1")
    hIII = _exact_half(dIII - 1, "dIII - 1")
    Q = class_Q(amb)
    if hI:
        out = out + (ProjClass.from_mono(amb, (0, 1, nI - 1, nIII)) * Q).scale(hI)
    if hIII:
        out = out + (ProjClass.from_mono(amb, (1, 0, nI, nIII - 1)) * Q).scale(hIII)
    c = _exact_half((dI - 1) * (dIII - 1), "(dI-1)(dIII-1)")
    if c:
        out = out + proj_tau(amb, {(2 * nIII, nI - nIII, nI + nIII): c})
    return out
