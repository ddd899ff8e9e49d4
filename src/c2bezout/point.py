"""Exact arithmetic in the RO(C2)-graded cohomology of a point.

The implemented subring is spanned by the canonical symbols

    1, g, e^m, xi^n, e^m xi^n (2-torsion), e^-m kappa, tau(iota^-2k),

which is everything the Euler-class and Bezout calculations touch.  kappa
is not a basis symbol; it normalizes to 2 - g.  Products are closed in
this span; transfers of odd iota powers are refused rather than modeled.

An element is a tuple of (symbol, coefficient) pairs in symbol order,
with no zero coefficients and the 2-torsion coefficients reduced mod 2,
so equal elements are equal tuples.  Every `p_*` constructor and
operation takes and returns this form; `p_normalize` makes it from a
dict or from unsorted pairs, at the boundary with outside input.
Symbol keys:

    ('1',)          the unit
    ('g',)          the free orbit class, g = tau(1), g^2 = 2g
    ('e', m)        e^m, m >= 1
    ('xi', n)       xi^n, n >= 1
    ('exi', m, n)   e^m xi^n, m,n >= 1, coefficient mod 2
    ('eik', m)      e^-m kappa, m >= 1
    ('tin', k)      tau(iota^-2k), k >= 1
"""

from __future__ import annotations

import os

from .grading import ROC2Degree

Sym = tuple
Coeff = tuple  # an element: ((symbol, coefficient), ...) in symbol order

# entries per cache: the symbol-product table here, and each ambient's
# reduction, basis and class caches in projective
CACHE_LIMIT = int(os.environ.get("C2BEZOUT_CACHE_SIZE", "2000000"))

S_ONE: Sym = ("1",)
S_G: Sym = ("g",)


class OutsideSupportedSubring(ArithmeticError):
    """Raised for elements in the unmodeled odd fourth-quadrant sector."""


def sym_ranks(s: Sym) -> tuple:
    """(trivial rank, sign rank) of the symbol's degree a + b sigma."""
    kind = s[0]
    if kind in ("1", "g"):
        return (0, 0)
    if kind == "e":
        return (0, s[1])
    if kind == "xi":
        return (-2 * s[1], 2 * s[1])
    if kind == "exi":
        m, n = s[1], s[2]
        return (-2 * n, m + 2 * n)
    if kind == "eik":
        return (0, -s[1])
    if kind == "tin":
        return (2 * s[1], -2 * s[1])
    raise ValueError(f"unknown symbol {s}")


def sym_degree(s: Sym) -> ROC2Degree:
    return ROC2Degree(*sym_ranks(s))


def _put(out: dict, s: Sym, c: int) -> None:
    c += out.get(s, 0)
    if s[0] == "exi":
        c %= 2
    if c:
        out[s] = c
    else:
        out.pop(s, None)


def p_normalize(pairs) -> Coeff:
    """The element with the given (symbol, coefficient) pairs, from a dict
    or any iterable of pairs, in any order and with repeats: the one entry
    point for elements built outside this module."""
    out: dict = {}
    for s, c in (pairs.items() if isinstance(pairs, dict) else pairs):
        _put(out, s, c)
    return tuple(sorted(out.items()))


def p_int(n: int) -> Coeff:
    return ((S_ONE, n),) if n else ()


def p_sym(s: Sym, c: int = 1) -> Coeff:
    if s[0] == "exi":
        c %= 2
    return ((s, c),) if c else ()


def p_kappa(power_of_e: int = 0) -> Coeff:
    """e^-m kappa.  For m = 0 this is kappa = 2 - g; for negative m it
    collapses, since e^j kappa = 2 e^j."""
    if power_of_e == 0:
        return ((S_ONE, 2), (S_G, -1))
    if power_of_e < 0:
        return ((("e", -power_of_e), 2),)
    return ((("eik", power_of_e), 1),)


def p_one_minus_kappa() -> Coeff:
    return ((S_ONE, -1), (S_G, 1))


def p_add(a: Coeff, b: Coeff) -> Coeff:
    """a + b: a merge of the two symbol-ordered tuples."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        sa, ca = a[i]
        sb, cb = b[j]
        if sa == sb:
            c = ca + cb
            if sa[0] == "exi":
                c %= 2
            if c:
                out.append((sa, c))
            i += 1
            j += 1
        elif sa < sb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out) + a[i:] + b[j:]


def p_scale(a: Coeff, n: int) -> Coeff:
    if n == 1:
        return a
    out = []
    for s, c in a:
        c *= n
        if s[0] == "exi":
            c %= 2
        if c:
            out.append((s, c))
    return tuple(out)


def _mul_sym(a: Sym, b: Sym):
    """Product of two basis symbols as a list of (symbol, coefficient)."""
    if a[0] == "1":
        return [(b, 1)]
    if b[0] == "1":
        return [(a, 1)]
    ka, kb = a[0], b[0]
    # Route products with g or tau(iota^-2k) through the Frobenius
    # relation x*tau(y) = tau(rho(x) y); rho and tau stay in the span.
    if ka in ("g", "tin") or kb in ("g", "tin"):
        if ka in ("g", "tin"):
            t, x = a, b
        else:
            t, x = b, a
        texp = 0 if t[0] == "g" else -t[1]  # tau(iota^{2*texp})
        r = p_rho(p_sym(x))                 # dict iota-exp -> int
        out = []
        for ie, c in r.items():
            for s2, c2 in _tau_iota(texp + ie // 2):
                out.append((s2, c * c2))
        return out
    if ka > kb:
        a, b = b, a
        ka, kb = kb, ka
    # Remaining kinds in lex order: e < eik < exi < xi.
    if ka == "e":
        if kb == "e":
            return [(("e", a[1] + b[1]), 1)]
        if kb == "xi":
            return [(("exi", a[1], b[1]), 1)]
        if kb == "exi":
            return [(("exi", a[1] + b[1], b[2]), 1)]
        if kb == "eik":
            m, k = a[1], b[1]
            if m < k:
                return [(("eik", k - m), 1)]
            if m == k:
                return [(S_ONE, 2), (S_G, -1)]
            return [(("e", m - k), 2)]
    if ka == "eik":
        if kb == "eik":
            return [(("eik", a[1] + b[1]), 2)]
        # xi * e^-m kappa = 0 and e^a xi^b * e^-m kappa = 0.
        if kb in ("xi", "exi"):
            return []
    if ka == "exi":
        if kb == "exi":
            return [(("exi", a[1] + b[1], a[2] + b[2]), 1)]
        if kb == "xi":
            return [(("exi", a[1], a[2] + b[1]), 1)]
    if ka == "xi" and kb == "xi":
        return [(("xi", a[1] + b[1]), 1)]
    raise AssertionError(f"unhandled symbol product {a} * {b}")


# (a, b) -> the product of two symbols as _mul_sym gives it, in normal form
_PRODUCTS: dict = {}


def _product_entry(a: Sym, b: Sym) -> Coeff:
    entry = p_normalize(_mul_sym(a, b))
    if len(_PRODUCTS) >= CACHE_LIMIT:
        _PRODUCTS.clear()
    _PRODUCTS[(a, b)] = entry
    return entry


def p_mul(a: Coeff, b: Coeff) -> Coeff:
    """a * b; a product of single symbols is read from the table."""
    if len(a) == 1 and len(b) == 1:
        (sa, ca), = a
        (sb, cb), = b
        entry = _PRODUCTS.get((sa, sb))
        if entry is None:
            entry = _product_entry(sa, sb)
        return p_scale(entry, ca * cb)
    out: dict = {}
    get = out.get
    for sa, ca in a:
        for sb, cb in b:
            entry = _PRODUCTS.get((sa, sb))
            if entry is None:
                entry = _product_entry(sa, sb)
            n = ca * cb
            for s, c in entry:
                v = get(s, 0) + n * c
                out[s] = v % 2 if s[0] == "exi" else v
    return tuple(sorted((s, c) for s, c in out.items() if c))


def _tau_iota(j: int):
    """tau(iota^{2j}) as symbol list: g, 2 xi^j, or tau(iota^{-2|j|})."""
    if j == 0:
        return [(S_G, 1)]
    if j > 0:
        return [(("xi", j), 2)]
    return [(("tin", -j), 1)]


def p_tau(laurent: dict) -> Coeff:
    """Transfer of a point-level Laurent class {iota_exponent: coeff}."""
    for ie in laurent:
        if ie % 2 != 0:
            raise OutsideSupportedSubring(
                f"tau(iota^{ie}) lies outside the supported subring"
            )
    return p_normalize((s, c * c2) for ie, c in laurent.items()
                       for s, c2 in _tau_iota(ie // 2))


def p_rho(a: Coeff) -> dict:
    """Restriction to the nonequivariant point, as {iota_exponent: coeff}."""
    out: dict = {}
    for s, c in a:
        kind = s[0]
        if kind == "1":
            e, v = 0, 1
        elif kind == "g":
            e, v = 0, 2
        elif kind == "xi":
            e, v = 2 * s[1], 1
        elif kind == "tin":
            e, v = -2 * s[1], 2
        else:  # e^m, e^m xi^n, e^-m kappa all restrict to 0
            continue
        n = out.get(e, 0) + c * v
        if n:
            out[e] = n
        else:
            out.pop(e, None)
    return out


def p_fixed(a: Coeff) -> int:
    """Fixed-point value.  The target is Z concentrated in degree 0, so
    only the symbols with trivial fixed grading contribute."""
    total = 0
    for s, c in a:
        kind = s[0]
        if kind == "1":
            total += c
        elif kind == "e":
            total += c
        elif kind == "eik":
            total += 2 * c
        # g, xi, exi, tin all have fixed value 0
    return total


def p_degrees(a: Coeff) -> set:
    return {sym_degree(s) for s, _ in a}


# ---------------------------------------------------------------------------
# rendering

def _sym_text(s: Sym) -> str:
    kind = s[0]
    if kind == "1":
        return ""
    if kind == "g":
        return "g"
    if kind == "e":
        return "e" if s[1] == 1 else f"e^{s[1]}"
    if kind == "xi":
        return "xi" if s[1] == 1 else f"xi^{s[1]}"
    if kind == "exi":
        m, n = s[1], s[2]
        e = "e" if m == 1 else f"e^{m}"
        x = "xi" if n == 1 else f"xi^{n}"
        return f"{e} {x}"
    if kind == "eik":
        return f"e^-{s[1]} kappa"
    if kind == "tin":
        return f"tau(iota^-{2 * s[1]})"
    raise ValueError(s)


def _sym_latex(s: Sym) -> str:
    kind = s[0]
    if kind == "1":
        return ""
    if kind == "g":
        return "g"
    if kind == "e":
        return "e" if s[1] == 1 else f"e^{{{s[1]}}}"
    if kind == "xi":
        return r"\xi" if s[1] == 1 else rf"\xi^{{{s[1]}}}"
    if kind == "exi":
        return _sym_latex(("e", s[1])) + _sym_latex(("xi", s[2]))
    if kind == "eik":
        return rf"e^{{-{s[1]}}}\kappa"
    if kind == "tin":
        return rf"\tau(\iota^{{-{2 * s[1]}}})"
    raise ValueError(s)


def _fold_kappa(a: Coeff):
    """Split off t*(2 - g) when the 1/g coefficients are an exact multiple."""
    terms = dict(a)
    c1 = terms.get(S_ONE, 0)
    cg = terms.get(S_G, 0)
    if cg != 0 and c1 == -2 * cg:
        return -cg, [(s, c) for s, c in a if s not in (S_ONE, S_G)]
    return 0, a


def p_text(a: Coeff, latex: bool = False) -> str:
    if not a:
        return "0"
    kap, rest = _fold_kappa(a)
    pieces = []
    if kap:
        name = r"\kappa" if latex else "kappa"
        pieces.append((kap, name))
    for s, c in rest:
        pieces.append((c, _sym_latex(s) if latex else _sym_text(s)))
    out = ""
    for c, name in pieces:
        body = name if name else str(abs(c))
        if name and abs(c) != 1:
            body = f"{abs(c)} {name}" if not latex else f"{abs(c)}{name}"
        sign = "-" if c < 0 else "+"
        out = body if not out and c > 0 else f"{out} {sign} {body}".strip() if out else f"-{body}"
    return out


def p_json(a: Coeff) -> list:
    return [{"symbol": s[0], "params": list(s[1:]), "coeff": c} for s, c in a]
