"""Exact arithmetic in the RO(C2)-graded cohomology of a point.

The implemented subring is spanned by the canonical symbols

    1, g, e^m, xi^n, e^m xi^n (2-torsion), e^-m kappa, tau(iota^-2k),

which is everything the Euler-class and Bezout calculations touch.  kappa
is not a basis symbol; it normalizes to 2 - g.  Products are closed in
this span; transfers of odd iota powers are refused rather than modeled.

Elements are dicts mapping symbol keys to integer coefficients.  Classes
and caches hold them frozen instead: a tuple of (symbol, coefficient)
pairs in sorted symbol order, which `p_freeze` makes.  Every `p_*`
function reads either form and returns a fresh dict; `c_mul`, `c_add`
and `c_scale` read and return the frozen form, so class arithmetic
builds a dict only inside a product of multi-term elements.  Symbol keys:

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
Terms = dict
Coeff = tuple  # frozen Terms: ((symbol, coefficient), ...) in symbol order

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


def _put(out: Terms, s: Sym, c: int) -> None:
    if c == 0:
        return
    if s[0] == "exi":
        c = (out.get(s, 0) + c) % 2
        if c:
            out[s] = c
        else:
            out.pop(s, None)
        return
    c = out.get(s, 0) + c
    if c:
        out[s] = c
    else:
        out.pop(s, None)


def _pairs(a: Terms | Coeff):
    return a.items() if type(a) is dict else a


def p_freeze(a: Terms) -> Coeff:
    """The frozen form of a normalized element (every p_* result is)."""
    return tuple(a.items()) if len(a) == 1 else tuple(sorted(a.items()))


def normalized(terms: Terms | Coeff) -> Terms:
    out: Terms = {}
    for s, c in _pairs(terms):
        _put(out, s, c)
    return out


def p_int(n: int) -> Terms:
    return {S_ONE: n} if n else {}


def p_sym(s: Sym, c: int = 1) -> Terms:
    out: Terms = {}
    _put(out, s, c)
    return out


def p_kappa(power_of_e: int = 0) -> Terms:
    """e^-m kappa.  For m = 0 this is kappa = 2 - g; for negative m it
    collapses, since e^j kappa = 2 e^j."""
    if power_of_e == 0:
        return {S_ONE: 2, S_G: -1}
    if power_of_e < 0:
        return {("e", -power_of_e): 2}
    return {("eik", power_of_e): 1}


def p_one_minus_kappa() -> Terms:
    return {S_ONE: -1, S_G: 1}


def p_add(a: Terms | Coeff, b: Terms | Coeff) -> Terms:
    out = dict(a)
    for s, c in _pairs(b):
        _put(out, s, c)
    return out


def p_scale(a: Terms | Coeff, n: int) -> Terms:
    out: Terms = {}
    for s, c in _pairs(a):
        c *= n
        if s[0] == "exi":
            c %= 2
        if c:
            out[s] = c
    return out


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


# (a, b) -> frozen product: the product of two symbols as _mul_sym gives
# it, reduced mod 2 where the symbol is 2-torsion
_PRODUCTS: dict = {}


def _product_entry(a: Sym, b: Sym) -> Coeff:
    prod: Terms = {}
    for s, c in _mul_sym(a, b):
        _put(prod, s, c)
    entry = p_freeze(prod)
    if len(_PRODUCTS) >= CACHE_LIMIT:
        _PRODUCTS.clear()
    _PRODUCTS[(a, b)] = entry
    return entry


def p_mul(a: Terms | Coeff, b: Terms | Coeff) -> Terms:
    out: Terms = {}
    get = out.get
    if type(b) is dict:
        b = b.items()
    for sa, ca in (a.items() if type(a) is dict else a):
        for sb, cb in b:
            entry = _PRODUCTS.get((sa, sb))
            if entry is None:
                entry = _product_entry(sa, sb)
            n = ca * cb
            for s, c in entry:
                v = get(s, 0) + n * c
                out[s] = v % 2 if s[0] == "exi" else v
    return {s: c for s, c in out.items() if c}


# ---------------------------------------------------------------------------
# frozen arithmetic: Coeff in, Coeff out

def c_scale(a: Coeff, n: int) -> Coeff:
    """n * a, frozen."""
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


def c_add(a: Coeff, b: Coeff) -> Coeff:
    """a + b, frozen: a merge of the two symbol-ordered tuples."""
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


def c_mul(a: Coeff, b: Coeff) -> Coeff:
    """a * b, frozen; a product of single symbols is read from the table."""
    if len(a) == 1 and len(b) == 1:
        (sa, ca), = a
        (sb, cb), = b
        entry = _PRODUCTS.get((sa, sb))
        if entry is None:
            entry = _product_entry(sa, sb)
        return c_scale(entry, ca * cb)
    return p_freeze(p_mul(a, b))


def _tau_iota(j: int):
    """tau(iota^{2j}) as symbol list: g, 2 xi^j, or tau(iota^{-2|j|})."""
    if j == 0:
        return [(S_G, 1)]
    if j > 0:
        return [(("xi", j), 2)]
    return [(("tin", -j), 1)]


def p_tau(laurent: dict) -> Terms:
    """Transfer of a point-level Laurent class {iota_exponent: coeff}."""
    out: Terms = {}
    for ie, c in laurent.items():
        if ie % 2 != 0:
            raise OutsideSupportedSubring(
                f"tau(iota^{ie}) lies outside the supported subring"
            )
        for s, c2 in _tau_iota(ie // 2):
            _put(out, s, c * c2)
    return out


def p_rho(a: Terms | Coeff) -> dict:
    """Restriction to the nonequivariant point, as {iota_exponent: coeff}."""
    out: dict = {}
    for s, c in _pairs(a):
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


def p_fixed(a: Terms | Coeff) -> int:
    """Fixed-point value.  The target is Z concentrated in degree 0, so
    only the symbols with trivial fixed grading contribute."""
    total = 0
    for s, c in _pairs(a):
        kind = s[0]
        if kind == "1":
            total += c
        elif kind == "e":
            total += c
        elif kind == "eik":
            total += 2 * c
        # g, xi, exi, tin all have fixed value 0
    return total


def p_degrees(a: Terms | Coeff) -> set:
    return {sym_degree(s) for s, _ in _pairs(a)}


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


def _fold_kappa(terms: Terms):
    """Split off t*(2 - g) when the 1/g coefficients are an exact multiple."""
    c1 = terms.get(S_ONE, 0)
    cg = terms.get(S_G, 0)
    if cg != 0 and c1 == -2 * cg:
        rest = {s: c for s, c in terms.items() if s not in (S_ONE, S_G)}
        return -cg, rest
    return 0, terms


def p_text(a: Terms, latex: bool = False) -> str:
    if not a:
        return "0"
    kap, rest = _fold_kappa(a)
    pieces = []
    if kap:
        name = r"\kappa" if latex else "kappa"
        pieces.append((kap, name))
    for s in sorted(rest, key=lambda s: (s[0], s[1:])):
        pieces.append((rest[s], _sym_latex(s) if latex else _sym_text(s)))
    out = ""
    for c, name in pieces:
        body = name if name else str(abs(c))
        if name and abs(c) != 1:
            body = f"{abs(c)} {name}" if not latex else f"{abs(c)}{name}"
        sign = "-" if c < 0 else "+"
        out = body if not out and c > 0 else f"{out} {sign} {body}".strip() if out else f"-{body}"
    return out


def p_json(a: Terms | Coeff) -> list:
    return [{"symbol": s[0], "params": list(s[1:]), "coeff": c}
            for s, c in sorted(_pairs(a))]
