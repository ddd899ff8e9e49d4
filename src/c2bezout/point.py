"""Exact arithmetic in the RO(C2)-graded cohomology of a point, and the
census of a degree window.  Nothing here prints: `render.point_text` and
`render.point_json` give an element's text, LaTeX and JSON.

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

Sym = tuple
Coeff = tuple  # an element: ((symbol, coefficient), ...) in symbol order

# entries per cache: the symbol-product and shared-value tables here, and
# each ring's table in projective, counted over all its sub-tables
CACHE_LIMIT = int(os.environ.get("C2BEZOUT_CACHE_SIZE", "2000000"))


def cache_insert(cache: dict, key, value):
    """cache[key] = value, emptying the cache first when it holds
    CACHE_LIMIT entries: the eviction policy of every cache, which a
    ring's table in projective applies to all its sub-tables at once."""
    if len(cache) >= CACHE_LIMIT:
        cache.clear()
    cache[key] = value
    return value


S_ONE: Sym = ("1",)
S_G: Sym = ("g",)

# element -> the one object that the caches keep for that value
_SHARED: dict = {}


def p_shared(a: Coeff) -> Coeff:
    """The process-wide object equal to the element a; a value asked for
    the first time becomes its own shared object."""
    got = _SHARED.get(a)
    if got is None:
        got = cache_insert(_SHARED, a, a)
    return got


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


# symbol kind -> the number of its parameters, each an int >= 1
_ARITY = {"1": 0, "g": 0, "e": 1, "xi": 1, "exi": 2, "eik": 1, "tin": 1}


def _check_sym(s) -> None:
    if (type(s) is not tuple or not s or type(s[0]) is not str
            or _ARITY.get(s[0]) != len(s) - 1):
        raise ValueError(f"not a point symbol: {s!r}")
    for k in s[1:]:
        if type(k) is not int or k < 1:
            raise ValueError(f"not a point symbol: {s!r}")


def _is_normal(a: tuple) -> bool:
    """Whether the tuple a is an element in normal form; a malformed
    symbol is a ValueError."""
    prev = None
    for pair in a:
        if type(pair) is not tuple or len(pair) != 2:
            return False
        s, c = pair
        _check_sym(s)
        if (type(c) is not int or not c or (s[0] == "exi" and c != 1)
                or (prev is not None and s <= prev)):
            return False
        prev = s
    return True


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
    point for elements built outside this module, so an unknown symbol
    kind or malformed parameters are a ValueError.  An element already in
    normal form is returned as it is, not copied."""
    if type(pairs) is tuple and _is_normal(pairs):
        return pairs
    out: dict = {}
    for s, c in (pairs.items() if isinstance(pairs, dict) else pairs):
        _check_sym(s)
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


# (m, n) with the symbol e^m xi^n, for the kinds that are such a power
_E_XI = {"e": lambda s: (s[1], 0), "xi": lambda s: (0, s[1]),
         "exi": lambda s: (s[1], s[2])}


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
    if kb == "eik":
        if ka == "e":
            m, k = a[1], b[1]
            if m < k:
                return [(("eik", k - m), 1)]
            if m == k:
                return [(S_ONE, 2), (S_G, -1)]
            return [(("e", m - k), 2)]
        if ka == "eik":
            return [(("eik", a[1] + b[1]), 2)]
    elif ka == "eik":
        # xi * e^-m kappa = 0 and e^a xi^b * e^-m kappa = 0.
        if kb in ("xi", "exi"):
            return []
    elif ka in _E_XI and kb in _E_XI:
        # e^m xi^n * e^m' xi^n' = e^(m+m') xi^(n+n')
        (ma, na), (mb, nb) = _E_XI[ka](a), _E_XI[kb](b)
        m, n = ma + mb, na + nb
        if not n:
            return [(("e", m), 1)]
        return [(("exi", m, n) if m else ("xi", n), 1)]
    raise AssertionError(f"unhandled symbol product {a} * {b}")


# (a, b) -> the product of two symbols as _mul_sym gives it, in normal
# form, as the shared object for its value: p_mul of two single symbols
# whose coefficients multiply to 1 returns that object itself
_PRODUCTS: dict = {}


def _product_entry(a: Sym, b: Sym) -> Coeff:
    return cache_insert(_PRODUCTS, (a, b), p_shared(p_normalize(_mul_sym(a, b))))


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


def p_tau_iota(j: int) -> Coeff:
    """tau(iota^{2j}), the transfer of one even iota power, as the point
    ring's shared element: g, 2 xi^j or tau(iota^{-2|j|})."""
    return p_shared(tuple(_tau_iota(j)))


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
        elif kind in ("e", "exi", "eik"):   # these restrict to 0
            continue
        else:
            raise ValueError(f"unknown symbol {s}")
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
        if kind in ("1", "e"):
            total += c
        elif kind == "eik":
            total += 2 * c
        # g, xi, exi, tin all have fixed value 0
    return total


# ---------------------------------------------------------------------------
# the census of a degree window

# The largest window the census takes: a window w has about w^2 / 4
# symbols, so 256 (about 17,000 symbols) lists in a fraction of a second.
WINDOW_MAX = 256


def point_symbols_in_window(window: int) -> list:
    """The canonical symbols of degree a + b sigma with |a|, |b| <= window.
    A window outside 0..WINDOW_MAX is a ValueError, raised before any
    symbol is built."""
    if not 0 <= window <= WINDOW_MAX:
        raise ValueError(f"window must be between 0 and {WINDOW_MAX}, got {window}")
    syms = [S_ONE, S_G]
    syms += [("e", m) for m in range(1, window + 1)]
    syms += [("eik", m) for m in range(1, window + 1)]
    syms += [("xi", n) for n in range(1, window // 2 + 1)]
    syms += [("tin", k) for k in range(1, window // 2 + 1)]
    for n in range(1, window // 2 + 1):
        for m in range(1, window - 2 * n + 1):
            syms.append(("exi", m, n))
    out = []
    for s in syms:
        a, b = sym_ranks(s)
        if abs(a) <= window and abs(b) <= window:
            out.append(s)
    return out


def point_census(window: int) -> dict:
    """{(a, b): the window's symbols of degree a + b sigma}."""
    census: dict = {}
    for s in point_symbols_in_window(window):
        census.setdefault(sym_ranks(s), []).append(s)
    return census


def point_group(syms: list) -> str:
    """The group of one degree of the point ring, read off the symbols
    spanning it: A(C2) for {1, g}, Z/2 for one 2-torsion e^m xi^n, Z for
    any other single symbol, 0 for none.  Any other span is named by its
    size, which matches no group of Fig. 1."""
    if sorted(syms) == [S_ONE, S_G]:
        return "A(C2)"
    if len(syms) == 1:
        return "Z/2" if syms[0][0] == "exi" else "Z"
    return f"{len(syms)} symbols" if syms else "0"
