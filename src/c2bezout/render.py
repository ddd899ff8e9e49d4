"""Text, LaTeX and JSON rendering of point elements, monomials, classes,
geometric terms and expansions; the kernel modules only compute.

Every power and product of powers prints by one rule: `name` for the
exponent 1, else `name^e` in text and `name^{e}` in LaTeX, the factors
joined by a space in text and by nothing in LaTeX.  Every signed sum
prints by one rule too, `_join`'s: a bare `-` before a negative first
chunk, then ` - ` or ` + ` before each later one, and `0` for no chunks.
A point coefficient of several chunks prints in parentheses before its
monomial; a single chunk lends its sign to the term.  Transfer-type
coefficients (g, tau(iota^-2k), and even multiples of xi powers on
monomials with Chern content) are folded into tau(...) of the monomial's
restriction, which is how the closed formulas are usually written;
everything else prints as coefficient * monomial.
"""

from __future__ import annotations

from . import point as pt
from .projective import ProjClass, mono_degree_pib, mono_rho
from .schubert import (BezoutExpansion, BinatePair, FixedPoint, FreeOrbit,
                       InvariantChain, has_half)

_GEN_TEXT = ("zeta0", "zeta1", "c_w", "c_xw")
_GEN_LATEX = (r"\zeta_0", r"\zeta_1", r"\widehat{c}_\omega", r"\widehat{c}_{\chi\omega}")
_TAU_TEXT = ("iota", "zeta", "c")
_TAU_LATEX = (r"\iota", r"\zeta", "c")


def _powers(names, exps, latex: bool) -> str:
    """The product of the names to the exponents, without the zero
    exponents; "" when every exponent is 0."""
    parts = [name if e == 1 else f"{name}^{{{e}}}" if latex else f"{name}^{e}"
             for name, e in zip(names, exps) if e]
    return ("" if latex else " ").join(parts)


def mono_text(m, latex: bool = False) -> str:
    return _powers(_GEN_LATEX if latex else _GEN_TEXT, m, latex) or "1"


def _tau_text(iexp: int, zexp: int, cexp: int, latex: bool) -> str:
    body = _powers(_TAU_LATEX if latex else _TAU_TEXT, (iexp, zexp, cexp), latex) or "1"
    return rf"\tau({body})" if latex else f"tau({body})"


# ---------------------------------------------------------------------------
# point elements

def _sym_name(s: pt.Sym, latex: bool) -> str:
    """The name of a basis symbol; "" for the unit."""
    kind = s[0]
    if kind == "1":
        return ""
    if kind == "g":
        return "g"
    if kind == "tin":
        return _tau_text(-2 * s[1], 0, 0, latex)
    xi, kappa = (r"\xi", r"\kappa") if latex else ("xi", "kappa")
    if kind == "e":
        return _powers(("e",), s[1:], latex)
    if kind == "xi":
        return _powers((xi,), s[1:], latex)
    if kind == "exi":
        return _powers(("e", xi), s[1:], latex)
    if kind == "eik":
        return _powers(("e", kappa), (-s[1], 1), latex)
    raise ValueError(s)


def _fold_kappa(a: pt.Coeff):
    """Split off t*(2 - g) when the 1/g coefficients are an exact multiple."""
    terms = dict(a)
    c1 = terms.get(pt.S_ONE, 0)
    cg = terms.get(pt.S_G, 0)
    if cg != 0 and c1 == -2 * cg:
        return -cg, [(s, c) for s, c in a if s not in (pt.S_ONE, pt.S_G)]
    return 0, a


def _join(chunks) -> str:
    """The signed sum of the (negative, magnitude text) chunks."""
    out = []
    for negative, body in chunks:
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append(body)
    return "".join(out) or "0"


def _point_chunks(a: pt.Coeff, latex: bool) -> list:
    kap, rest = _fold_kappa(a)
    pieces = [(kap, r"\kappa" if latex else "kappa")] if kap else []
    pieces += [(c, _sym_name(s, latex)) for s, c in rest]
    chunks = []
    for c, name in pieces:
        n = abs(c)
        if not name:
            body = str(n)
        elif n == 1:
            body = name
        else:
            body = f"{n}{name}" if latex else f"{n} {name}"
        chunks.append((c < 0, body))
    return chunks


def point_text(a: pt.Coeff, latex: bool = False) -> str:
    return _join(_point_chunks(a, latex))


def point_json(a: pt.Coeff) -> list:
    return [{"symbol": s[0], "params": list(s[1:]), "coeff": c} for s, c in a]


# ---------------------------------------------------------------------------
# classes

def _split_tau(coeff: pt.Coeff, m) -> tuple:
    """Split a coefficient into tau-foldable pieces and a remainder."""
    folded = []  # (integer multiple, iota-shift)
    rest = []    # the other pairs, still in symbol order
    has_c = m[2] + m[3] > 0
    for s, c in coeff:
        if s == pt.S_G:
            folded.append((c, 0))
        elif s[0] == "tin":
            folded.append((c, -2 * s[1]))
        elif s[0] == "xi" and c % 2 == 0 and has_c:
            folded.append((c // 2, 2 * s[1]))
        else:
            rest.append((s, c))
    return folded, tuple(rest)


def proj_text(cls: ProjClass, latex: bool = False) -> str:
    chunks = []
    for m, coeff in cls.terms:
        folded, rest = _split_tau(coeff, m)
        ia, za, ca = mono_rho(m)
        for mult, ishift in folded:
            t = _tau_text(ia + ishift, za, ca, latex)
            chunks.append((mult < 0, t if abs(mult) == 1 else f"{abs(mult)} {t}"))
        if not rest:
            continue
        cs = _point_chunks(rest, latex)
        if not any(m):
            chunks += cs
            continue
        ms = mono_text(m, latex)
        if len(cs) > 1:
            chunks.append((False, f"({_join(cs)}) {ms}"))
        else:
            (negative, body), = cs
            chunks.append((negative, ms if body == "1" else f"{body} {ms}"))
    return _join(chunks)


def proj_json(cls: ProjClass) -> list:
    out = []
    for m, coeff in cls.terms:
        out.append({
            "monomial": list(m),
            "degree": list(mono_degree_pib(m)),
            "coeff": point_json(coeff),
        })
    return out


# ---------------------------------------------------------------------------
# geometric terms

def _script(name: str, mark: str, index, latex: bool) -> str:
    """name with a sub- (mark "_") or superscript (mark "^"), braced in LaTeX."""
    return f"{name}{mark}{{{index}}}" if latex else f"{name}{mark}{index}"


def _x_text(pp: int, qq: int, latex: bool) -> str:
    if (pp, qq) == (1, 0):
        return r"\mathrm{pt}^+" if latex else "pt+"
    if (pp, qq) == (0, 1):
        return r"\mathrm{pt}^-" if latex else "pt-"
    return f"X^{{{pp},{qq}}}"


def term_text(term, amb, notation: str = "dim", latex: bool = False) -> str:
    if isinstance(term, FreeOrbit):
        fr = r"\mathrm{Fr}" if latex else "Fr"
        if notation == "dim":
            return _script(fr, "_", term.affine_dim, latex)
        return f"{fr}({term.codim(amb)})"
    if isinstance(term, FixedPoint):
        return _x_text(1, 0, latex) if term.component == 0 else _x_text(0, 1, latex)
    if isinstance(term, InvariantChain):
        def leaf(pp, qq):
            return _chain_one_text(pp, qq, amb, notation, latex)

        pieces = [leaf(term.pp, term.qq)]
        mids = []
        if term.j:
            mids.append(leaf(term.pp - term.j, term.qq))
        if term.i:
            mids.append(leaf(term.pp, term.qq - term.i))
        if mids:
            pieces.append((r" \cup " if latex else " u ").join(mids))
        if term.i and term.j:
            pieces.append(leaf(term.pp - term.j, term.qq - term.i))
        body = "; ".join(pieces)
        return f"[{body}]^*" if latex else f"[{body}]*"
    if isinstance(term, BinatePair):
        main = _binate_one_text(term.i, term.p_i, term.q_i, amb, notation, latex)
        if term.singular is None:
            return f"[{main}]^*" if latex else f"[{main}]*"
        if term.singular == "zeta0":
            sing = _binate_one_text(term.i - 1, term.p_i, term.q_i - 1, amb, notation, latex)
        else:
            sing = _binate_one_text(term.i - 1, term.p_i - 1, term.q_i, amb, notation, latex)
        return f"[{main}; {sing}]^*" if latex else f"[{main}; {sing}]*"
    raise TypeError(f"unknown term {term!r}")


def _binate_one_text(i, p_i, q_i, amb, notation, latex) -> str:
    s = r"\widetilde{S}" if latex else "S~"
    if notation == "codim":
        return _script(s, "_", amb.p + amb.q - i, latex) + f"({amb.p - p_i},{amb.q - q_i})"
    return _script(s, "^", i, latex) + f"_{{{max(p_i, 0)},{max(q_i, 0)}}}"


def _chain_one_text(pp, qq, amb, notation, latex) -> str:
    if notation == "codim":
        lam = amb.p + amb.q - pp - qq
        return _script("Y", "_", lam, latex) + f"({amb.p - pp},{amb.q - qq})"
    return _x_text(pp, qq, latex)


def display_term(term) -> tuple:
    """(factor, shown): an expansion prints num/2 * term as the
    coefficient (factor * num)/2 on the term shown.  A term with a
    canonical half (see `has_half`) is twice an invariant subvariety and
    shows as that, as the worked special cases do."""
    if has_half(term):
        return 2, InvariantChain(term.p_i, term.q_i, 0, 0)
    return 1, term


def numerator_text(num: int) -> str:
    """The magnitude of the coefficient num/2 as printed before its
    term, with the separating space; empty for the coefficient 1.  An
    odd num has no printed form: `display_term` doubles every term that
    carries a half."""
    if num % 2:
        raise ArithmeticError(f"half-integral coefficient {num}/2 has no printed form")
    return "" if num == 2 else f"{abs(num) // 2} "


def expansion_text(exp: BezoutExpansion, amb, notation: str = "dim",
                   latex: bool = False) -> str:
    chunks = []
    for num, term in exp.terms:
        factor, shown = display_term(term)
        chunks.append((num < 0, numerator_text(factor * num)
                       + term_text(shown, amb, notation, latex)))
    return _join(chunks)


def term_json(term, amb) -> dict:
    if isinstance(term, FreeOrbit):
        return {"variant": "free", "indices": {"affine_dim": term.affine_dim,
                                               "target": list(term.target)}}
    if isinstance(term, FixedPoint):
        return {"variant": "fixed_point", "indices": {"component": term.component,
                                                      "regrade": term.regrade}}
    if isinstance(term, InvariantChain):
        return {"variant": "invariant",
                "indices": {"p": term.pp, "q": term.qq, "i": term.i, "j": term.j}}
    if isinstance(term, BinatePair):
        return {"variant": "binate",
                "indices": {"i": term.i, "p_i": term.p_i, "q_i": term.q_i,
                            "singular": term.singular}}
    raise TypeError(f"unknown term {term!r}")


def expansion_json(exp: BezoutExpansion, amb) -> list:
    return [{"coeff_num": num, "coeff_den": 2, "term": term_json(term, amb)}
            for num, term in exp.terms]
