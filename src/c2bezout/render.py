"""Text, LaTeX and JSON rendering of classes and expansions.

Transfer-type coefficients (g, tau(iota^-2k), and even multiples of xi
powers on monomials with Chern content) are folded into tau(...) of the
monomial's restriction, which is how the closed formulas are usually
written; everything else prints as coefficient * monomial.
"""

from __future__ import annotations

from . import point as pt
from .grading import PiBDegree
from .laurent import l_text
from .projective import ProjClass, mono_degree_pib, mono_rho
from .schubert import (BezoutExpansion, BinatePair, FixedPoint, FreeOrbit,
                       InvariantChain)

_GEN_TEXT = ("zeta0", "zeta1", "c_w", "c_xw")
_GEN_LATEX = (r"\zeta_0", r"\zeta_1", r"\widehat{c}_\omega", r"\widehat{c}_{\chi\omega}")


def mono_text(m, latex: bool = False) -> str:
    names = _GEN_LATEX if latex else _GEN_TEXT
    parts = []
    for e, name in zip(m, names):
        if e == 0:
            continue
        if e == 1:
            parts.append(name)
        elif latex:
            parts.append(f"{name}^{{{e}}}")
        else:
            parts.append(f"{name}^{e}")
    if not parts:
        return "1"
    return ("" if latex else " ").join(parts)


def _tau_text(iexp: int, zexp: int, cexp: int, latex: bool) -> str:
    body = l_text({(iexp, zexp, cexp): 1}, latex=latex)
    return rf"\tau({body})" if latex else f"tau({body})"


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
    if cls.is_zero():
        return "0"
    chunks = []
    for m, coeff in cls.terms:
        folded, rest = _split_tau(coeff, m)
        ia, za, ca = mono_rho(m)
        for mult, ishift in folded:
            t = _tau_text(ia + ishift, za, ca, latex)
            chunks.append(t if mult == 1 else f"-{t}" if mult == -1 else f"{mult} {t}")
        if rest:
            cs = pt.p_text(rest, latex=latex)
            ms = mono_text(m, latex)
            if ms == "1":
                chunks.append(cs)
            elif cs == "1":
                chunks.append(ms)
            elif cs == "-1":
                chunks.append(f"-{ms}")
            elif cs.startswith("-") and " + " not in cs and " - " not in cs:
                chunks.append(f"-{cs[1:]} {ms}")
            else:
                if (" + " in cs) or (" - " in cs):
                    cs = f"({cs})"
                chunks.append(f"{cs} {ms}")
    return " + ".join(chunks).replace("+ -", "- ")


def degree_json(d: PiBDegree) -> list:
    return d.as_list()


def proj_json(cls: ProjClass) -> list:
    out = []
    for m, coeff in cls.terms:
        out.append({
            "monomial": list(m),
            "degree": degree_json(mono_degree_pib(m)),
            "coeff": pt.p_json(coeff),
        })
    return out


# ---------------------------------------------------------------------------
# geometric terms

def _x_text(pp: int, qq: int, latex: bool) -> str:
    if (pp, qq) == (1, 0):
        return r"\mathrm{pt}^+" if latex else "pt+"
    if (pp, qq) == (0, 1):
        return r"\mathrm{pt}^-" if latex else "pt-"
    return rf"X^{{{pp},{qq}}}" if latex else f"X^{{{pp},{qq}}}"


def term_text(term, amb, notation: str = "dim", latex: bool = False) -> str:
    if isinstance(term, FreeOrbit):
        if notation == "dim":
            return rf"\mathrm{{Fr}}_{{{term.affine_dim}}}" if latex else f"Fr_{term.affine_dim}"
        lam = term.codim(amb)
        return rf"\mathrm{{Fr}}({lam})" if latex else f"Fr({lam})"
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
    if notation == "codim":
        lam, lp, lm = amb.p + amb.q - i, amb.p - p_i, amb.q - q_i
        if latex:
            return rf"\widetilde{{S}}_{{{lam}}}({lp},{lm})"
        return f"S~_{lam}({lp},{lm})"
    cp, cq = max(p_i, 0), max(q_i, 0)
    if latex:
        return rf"\widetilde{{S}}^{{{i}}}_{{{cp},{cq}}}"
    return f"S~^{i}_{{{cp},{cq}}}"


def _chain_one_text(pp, qq, amb, notation, latex) -> str:
    if notation == "codim":
        lam, lp, lm = amb.p + amb.q - pp - qq, amb.p - pp, amb.q - qq
        if latex:
            return rf"Y_{{{lam}}}({lp},{lm})"
        return f"Y_{lam}({lp},{lm})"
    return _x_text(pp, qq, latex)


def expansion_text(exp: BezoutExpansion, amb, notation: str = "dim",
                   latex: bool = False) -> str:
    parts = []
    for num, term in exp.terms:
        if num == 0:
            continue
        if (isinstance(term, BinatePair) and term.defect == 0
                and term.singular is None):
            # the class is twice an invariant subvariety; display it that
            # way, as the worked special cases do
            term = InvariantChain(term.p_i, term.q_i, 0, 0)
            num = 2 * num
        ts = term_text(term, amb, notation, latex)
        if num == 2:
            parts.append(ts)
        elif num % 2 == 0:
            parts.append(f"{num // 2} {ts}")
        else:
            parts.append(rf"\tfrac{{{num}}}{{2}} {ts}" if latex else f"{num}/2 {ts}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def term_json(term, amb) -> dict:
    if isinstance(term, FreeOrbit):
        return {"variant": "free", "indices": {"affine_dim": term.affine_dim,
                                               "target": term.target.as_list()}}
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
            for num, term in exp.terms if num]
