"""Nonequivariant shadow rings.

After regrading on the extended lattice, the nonequivariant cohomology of
a point is Z[iota^{+-1}] and that of a finite projective space is
Z[iota^{+-1}, zeta^{+-1}, c]/(c^{p+q}).  Elements are dicts mapping
exponent triples (iota, zeta, c) to integers; the point case uses
(iota, 0, 0) only, and the images Z[c]/(c^p) and Z[c]/(c^q) over the
two fixed components use (0, 0, c), truncated at p and q.  Each degree
holds at most one monomial, with exponents
(a, b, k) = (r - f0, (f0 - f1)/2, r/2) for degree (r, f0, f1).
"""

from __future__ import annotations

from .grading import PiBDegree

LTerms = dict  # {(iota_exp, zeta_exp, c_exp): int}


def l_mul(x: LTerms, y: LTerms, c_trunc: int | None = None) -> LTerms:
    """x * y, without the terms whose c exponent reaches c_trunc."""
    out: LTerms = {}
    for (a1, b1, k1), c1 in x.items():
        for (a2, b2, k2), c2 in y.items():
            k = k1 + k2
            if c_trunc is not None and k >= c_trunc:
                continue
            m = (a1 + a2, b1 + b2, k)
            n = out.get(m, 0) + c1 * c2
            if n:
                out[m] = n
            else:
                out.pop(m, None)
    return out


def mono_degree(m) -> PiBDegree:
    a, b, k = m
    return PiBDegree(2 * k, 2 * k - a, 2 * k - a - 2 * b)
