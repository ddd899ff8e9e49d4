import re

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from c2bezout import bundles as bd
from c2bezout import projective as pj
from c2bezout import schubert as sb
from c2bezout import verify as vf


def spec(tok):
    return bd.LineBundleSpec.from_token(tok)


def mksum(p, q, tokens):
    return bd.BundleSum((p, q), bd.parse_bundles(tokens))


def test_token_parsing_and_families():
    assert spec("O(3)").family == "I"
    assert spec("O(2)").family == "II"
    assert spec("xO(1)").family == "III"
    assert spec("xO(-4)").family == "IV"
    assert spec("O(-3)").degree == -3
    with pytest.raises(bd.BundleParseError):
        spec("O(2.5)")
    with pytest.raises(bd.BundleParseError):
        spec("P(2)")
    with pytest.raises(ValueError):
        bd.LineBundleSpec("I", 2)


@pytest.mark.parametrize("degree", [3.0, True, False, "3", None])
def test_non_integer_degrees_are_refused(degree):
    # a bool is an int to Python, but not a degree
    for family in bd.FAMILIES:
        with pytest.raises(ValueError, match="degree must be an integer"):
            bd.LineBundleSpec(family, degree)


def test_parse_bundle_list_reports_position():
    with pytest.raises(bd.BundleParseError) as err:
        bd.parse_bundles("O(1),O(x),xO(2)")
    assert err.value.pos == 5


def test_euler_line_base_cases():
    amb = pj.ambient(2, 2)
    assert bd.euler_line(amb, spec("O(1)")) == pj.gen_cw(amb)
    assert bd.euler_line(amb, spec("O(2)")) == pj.class_Q(amb)
    assert bd.euler_line(amb, spec("O(-2)")) == pj.class_Q(amb).scale(-1)
    chi2 = bd.euler_line(pj.ambient(3, 3), spec("xO(2)"))
    assert chi2 == pj.class_chi_Q(pj.ambient(3, 3))


def test_euler_line_two_forms_agree():
    for (p, q) in ((1, 1), (2, 3)):
        amb = pj.ambient(p, q)
        for tok in ("O(5)", "O(-4)", "xO(7)", "xO(6)", "O(0)", "xO(0)"):
            s = spec(tok)
            assert bd.euler_line(amb, s) == bd.euler_line_raw(amb, s)


def _line_by_products(amb, s):
    """The line class with a class product per call: the reference
    that the memoised factors must reproduce."""
    k = s.k
    Q = pj.class_Q(amb)
    if s.family == "I":
        out = pj.gen_cw(amb)
        return out + (pj.gen_zeta1(amb) * Q).scale(k) if k else out
    if s.family == "II":
        return Q.scale(k)
    if s.family == "III":
        out = pj.gen_cxw(amb)
        return out + (pj.gen_zeta0(amb) * Q).scale(k) if k else out
    out = pj.class_chi_Q(amb)
    return out + pj.proj_tau(amb, {(2, 0, 1): k - 1}) if k != 1 else out


LINE_TOKENS = [f"{tw}O({d})" for d in range(-9, 10) for tw in ("", "x")]


@pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (1, 1), (3, 2), (2, 5), (12, 9)])
def test_euler_line_matches_the_product_formula(p, q):
    ref_amb, amb = pj.Ambient(p, q), pj.Ambient(p, q)
    for tok in LINE_TOKENS:
        s = spec(tok)
        assert bd.euler_line(amb, s) == _line_by_products(ref_amb, s), tok
    assert {s.family for s in map(spec, LINE_TOKENS)} == set(bd.FAMILIES)


ZETA1_Q = ("S", pj.MONO_ZETA1, 1)   # the memo keys of the S_1 units
ZETA0_Q = ("S", pj.MONO_ZETA0, 1)   # on zeta1 and zeta0


def test_line_factors_stay_with_their_space():
    # a perturbed ring with the same (p, q) builds a different zeta1 Q
    # (zeta0 Q reads no e^2 term); a real space built before it and the
    # registered one built after it each keep their own factors
    bad = vf._PerturbedAmbient(2, 2)
    spaces = (pj.Ambient(2, 2), bad, pj.ambient(2, 2))
    for tok, key, zeta in (("O(5)", ZETA1_Q, pj.gen_zeta1),
                           ("xO(5)", ZETA0_Q, pj.gen_zeta0)):
        s = spec(tok)
        lines = [bd.euler_line(amb, s) for amb in spaces]
        for amb, line in zip(spaces, lines):
            twin = type(amb)(2, 2)
            assert amb._memo[key] == (zeta(twin) * pj.class_Q(twin)).terms, key
            assert line.terms == _line_by_products(twin, s).terms, key
    for good in (spaces[0], spaces[2]):
        assert bad._memo[ZETA1_Q] != good._memo[ZETA1_Q]


def test_line_memo_has_no_per_degree_key():
    amb = pj.Ambient(3, 2)
    for tok in ("O(3)", "xO(3)"):
        bd.euler_line(amb, spec(tok))
    keys = set(amb._memo)
    assert {ZETA1_Q, ZETA0_Q} <= keys
    for d in range(-9, 10, 2):
        for tok in (f"O({d})", f"xO({d})"):
            bd.euler_line(amb, spec(tok))
    assert set(amb._memo) == keys


def test_one_bundle_product_is_its_line():
    amb = pj.ambient(3, 2)
    for tok in ("O(3)", "O(1)", "O(-4)", "xO(-3)", "xO(2)", "xO(6)"):
        line = bd.euler_line(amb, spec(tok))
        assert bd.euler_product(amb, mksum(3, 2, tok)) == line, tok


def test_euler_product_examples():
    amb = pj.ambient(2, 2)
    assert bd.euler_product(amb, mksum(2, 2, "")) == pj.ProjClass.unit(amb)
    assert bd.euler_product(amb, mksum(2, 2, "O(1),O(1)")) == pj.gen_cw(amb) ** 2
    # odd-by-odd closed product
    lhs = bd.euler_product(amb, mksum(2, 2, "O(3),xO(3)"))
    assert lhs == bd.euler_I_and_III(amb, 1, 3, 1, 3)


def test_product_is_order_independent():
    amb = pj.ambient(3, 2)
    a = bd.euler_product(amb, mksum(3, 2, "O(3),xO(2),O(2)"))
    out = pj.ProjClass.unit(amb)
    for tok in ("xO(2)", "O(2)", "O(3)"):
        out = out * bd.euler_line(amb, spec(tok))
    assert a == out


def test_invariants_first_example():
    inv = bd.bundle_invariants(mksum(2, 2, "O(3),O(2),xO(1)"))
    assert (inv.n, inv.n0, inv.n1) == (3, 2, 2)
    assert (inv.Delta, inv.Delta0, inv.Delta1) == (6, 0, 0)
    assert (inv.m, inv.m0, inv.m1, inv.ell) == (1, 0, 0, -1)
    assert (inv.k0, inv.k1) == (1, 1)
    assert inv.context_ok


def test_invariants_second_example():
    inv = bd.bundle_invariants(mksum(3, 3, "xO(2)"))
    assert (inv.n_by_family, inv.d_by_family) == ((0, 0, 0, 1), (1, 1, 1, 2))
    assert hash(inv) == hash(bd.bundle_invariants(mksum(3, 3, "xO(2)")))
    assert (inv.n, inv.n0, inv.n1) == (1, 0, 0)
    assert (inv.Delta, inv.Delta0, inv.Delta1, inv.eps) == (2, 1, 1, 1)
    assert (inv.m, inv.m0, inv.m1, inv.ell) == (5, 3, 3, 1)


def test_invariants_third_example():
    inv = bd.bundle_invariants(mksum(2, 1, "O(3),xO(1)"))
    assert (inv.n, inv.n0, inv.n1) == (2, 1, 1)
    assert (inv.Delta, inv.Delta0, inv.Delta1) == (3, 3, 0)
    assert (inv.m, inv.m0, inv.m1, inv.ell) == (1, 1, 0, 0)


def test_context_violation_detection():
    inv = bd.bundle_invariants(mksum(1, 1, "O(1),O(2)"))
    assert not inv.context_ok
    assert any("n < p + q" in v for v in inv.context_violations)
    with pytest.raises(bd.ContextViolation):
        inv.require_context()


def test_closed_form_spec_cases():
    # dim-0 type case: 3 tau(iota^2 c^3)
    inv = bd.bundle_invariants(mksum(2, 2, "O(3),O(2),xO(1)"))
    amb = pj.ambient(2, 2)
    closed = bd.euler_closed_form(amb, inv)
    assert closed == pj.proj_tau(amb, {(2, 0, 3): 3})
    # twisted even line equals its own closed form
    amb33 = pj.ambient(3, 3)
    inv2 = bd.bundle_invariants(mksum(3, 3, "xO(2)"))
    assert bd.euler_closed_form(amb33, inv2) == pj.class_chi_Q(amb33)


@pytest.mark.parametrize("p,q,tokens", [
    (2, 2, "O(3),O(2),xO(1)"),
    (3, 3, "xO(2)"),
    (2, 1, "O(3),xO(1)"),
    (1, 2, "O(2),O(1)"),
    (3, 1, "O(1),O(2),xO(1)"),
    (1, 3, "xO(3),xO(2)"),
    (3, 3, "O(1),O(2),xO(3),xO(2)"),
    (2, 3, "O(5),xO(4),xO(1)"),
    (4, 2, "O(2),O(2),O(2)"),
    (3, 4, "xO(2),xO(2),xO(2)"),
])
def test_closed_form_equals_product(p, q, tokens):
    amb = pj.ambient(p, q)
    bs = mksum(p, q, tokens)
    inv = bd.bundle_invariants(bs)
    assert inv.context_ok
    assert bd.euler_closed_form(amb, inv) == bd.euler_product(amb, bs)


def test_closed_form_negative_degrees():
    amb = pj.ambient(2, 2)
    for tokens in ("O(-2)", "O(-3)", "xO(-1),O(-2)", "O(-3),xO(-3)"):
        bs = mksum(2, 2, tokens)
        inv = bd.bundle_invariants(bs)
        assert bd.euler_closed_form(amb, inv) == bd.euler_product(amb, bs)


def _closed_form_branch(inv):
    """Which branch of the closed form a sum takes."""
    if inv.ell > 0:
        return f"high, eps = {inv.eps}"
    if inv.m0 <= 0 and inv.m1 <= 0:
        return "low, free orbit alone"
    if inv.m0 <= 0:
        return "low, m0 <= 0"
    if inv.m1 <= 0:
        return "low, m1 <= 0"
    return "low, four terms"


@st.composite
def _sums_with_negative_degrees(draw):
    """A sum inside the closed-form hypotheses on a space with p + q <=
    12, with up to 3 bundles of each family, odd degrees in +-1..+-9,
    even ones in +-2..+-8 and at least one degree negative."""
    counts = {fam: draw(st.integers(0, 3)) for fam in bd.FAMILIES}
    n = sum(counts.values())
    # the hypotheses: n < p + q, n - p <= n1 and n - q <= n0
    p_min = counts["I"] + counts["IV"]
    q_min = counts["III"] + counts["IV"]
    assume(0 < n < 12 and p_min + q_min <= 12)
    p = draw(st.integers(p_min, 12 - q_min))
    q = draw(st.integers(max(q_min, n + 1 - p), 12 - p))
    odd = st.integers(-5, 4).map(lambda k: 2 * k + 1)
    even = st.integers(1, 4).flatmap(lambda k: st.sampled_from((2 * k, -2 * k)))
    specs = [bd.LineBundleSpec(fam, draw(odd if fam in ("I", "III") else even))
             for fam in bd.FAMILIES for _ in range(counts[fam])]
    if all(b.degree > 0 for b in specs):
        specs[0] = bd.LineBundleSpec(specs[0].family, -specs[0].degree)
    return bd.BundleSum((p, q), specs)


def test_closed_form_product_and_expansion_agree_with_negative_degrees():
    """Closed form, product and expansion agree on every branch of the
    closed form, each reached by the draws."""
    branches = set()

    @seed(20251)
    @settings(max_examples=200, deadline=None, database=None)
    @given(bs=_sums_with_negative_degrees())
    def agree(bs):
        amb = pj.ambient(*bs.ambient)
        inv = bd.bundle_invariants(bs)
        assert inv.context_ok
        product = bd.euler_product(amb, bs)
        assert bd.euler_closed_form(amb, inv) == product, bs.token()
        assert sb.expansion_class(sb.bezout_expansion(inv), amb) == product, bs.token()
        branches.add(_closed_form_branch(inv))

    agree()
    assert branches == {"low, free orbit alone", "low, m0 <= 0", "low, m1 <= 0",
                        "low, four terms", "high, eps = 0", "high, eps = 1"}


def _crafted(p, q, tokens, **fields):
    """The invariants of a sum with some fields replaced."""
    inv = bd.bundle_invariants(mksum(p, q, tokens))
    return bd.BundleInvariants(
        *(fields.get(name, getattr(inv, name)) for name in bd.BundleInvariants._fields))


@pytest.mark.parametrize("p, q, tokens, fields, message", [
    (1, 1, "O(2)", {"Delta": 3}, "Delta = 3 is not even"),
    (1, 2, "O(2)", {"Delta": 3}, "Delta - Delta1 = 1 is not even"),
    (2, 1, "O(2)", {"Delta": 3}, "Delta - Delta0 = 1 is not even"),
    (2, 2, "O(2)", {"Delta": 3}, "Delta - Delta_max = 1 is not even"),
    (2, 2, "O(2),xO(2),xO(2)", {"Delta": 9}, "free-orbit numerator = 5 is not even"),
    (1, 2, "O(2)", {"Delta1": 3}, "coefficient 3/2 on a defect-1 term is not integral"),
], ids=["delta", "delta_minus_delta1", "delta_minus_delta0", "delta_minus_delta_max",
        "free_orbit_numerator", "odd_defect_numerator"])
def test_closed_form_refuses_odd_halves(p, q, tokens, fields, message):
    inv = _crafted(p, q, tokens, **fields)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        bd.euler_closed_form(pj.ambient(p, q), inv)


def test_closed_form_requires_context():
    inv = bd.bundle_invariants(mksum(1, 1, "O(1),O(1)"))
    with pytest.raises(bd.ContextViolation):
        bd.euler_closed_form(pj.ambient(1, 1), inv)


def test_type_blocks_match_products():
    amb = pj.ambient(2, 2)
    assert bd.euler_type_block(amb, "I", 1, 3) == \
        pj.gen_cw(amb) + pj.gen_zeta1(amb) * pj.class_Q(amb)
    q2 = bd.euler_type_block(amb, "II", 2, 4)
    assert q2 == pj.class_Q(amb) ** 2
    assert bd.euler_type_block(amb, "IV", 0, 1) == pj.ProjClass.unit(amb)


def test_type_block_refuses_an_unknown_family():
    amb = pj.ambient(2, 2)
    for count, dprod in ((1, 2), (0, 1)):
        with pytest.raises(ValueError, match="unknown family 'V'"):
            bd.euler_type_block(amb, "V", count, dprod)


def test_odd_blocks_refuse_an_empty_block_with_a_degree():
    amb = pj.ambient(2, 2)
    for nI, dI, nIII, dIII in ((0, 3, 0, 1), (0, 3, 1, 3), (1, 3, 0, 5)):
        with pytest.raises(ValueError, match="empty block must have degree product 1"):
            bd.euler_I_and_III(amb, nI, dI, nIII, dIII)
    with pytest.raises(ValueError, match="empty block must have degree product 1"):
        bd.euler_type_block(amb, "III", 0, 3)


def test_a_record_of_another_space_is_refused():
    # the product, the closed form and the expansion class all refuse a
    # sum or expansion of another space, instead of computing on amb
    bs = mksum(3, 3, "O(1),xO(2)")
    inv = bd.bundle_invariants(bs)
    exp = sb.bezout_expansion(inv)
    entries = (lambda amb: bd.euler_product(amb, bs),
               lambda amb: bd.euler_closed_form(amb, inv),
               lambda amb: sb.expansion_class(exp, amb))
    for amb in (pj.ambient(2, 2), pj.ambient(4, 4), pj.ambient(3, 4)):
        for entry in entries:
            with pytest.raises(ValueError, match="ambient mismatch"):
                entry(amb)
    product, closed, expanded = (entry(pj.ambient(3, 3)) for entry in entries)
    assert product == closed == expanded


def test_type_block_divisibility_guard():
    amb = pj.ambient(2, 2)
    with pytest.raises(ArithmeticError):
        bd.euler_type_block(amb, "II", 2, 2)  # 2 not divisible by 4


def test_closed_form_depends_only_on_invariants():
    amb = pj.ambient(3, 3)
    a = bd.bundle_invariants(mksum(3, 3, "O(3),xO(1)"))
    b = bd.bundle_invariants(mksum(3, 3, "O(3),xO(1)"))
    assert bd.euler_closed_form(amb, a) == bd.euler_closed_form(amb, b)
    # same rank/degree data from different degree distributions
    c = bd.bundle_invariants(mksum(3, 3, "O(1),xO(3)"))
    assert (a.n, a.n0, a.n1, a.Delta) == (c.n, c.n0, c.n1, c.Delta)
    assert (a.Delta0, a.Delta1) != (c.Delta0, c.Delta1)


def test_beta_and_rem():
    assert bd.beta(3) == 2
    assert bd.beta(0) == 0
    assert bd.beta(12) == 2

