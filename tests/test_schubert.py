import pytest
from hypothesis import given, seed, settings, strategies as st

from c2bezout import bundles as bd
from c2bezout import projective as pj
from c2bezout import schubert as sb
from c2bezout import render


def mkinv(p, q, tokens):
    return bd.bundle_invariants(bd.BundleSum((p, q), bd.parse_bundles(tokens)))


def test_invariant_class_is_euler_generator():
    amb = pj.ambient(2, 2)
    term = sb.InvariantChain(1, 2, 0, 0)  # codim (1,0) subvariety
    assert sb.class_of(term, amb) == pj.gen_cw(amb)


def test_binate_top_is_quadric_class():
    for (p, q) in ((1, 1), (2, 2), (3, 1)):
        amb = pj.ambient(p, q)
        term = sb.BinatePair(p + q - 1, p - 1, q - 1)
        assert sb.class_of(term, amb) == pj.class_Q(amb)


def test_defect_zero_binate_doubles():
    amb = pj.ambient(3, 2)
    term = sb.BinatePair(3, 1, 2)
    assert term.defect == 0
    assert sb.class_of(term, amb) == pj.ProjClass.from_mono(amb, (0, 0, 2, 0), 2)
    assert sb.half_class_of(term, amb) == pj.ProjClass.from_mono(amb, (0, 0, 2, 0))


def test_chain_gives_zeta_powers():
    amb = pj.ambient(2, 3)
    term = sb.InvariantChain(2, 3, 2, 0)
    assert sb.class_of(term, amb) == pj.gen_zeta0(amb) ** 2


def test_chiq_decomposition():
    for (p, q) in ((2, 2), (1, 1)):
        amb = pj.ambient(p, q)
        terms, total = sb.chiQ_class(amb)
        assert total == pj.class_chi_Q(amb)
        assert len(terms) == 2
    with pytest.raises(sb.InfeasibleTerm):
        sb.chiQ_class(pj.ambient(0, 3))


def test_infeasible_terms_rejected():
    amb = pj.ambient(2, 2)
    with pytest.raises(sb.InfeasibleTerm):
        sb.class_of(sb.BinatePair(1, 1, 1), amb)  # p_i + q_i > i
    with pytest.raises(sb.InfeasibleTerm):
        sb.class_of(sb.InvariantChain(3, 1, 0, 0), amb)
    with pytest.raises(sb.InfeasibleTerm):
        sb.class_of(sb.InvariantChain(2, 1, 2, 0), amb)  # i > qq


def test_half_integer_audit():
    inv = mkinv(2, 1, "O(3),xO(1)")
    exp = sb.bezout_expansion(inv)
    # odd numerator is allowed exactly on the defect-0 binate term
    assert any(num % 2 for num, _ in exp.terms)
    with pytest.raises(ArithmeticError):
        sb.BezoutExpansion((2, 1), inv, [(3, sb.FreeOrbit(1, inv.euler_degree()))])


def test_dim0_counting_example():
    inv = mkinv(2, 1, "O(3),xO(1)")
    amb = pj.ambient(2, 1)
    exp = sb.special_case("dim0", inv)
    got = {}
    for num, term in exp.terms:
        if isinstance(term, sb.FixedPoint):
            got["plus" if term.component == 0 else "minus"] = num // 2
        else:
            got["free"] = num // 2
    assert got == {"plus": 3}
    assert sb.expansion_class(exp, amb) == bd.euler_product(
        amb, bd.BundleSum((2, 1), bd.parse_bundles("O(3),xO(1)")))


@pytest.mark.parametrize("p,q,tokens", [
    (2, 1, "O(3),xO(1)"),                # a fixed point of component 0
    (1, 2, "O(1),xO(1)"),                # component 1
    (1, 2, "xO(1),xO(4)"),               # both, and free orbits
    (2, 2, "O(2),O(2),xO(2)"),           # free orbits only
    (3, 2, "O(1),O(1),O(2),xO(2)"),
])
def test_dim0_terms_go_through_class_of(p, q, tokens):
    amb = pj.ambient(p, q)
    bs = bd.BundleSum((p, q), bd.parse_bundles(tokens))
    inv = bd.bundle_invariants(bs)
    exp = sb.special_case("dim0", inv)
    product = bd.euler_product(amb, bs)
    assert sb.expansion_class(exp, amb) == product
    total = pj.ProjClass.zero(amb)
    for num, term in exp.terms:
        assert num % 2 == 0
        total = total + sb.class_of(term, amb).scale(num // 2)
    assert total == product


def test_fixed_point_classes_and_guards():
    amb = pj.ambient(2, 1)
    target = mkinv(2, 1, "O(3),xO(1)").euler_degree()
    plus = sb.FixedPoint(0, 0, target)
    assert sb.class_of(plus, amb) == pj.ProjClass.from_mono(amb, (0, 0, 1, 1))
    assert sb.class_of(plus, amb) is not sb.class_of(plus, amb)
    assert sb.class_of(plus, amb).terms is sb.class_of(plus, amb).terms
    with pytest.raises(sb.InfeasibleTerm):
        sb.class_of(sb.FixedPoint(2, 0, target), amb)
    with pytest.raises(sb.InfeasibleTerm):
        sb.class_of(sb.FixedPoint(0, 1, target), amb)  # misses its degree
    for component, space in ((0, (0, 2)), (1, (2, 0))):
        with pytest.raises(sb.InfeasibleTerm):
            sb.class_of(sb.FixedPoint(component, 0, target), pj.ambient(*space))


def test_dim0_rendering():
    amb = pj.ambient(2, 1)
    exp = sb.special_case("dim0", mkinv(2, 1, "O(3),xO(1)"))
    assert render.expansion_text(exp, amb, "dim") == "3 pt+"
    assert render.expansion_text(exp, amb, "codim") == "3 pt+"
    assert render.expansion_text(exp, amb, "dim", latex=True) == r"3 \mathrm{pt}^+"
    assert render.expansion_json(exp, amb) == [{
        "coeff_num": 6, "coeff_den": 2,
        "term": {"variant": "fixed_point",
                 "indices": {"component": 0, "regrade": 0}}}]


def test_codim1_single_odd_line():
    # e(O(2k+1)) = [Y]* + k [S~; S~']*
    inv = mkinv(3, 2, "O(3)")
    amb = pj.ambient(3, 2)
    exp = sb.special_case("codim1", inv)
    kinds = sorted(type(t).__name__ for _, t in exp.terms)
    assert kinds == ["BinatePair", "InvariantChain"]
    (n1, t1), (n2, t2) = exp.terms
    assert (n1, t1) == (2, sb.InvariantChain(2, 2, 0, 0))
    assert n2 == 2 and t2.singular == "zeta1"
    assert sb.expansion_class(exp, amb) == bd.euler_line(
        amb, bd.LineBundleSpec("I", 3))


def test_pure_free_case():
    inv = mkinv(2, 2, "O(3),O(2),xO(1)")
    exp = sb.bezout_expansion(inv)
    assert len(exp.terms) == 1
    num, term = exp.terms[0]
    assert isinstance(term, sb.FreeOrbit) and num == 6  # Delta/2 = 3 orbits


def test_empty_expansion_is_zero():
    inv = mkinv(2, 2, "O(3),O(2),xO(1)")
    exp = sb.BezoutExpansion((2, 2), inv, [])
    assert sb.expansion_class(exp, pj.ambient(2, 2)).is_zero()


def test_bezout_matches_product_on_mixed_cases():
    for (p, q, tokens) in (
            (3, 3, "O(2)"),
            (2, 2, "O(2),xO(2)"),
            (3, 2, "O(1),O(2),xO(1)"),
            (3, 3, "xO(2),xO(2),xO(2)"),
            (4, 3, "O(3),O(2),xO(1),xO(2)")):
        amb = pj.ambient(p, q)
        bs = bd.BundleSum((p, q), bd.parse_bundles(tokens))
        inv = bd.bundle_invariants(bs)
        exp = sb.bezout_expansion(inv)
        assert sb.expansion_class(exp, amb) == bd.euler_product(amb, bs)


@st.composite
def _valid_sums(draw):
    """A bundle sum on a space with p + q <= 160 inside the closed-form
    hypotheses: n < p + q, n - q <= n0 <= n and n - p <= n1 <= n, with
    odd degrees in +-1..+-49 and even ones in +-2..+-48."""
    s = draw(st.integers(2, 160))
    p = draw(st.integers(0, s))
    q = s - p
    n = draw(st.integers(1, s - 1))
    n0 = draw(st.integers(max(0, n - q), n))
    n1 = draw(st.integers(max(0, n - p), n))
    both = draw(st.integers(max(0, n0 + n1 - n), min(n0, n1)))
    counts = {"I": n0 - both, "II": both, "III": n1 - both,
              "IV": n - n0 - n1 + both}
    odd = st.integers(-24, 24).map(lambda k: 2 * k + 1)
    even = st.integers(1, 24).flatmap(lambda k: st.sampled_from((2 * k, -2 * k)))
    specs = [bd.LineBundleSpec(fam, draw(odd if fam in ("I", "III") else even))
             for fam in bd.FAMILIES for _ in range(counts[fam])]
    return bd.BundleSum((p, q), specs)


@seed(20231)
@settings(max_examples=120, deadline=None)
@given(bs=_valid_sums())
def test_main_theorem_on_large_spaces(bs):
    """Product, closed form and Bezout expansion agree beyond the sweep's
    p + q <= 7."""
    amb = pj.ambient(*bs.ambient)
    inv = bd.bundle_invariants(bs)
    assert inv.context_ok
    product = bd.euler_product(amb, bs)
    assert bd.euler_closed_form(amb, inv) == product
    assert sb.expansion_class(sb.bezout_expansion(inv), amb) == product


def test_dim1_middle_cell_structure():
    inv = mkinv(3, 3, "O(1),O(2),xO(3),xO(2)")
    exp = sb.special_case("dim1_table", inv)
    assert exp.label == "dim1[1,1]"
    # Delta_min on the main binate, the rest on singular pairs and orbits
    nums = [num for num, _ in exp.terms]
    assert nums[0] == min(inv.Delta0, inv.Delta1)
    assert sb.expansion_class(exp, pj.ambient(3, 3)) == bd.euler_product(
        pj.ambient(3, 3),
        bd.BundleSum((3, 3), bd.parse_bundles("O(1),O(2),xO(3),xO(2)")))


def test_dim2_first_scenario_constants():
    inv = mkinv(3, 3, "xO(2),xO(2),xO(2)")
    assert (inv.m, inv.m0, inv.m1, inv.ell) == (3, 3, 3, 3)
    exp = sb.special_case("dim2_examples", inv)
    free = [num for num, t in exp.terms if isinstance(t, sb.FreeOrbit)]
    # (Delta - Delta0 - Delta1 - (2^{beta(3)} - 2)) / 2 = (8 - 1 - 1 - 2)/2
    assert free == [inv.Delta - inv.Delta0 - inv.Delta1 - 2]
    assert free[0] // 2 == 2
    chains = [t for _, t in exp.terms if isinstance(t, sb.InvariantChain)]
    assert sb.InvariantChain(2, 1, 1, 2) in chains
    assert sb.InvariantChain(1, 2, 2, 1) in chains


def test_dim2_second_scenario():
    inv = mkinv(3, 2, "O(2),xO(2)")
    assert (inv.m, inv.m0, inv.m1, inv.ell) == (3, 2, 1, 0)
    exp = sb.special_case("dim2_examples", inv)
    amb = pj.ambient(3, 2)
    assert sb.expansion_class(exp, amb) == bd.euler_product(
        amb, bd.BundleSum((3, 2), bd.parse_bundles("O(2),xO(2)")))
    # a variant with distinct fixed degrees exposes the singular pairs
    inv2 = mkinv(4, 3, "O(3),O(2),xO(1),xO(2)")
    assert (inv2.m, inv2.m0, inv2.m1, inv2.ell) == (3, 2, 1, 0)
    exp2 = sb.special_case("dim2_examples", inv2)
    sing = [t for _, t in exp2.terms
            if isinstance(t, sb.BinatePair) and t.singular]
    assert sb.BinatePair(3, 2, 0, "zeta1") in sing
    amb2 = pj.ambient(4, 3)
    assert sb.expansion_class(exp2, amb2) == bd.euler_product(
        amb2, bd.BundleSum((4, 3), bd.parse_bundles("O(3),O(2),xO(1),xO(2)")))


def test_special_case_hypothesis_guards():
    inv = mkinv(3, 3, "O(2)")
    with pytest.raises(bd.ContextViolation):
        sb.special_case("codim1", mkinv(3, 3, "O(2),O(2)"))
    with pytest.raises(bd.ContextViolation):
        sb.special_case("dim0", inv)
    with pytest.raises(ValueError):
        sb.special_case("nope", inv)
    with pytest.raises(TypeError):
        sb.special_case("codim1", inv, notation="dim")


def test_renderings():
    amb = pj.ambient(2, 1)
    inv = mkinv(2, 1, "O(3),xO(1)")
    exp = sb.bezout_expansion(inv)
    dim = render.expansion_text(exp, amb, "dim")
    codim = render.expansion_text(exp, amb, "codim")
    # the defect-0 binate displays as the doubled fixed subvariety
    assert dim == "3 [pt+]*"
    assert "Y_2(1,1)" in codim
    odd_half = render.expansion_text(
        sb.BezoutExpansion((2, 1), inv, [(3, sb.BinatePair(2, 1, 1))]),
        amb, "dim")
    assert odd_half == "3 [X^{1,1}]*"
    data = render.expansion_json(exp, amb)
    assert data[0]["coeff_den"] == 2
    assert data[0]["term"]["variant"] == "binate"
    # dim-0 corollary renders with point symbols
    d0 = sb.special_case("dim0", inv)
    assert "pt+" in render.expansion_text(d0, amb, "dim")
    inv32 = mkinv(3, 2, "O(3)")
    latex = render.expansion_text(
        sb.bezout_expansion(inv32), pj.ambient(3, 2), "dim", latex=True)
    assert r"\widetilde{S}" in latex


def _one_term_of_each_kind():
    """(ambient, invariants, term, halvable) for each kind of term, each
    term a valid stratum of its space."""
    inv43 = mkinv(4, 3, "O(2),xO(3),O(5)")
    inv21 = mkinv(2, 1, "O(3),xO(1)")
    return [
        ((4, 3), inv43, sb.BinatePair(3, 2, 1), True),
        ((4, 3), inv43, sb.BinatePair(4, 2, 1), False),
        ((4, 3), inv43, sb.BinatePair(3, 2, 1, "zeta0"), False),
        ((4, 3), inv43, sb.InvariantChain(2, 2, 1, 0), False),
        ((4, 3), inv43, sb.FreeOrbit(4, inv43.euler_degree()), False),
        ((2, 1), inv21, sb.FixedPoint(0, 0, inv21.euler_degree()), False),
    ]


@pytest.mark.parametrize(
    "pq, inv, term, halvable", _one_term_of_each_kind(),
    ids=["binate_defect0", "binate_defect1", "binate_singular", "chain",
         "free_orbit", "fixed_point"])
def test_one_halving_rule_for_expansion_half_class_and_text(pq, inv, term, halvable):
    amb = pj.ambient(*pq)
    whole = sb.class_of(term, amb)
    assert not whole.is_zero()
    assert sb.has_half(term) is halvable
    # the expansion takes an odd numerator exactly on a halvable term
    if halvable:
        sb.BezoutExpansion(pq, inv, [(1, term)])
    else:
        with pytest.raises(ArithmeticError, match="half-integral"):
            sb.BezoutExpansion(pq, inv, [(1, term)])
    # ... exactly where the half class exists
    if halvable:
        assert sb.half_class_of(term, amb).scale(2) == whole
    else:
        with pytest.raises(sb.InfeasibleTerm, match="no canonical half"):
            sb.half_class_of(term, amb)
    # ... and exactly where the text shows the term as a doubled chain
    text = render.expansion_text(sb.BezoutExpansion(pq, inv, [(2, term)]), amb)
    if halvable:
        chain = sb.InvariantChain(term.p_i, term.q_i, 0, 0)
        assert text == "2 " + render.term_text(chain, amb)
    else:
        assert text == render.term_text(term, amb)
