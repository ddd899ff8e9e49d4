import pytest
from hypothesis import given, settings, strategies as st

from c2bezout import point as pt
from c2bezout.verify import _fig1_expected, point_symbols_in_window


G = pt.p_sym(pt.S_G)
ONE = pt.p_int(1)


def e(m, c=1):
    return pt.p_sym(("e", m), c)


def xi(n, c=1):
    return pt.p_sym(("xi", n), c)


def eik(m, c=1):
    return pt.p_sym(("eik", m), c)


def test_burnside_multiplication():
    assert pt.p_mul(G, G) == pt.p_sym(pt.S_G, 2)


def test_inverse_kappa_powers():
    assert pt.p_mul(eik(1), eik(1)) == eik(2, 2)


def test_e_xi_torsion():
    prod = pt.p_mul(e(1), xi(1))
    assert prod == ((("exi", 1, 1), 1),)
    assert pt.p_scale(prod, 2) == ()


def test_kappa_squares_to_twice_itself():
    kap = pt.p_kappa()
    assert pt.p_mul(kap, kap) == pt.p_scale(kap, 2)


def test_e_against_inverse_kappa():
    assert pt.p_mul(e(2), eik(3)) == eik(1)
    assert pt.p_mul(e(2), eik(2)) == pt.p_kappa()
    assert pt.p_mul(e(3), eik(2)) == e(1, 2)
    assert pt.p_mul(xi(1), eik(4)) == ()


def test_g_and_e_annihilate():
    assert pt.p_mul(G, e(3)) == ()
    assert pt.p_mul(G, xi(1)) == xi(1, 2)


def test_rho_values():
    assert pt.p_rho(xi(2)) == {4: 1}
    assert pt.p_rho(e(3)) == {}
    assert pt.p_rho(G) == {0: 2}
    assert pt.p_rho(pt.p_sym(("tin", 2))) == {-4: 2}
    assert pt.p_rho(eik(1)) == {}


def test_tau_values():
    assert pt.p_tau({0: 1}) == G
    assert pt.p_tau({2: 1}) == xi(1, 2)
    assert pt.p_tau({6: 1}) == xi(3, 2)
    assert pt.p_tau({-4: 1}) == pt.p_sym(("tin", 2))
    with pytest.raises(pt.OutsideSupportedSubring):
        pt.p_tau({3: 1})


def test_fixed_values():
    assert pt.p_fixed(e(4)) == 1
    assert pt.p_fixed(xi(1)) == 0
    assert pt.p_fixed(pt.p_kappa()) == 2
    assert pt.p_fixed(eik(5)) == 2
    assert pt.p_fixed(pt.p_sym(("tin", 1))) == 0


def test_negative_kappa_exponent_collapses():
    # e^j kappa = 2 e^j
    assert pt.p_kappa(-3) == e(3, 2)


def test_window_census_matches_figure():
    census = {}
    for s in point_symbols_in_window(8):
        d = pt.sym_degree(s)
        census.setdefault((d.trivial_rank, d.sign_rank), []).append(s)
    for (a, b), syms in census.items():
        want = _fig1_expected(a, b)
        assert want != "0", (a, b, syms)
        if want == "Z/2":
            assert all(s[0] == "exi" for s in syms)


def test_text_rendering():
    assert pt.p_text(pt.p_kappa()) == "kappa"
    assert pt.p_text(eik(2)) == "e^-2 kappa"
    assert pt.p_text(pt.p_sym(("tin", 2))) == "tau(iota^-4)"
    assert pt.p_text(()) == "0"
    assert pt.p_text(xi(3)) == "xi^3"


def test_json_rendering():
    data = pt.p_json(pt.p_add(G, e(2, -3)))
    assert {"symbol": "e", "params": [2], "coeff": -3} in data


def _direct_product(a, b, n=1):
    """n * a * b straight from the symbol rule, without the table."""
    out = ()
    for s, c in pt._mul_sym(a, b):
        out = pt.p_add(out, pt.p_sym(s, n * c))
    return out


def test_table_products_match_the_symbol_rule():
    syms = point_symbols_in_window(8)
    zero_products = 0
    for a in syms:
        for b in syms:
            want = _direct_product(a, b)
            assert pt.p_mul(pt.p_sym(a), pt.p_sym(b)) == want, (a, b)
            assert pt.p_mul(pt.p_sym(a, 3), pt.p_sym(b, -2)) == \
                _direct_product(a, b, -6), (a, b)
            zero_products += not want
    assert zero_products > 0
    assert pt.p_mul(xi(1), eik(1)) == ()


def _canonical(x):
    """A sorted tuple of (symbol, int) pairs with distinct symbols, no
    zero coefficients and 2-torsion reduced mod 2."""
    return (type(x) is tuple and list(x) == sorted(x)
            and len({s for s, _ in x}) == len(x)
            and all(type(c) is int and c and (s[0] != "exi" or c == 1)
                    for s, c in x))


def test_normalize_reads_dicts_and_unsorted_input():
    want = ((pt.S_ONE, 2), (("exi", 1, 1), 1), (pt.S_G, -1), (("xi", 2), 3))
    assert pt.p_add(pt.p_kappa(), pt.p_add(xi(2, 3), pt.p_sym(("exi", 1, 1)))) == want
    assert pt.p_normalize(dict(want)) == want
    assert pt.p_normalize(reversed(want)) == want
    # repeats add up, zeros drop out, 2-torsion reduces mod 2
    assert pt.p_normalize([(("xi", 2), 1), (pt.S_G, -1), (("e", 1), 0),
                           (("exi", 1, 1), 3), (pt.S_ONE, 2), (("xi", 2), 2),
                           (("eik", 1), 4), (("eik", 1), -4)]) == want
    assert pt.p_normalize({}) == () == pt.p_normalize([(("exi", 1, 1), 2)])


def test_every_constructor_and_operation_returns_the_canonical_form():
    x = pt.p_add(pt.p_kappa(), xi(2, 3))
    y = pt.p_add(G, e(1, 5))
    t = pt.p_sym(("exi", 2, 1))
    outs = [pt.p_int(0), pt.p_int(-3), pt.p_sym(("e", 2), 0), pt.p_sym(("exi", 1, 1), 3),
            pt.p_sym(("exi", 1, 1), 2), pt.p_kappa(), pt.p_kappa(3), pt.p_kappa(-3),
            pt.p_one_minus_kappa(), pt.p_tau({0: 1, 2: -1, -4: 3}), pt.p_tau({}),
            pt.p_normalize({("xi", 1): 2, pt.S_G: 1}),
            pt.p_add(x, y), pt.p_add(x, pt.p_scale(x, -1)), pt.p_add(t, t),
            pt.p_scale(x, 0), pt.p_scale(x, -4), pt.p_scale(t, 3),
            pt.p_mul(x, y), pt.p_mul(x, ()), pt.p_mul(t, t), pt.p_mul(e(1), xi(1)),
            pt.p_mul(xi(1), eik(1)), pt.p_mul(pt.p_kappa(), pt.p_kappa())]
    for out in outs:
        assert _canonical(out), out


def _reference_ops(x, y):
    """Sum and product by the symbol rule, put in normal form once."""
    add = pt.p_normalize(x + y)
    mul = pt.p_normalize((s, ca * cb * c) for sa, ca in x for sb, cb in y
                         for s, c in pt._mul_sym(sa, sb))
    return add, mul


def _ops_match_the_reference(x, y):
    add, mul = _reference_ops(x, y)
    assert pt.p_mul(x, y) == mul, (x, y)
    assert pt.p_add(x, y) == add, (x, y)
    for n in (0, -1, 2, 3):
        assert pt.p_scale(x, n) == pt.p_normalize((s, n * c) for s, c in x), (x, n)
    for out in (pt.p_mul(x, y), pt.p_add(x, y), pt.p_scale(x, 2)):
        assert _canonical(out), out


def test_operations_match_the_reference_on_symbols():
    syms = point_symbols_in_window(8)
    zero_products = 0
    for a in syms:
        for b in syms:
            _ops_match_the_reference(pt.p_sym(a), pt.p_sym(b))
            _ops_match_the_reference(pt.p_sym(a, 3), pt.p_sym(b, -3))
            zero_products += not pt.p_mul(((a, 1),), ((b, 1),))
    assert zero_products > 0


def test_frozen_operations_on_sums_and_torsion():
    kappa = pt.p_kappa()
    two_minus_g = pt.p_add(pt.p_int(2), pt.p_sym(pt.S_G, -1))
    assert kappa == two_minus_g
    elements = [kappa, pt.p_one_minus_kappa(), two_minus_g,
                pt.p_add(kappa, xi(2, 3)), pt.p_add(G, e(1, 5)),
                pt.p_add(eik(2, -1), pt.p_sym(("tin", 1), 2)),
                pt.p_sym(("exi", 1, 2)), pt.p_add(e(1), xi(1)), ()]
    for x in elements:
        for y in elements:
            _ops_match_the_reference(x, y)
    # e^m xi^n is 2-torsion: sums and even multiples cancel
    exi = pt.p_sym(("exi", 2, 1))
    assert pt.p_add(exi, exi) == ()
    assert pt.p_scale(exi, 2) == () and pt.p_scale(exi, -1) == exi
    sum_exi = pt.p_add(pt.p_mul(e(1), xi(1)), pt.p_mul(xi(1), e(1)))
    assert sum_exi == ()


symbols = st.sampled_from(point_symbols_in_window(6))
elements = st.lists(st.tuples(symbols, st.integers(-4, 4)),
                    min_size=0, max_size=4).map(pt.p_normalize)


@settings(max_examples=200, deadline=None)
@given(x=elements, y=elements, z=elements)
def test_ring_axioms(x, y, z):
    assert pt.p_mul(x, y) == pt.p_mul(y, x)
    assert pt.p_mul(pt.p_mul(x, y), z) == pt.p_mul(x, pt.p_mul(y, z))
    lhs = pt.p_mul(x, pt.p_add(y, z))
    rhs = pt.p_add(pt.p_mul(x, y), pt.p_mul(x, z))
    assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(x=elements, k=st.integers(-4, 4))
def test_frobenius_point(x, k):
    lhs = pt.p_mul(x, pt.p_tau({2 * k: 1}))
    rhs = pt.p_tau({2 * k + ie: c for ie, c in pt.p_rho(x).items()})
    assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(x=elements, y=elements)
def test_shadows_are_ring_maps(x, y):
    prod = pt.p_mul(x, y)
    rx, ry = pt.p_rho(x), pt.p_rho(y)
    conv = {}
    for e1, c1 in rx.items():
        for e2, c2 in ry.items():
            conv[e1 + e2] = conv.get(e1 + e2, 0) + c1 * c2
    conv = {k: v for k, v in conv.items() if v}
    assert pt.p_rho(prod) == conv
    assert pt.p_fixed(prod) == pt.p_fixed(x) * pt.p_fixed(y)


@settings(max_examples=200, deadline=None)
@given(x=elements, y=elements)
def test_frozen_operations_match_on_random_elements(x, y):
    _ops_match_the_reference(x, y)
