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
    assert prod == {("exi", 1, 1): 1}
    assert pt.p_scale(prod, 2) == {}


def test_kappa_squares_to_twice_itself():
    kap = pt.p_kappa()
    assert pt.p_mul(kap, kap) == pt.p_scale(kap, 2)


def test_e_against_inverse_kappa():
    assert pt.p_mul(e(2), eik(3)) == eik(1)
    assert pt.p_mul(e(2), eik(2)) == pt.p_kappa()
    assert pt.p_mul(e(3), eik(2)) == e(1, 2)
    assert pt.p_mul(xi(1), eik(4)) == {}


def test_g_and_e_annihilate():
    assert pt.p_mul(G, e(3)) == {}
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
    assert pt.p_text({}) == "0"
    assert pt.p_text(xi(3)) == "xi^3"


def test_json_rendering():
    data = pt.p_json(pt.p_add(G, e(2, -3)))
    assert {"symbol": "e", "params": [2], "coeff": -3} in data


def _direct_product(a, b, n=1):
    """n * a * b straight from the symbol rule, without the table."""
    out = {}
    for s, c in pt._mul_sym(a, b):
        out = pt.p_add(out, {s: n * c})
    return out


def test_table_products_match_the_symbol_rule():
    syms = point_symbols_in_window(8)
    zero_pairs = 0
    for a in syms:
        for b in syms:
            want = _direct_product(a, b)
            assert pt.p_mul({a: 1}, {b: 1}) == want, (a, b)
            assert pt.p_mul({a: 3}, {b: -2}) == _direct_product(a, b, -6), (a, b)
            zero_pairs += not want
    assert zero_pairs > 0
    assert pt.p_mul(xi(1), eik(1)) == {}


def test_frozen_elements_multiply_like_dicts():
    x = pt.p_add(pt.p_kappa(), xi(2, 3))
    y = pt.p_add(G, e(1, 5))
    assert pt.p_freeze(x) == tuple(sorted(x.items()))
    for a in (x, pt.p_freeze(x)):
        for b in (y, pt.p_freeze(y)):
            assert pt.p_mul(a, b) == pt.p_mul(x, y)
            assert pt.p_add(a, b) == pt.p_add(x, y)
    assert pt.p_scale(pt.p_freeze(x), -4) == pt.p_scale(x, -4)
    assert pt.p_rho(pt.p_freeze(x)) == pt.p_rho(x)
    assert pt.p_fixed(pt.p_freeze(x)) == pt.p_fixed(x)
    assert pt.p_json(pt.p_freeze(x)) == pt.p_json(x)


symbols = st.sampled_from(point_symbols_in_window(6))
elements = st.lists(
    st.tuples(symbols, st.integers(-4, 4)), min_size=0, max_size=4).map(
        lambda items: pt.normalized(
            {s: c for s, c in items if c}))


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
