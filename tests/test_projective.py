import gc
import os
import random
import subprocess
import sys
import textwrap
import weakref
from itertools import islice

import pytest
from hypothesis import given, seed, settings, strategies as st

from c2bezout import grading as gr
from c2bezout import point as pt
from c2bezout import projective as pj
from c2bezout import render
from c2bezout import schubert as sb
from c2bezout import verify as vf
from c2bezout.grading import GradingError, PiBDegree


@pytest.fixture
def a22():
    return pj.ambient(2, 2)


def xi_cls(amb, n=1):
    return pj.ProjClass.from_point(amb, pt.p_sym(("xi", n)))


def test_defining_relations(a22):
    z0, z1 = pj.gen_zeta0(a22), pj.gen_zeta1(a22)
    cw, cxw = pj.gen_cw(a22), pj.gen_cxw(a22)
    assert z0 * z1 == xi_cls(a22)
    onemk = pj.ProjClass.from_point(a22, pt.p_one_minus_kappa())
    e2 = pj.ProjClass.from_point(a22, pt.p_sym(("e", 2)))
    assert z1 * cxw == onemk * z0 * cw + e2
    assert (cw ** 2) * (cxw ** 2) == pj.ProjClass.zero(a22)


def test_zeta_squared_times_quadric(a22):
    z0 = pj.gen_zeta0(a22)
    Q = pj.class_Q(a22)
    assert z0 * z0 * Q == (z0 * pj.gen_cxw(a22)).scale(2)


def test_restriction_values(a22):
    assert pj.gen_cw(a22).rho() == {(0, 1, 1): 1}
    assert pj.gen_zeta0(a22).rho() == {(2, -1, 0): 1}
    assert pj.class_Q(a22).rho() == {(0, 0, 1): 2}
    # divided class on a (1, q) space: unique solution of zeta0 * x = c_w
    a12 = pj.ambient(1, 2)
    div = pj.divided(a12, 1, 0)
    assert div.rho() == {(-2, 2, 1): 1}
    assert pj.gen_zeta0(a12) * div == pj.gen_cw(a12)


def test_fixed_values(a22):
    assert pj.gen_zeta0(a22).fixed() == ({}, {0: 1})
    assert pj.gen_cw(a22).fixed() == ({1: 1}, {0: 1})
    assert (pj.gen_cw(a22) * pj.gen_cxw(a22)).fixed() == ({1: 1}, {1: 1})
    assert pj.class_Q(a22).fixed() == ({1: 2}, {1: 2})
    assert (pj.gen_zeta0(a22) ** 3).fixed() == ({}, {0: 1})


def test_transfer_unit_and_frobenius(a22):
    assert pj.proj_tau(a22, {(0, 0, 0): 1}) == pj.ProjClass.from_point(
        a22, pt.p_sym(pt.S_G))
    # chi Q = zeta0 c_w + zeta1 c_xw = tau(iota^2 c) + e^2
    chiq = pj.class_chi_Q(a22)
    e2 = pj.ProjClass.from_point(a22, pt.p_sym(("e", 2)))
    assert chiq == pj.proj_tau(a22, {(2, 0, 1): 1}) + e2
    # tau(c^k) tau(c) = 2 tau(c^{k+1})
    t1 = pj.proj_tau(a22, {(0, 0, 1): 1})
    t2 = pj.proj_tau(a22, {(0, 0, 2): 1})
    assert t1 * t1 == t2.scale(2)


def test_transfer_rejects_odd_iota(a22):
    with pytest.raises(pt.OutsideSupportedSubring):
        pj.proj_tau(a22, {(1, 0, 1): 1})


def test_transfer_degree_guard(a22):
    target = PiBDegree(2, 2, 2)
    assert not pj.proj_tau(a22, {(0, 0, 1): 1}, target).is_zero()
    with pytest.raises(GradingError):
        pj.proj_tau(a22, {(2, 0, 1): 1}, target)


def test_basis_enumeration_examples():
    assert pj.ambient(2, 1).basis(0) == (
        (0, 0, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1))
    assert pj.ambient(3, 0).basis(2) == (
        (0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0))
    for m in range(-11, 12):
        basis = pj.ambient(4, 5).basis(m)
        assert len(basis) == 9
        assert all(pj.mono_coset(mono) == m for mono in basis)


def test_cached_basis_cannot_be_changed():
    amb = pj.ambient(2, 1)
    basis = amb.basis(0)
    with pytest.raises(AttributeError):
        basis.append((9, 9, 9, 9))
    with pytest.raises(TypeError):
        basis[0] = (9, 9, 9, 9)
    assert amb.basis(0) == ((0, 0, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1))


@pytest.mark.parametrize("mono", [(0, 1, 0, 1), (1, 0, 2, 1)],
                         ids=["off_basis", "c_degree_out_of_range"])
def test_monomials_off_the_basis_escape_it(mono):
    """A coset-0 monomial of c-degree 1 that is not basis(0)[1], and one
    of c-degree 3, past the end of the basis, are not basis monomials."""
    amb = pj.ambient(2, 1)
    assert pj.mono_coset(mono) == 0
    with pytest.raises(pj.KernelError, match="escapes the basis"):
        pj.ProjClass(amb, ((mono, pj.ONE),)).reduce_to_basis()


def test_basis_matches_normal_monomials():
    for (p, q) in ((1, 1), (2, 2), (3, 1), (0, 3), (4, 0), (2, 3)):
        amb = pj.ambient(p, q)
        for m in range(-(p + q + 2), p + q + 3):
            assert all(amb.is_normal_mono(mono) for mono in amb.basis(m))


def test_reduce_to_basis_roundtrip(a22):
    Q = pj.class_Q(a22)
    vec = Q.reduce_to_basis()
    # coefficients sit on the zeta0 c_w and c_w c_xw slots
    assert vec == {(1, 0, 1, 0): {("tin", 1): 1},
                   (0, 0, 1, 1): {("eik", 2): 1}}
    rebuilt = pj.ProjClass.zero(a22)
    for mono, coeff in vec.items():
        rebuilt = rebuilt + pj.ProjClass.from_mono(a22, mono, coeff)
    assert rebuilt == Q
    assert pj.ProjClass.zero(a22).reduce_to_basis() == {}


def test_reduce_to_basis_needs_single_coset(a22):
    mixed = pj.gen_zeta0(a22) + pj.gen_cw(a22)
    with pytest.raises(GradingError):
        mixed.reduce_to_basis()


def test_product_of_random_basis_elements_roundtrips():
    amb = pj.ambient(3, 2)
    b1 = amb.basis(1)
    for ma in b1:
        for mb in b1:
            prod = pj.ProjClass.from_mono(amb, pj.mono_mul(ma, mb))
            vec = prod.reduce_to_basis() if not prod.is_zero() else {}
            rebuilt = pj.ProjClass.zero(amb)
            for mono, coeff in vec.items():
                rebuilt = rebuilt + pj.ProjClass.from_mono(amb, mono, coeff)
            assert rebuilt == prod


def test_degrees_are_tracked(a22):
    Q = pj.class_Q(a22)
    assert Q.degree() == PiBDegree(2, 2, 2)
    assert pj.class_chi_Q(a22).degree() == PiBDegree(2, 0, 0)
    assert pj.gen_zeta0(a22).degree() == PiBDegree(0, -2, 0)


def test_zero_ambients():
    # with q = 0 the space is an ordinary projective space; zeta1 invertible
    amb = pj.ambient(3, 0)
    assert (pj.gen_cw(amb) ** 3).is_zero()
    z1inv = pj.ProjClass.from_mono(amb, (0, -1, 0, 0))
    assert pj.gen_zeta1(amb) * z1inv == pj.ProjClass.unit(amb)
    amb0 = pj.ambient(0, 2)
    assert (pj.gen_cxw(amb0) ** 2).is_zero()
    z0inv = pj.ProjClass.from_mono(amb0, (-1, 0, 0, 0))
    assert pj.gen_zeta0(amb0) * z0inv == pj.ProjClass.unit(amb0)
    q = pj.class_Q(amb0)
    assert q.rho() == {(0, 0, 1): 2}


def test_invalid_ambient():
    with pytest.raises(ValueError):
        pj.Ambient(0, 0)


@pytest.mark.parametrize("p, q", [(2.0, 1), (2, 1.0), (True, 1), (1, False), ("2", 1)])
def test_non_integer_ambients_are_refused(p, q):
    # a bool is an int to Python, but not a dimension; True == 1, so the
    # registry would hand out the space (1, 1) for (True, 1)
    pj.ambient(1, 1)
    before = dict(pj._AMBIENTS)
    for build in (pj.Ambient, pj.ambient, vf._PerturbedAmbient):
        with pytest.raises(ValueError, match="invalid ambient"):
            build(p, q)
    assert pj._AMBIENTS == before


def test_ambients_compare_by_value():
    a, b = pj.Ambient(3, 2), pj.Ambient(3, 2)
    assert a == b and hash(a) == hash(b)
    assert a != pj.Ambient(2, 3)
    x, y = pj.gen_cw(a), pj.gen_cw(b)
    assert x == y
    assert x + y == x.scale(2) == pj.linear_combination(a, [(1, x), (1, y)])
    assert x * y == pj.gen_cw(a) ** 2
    # the perturbed ring equals no real space, in either order
    bad = vf._PerturbedAmbient(3, 2)
    assert bad != a and a != bad
    assert pj.gen_cw(bad) != x and x != pj.gen_cw(bad)
    with pytest.raises(ValueError, match="ambient mismatch"):
        x + pj.gen_cw(bad)


@pytest.mark.parametrize("m", [(0, -1, 0, 0), (0, 0, -1, 0), (-1, 0, 1, 0),
                               (1, -1, 0, 0)])
def test_from_mono_refuses_monomials_outside_the_ring(m):
    amb = pj.Ambient(2, 2)
    with pytest.raises(ValueError, match="outside the ring"):
        pj.ProjClass.from_mono(amb, m)


def test_ring_domain_is_what_reduces():
    """A monomial reduces exactly when its c exponents are nonnegative
    and each negative zeta power rides a saturated c power."""
    rng = random.Random(4817)
    for _ in range(400):
        amb = pj.Ambient(rng.randint(1, 4), rng.randint(0, 4))
        z0, z1, cw, ccw = m = (rng.randint(-4, 4), rng.randint(-4, 4),
                               rng.randint(-1, 7), rng.randint(-1, 7))
        inside = (cw >= 0 and ccw >= 0 and (z0 >= 0 or cw >= amb.p)
                  and (z1 >= 0 or ccw >= amb.q))
        if inside:
            pj.ProjClass.from_mono(amb, m)
        else:
            with pytest.raises(ValueError):
                pj.ProjClass.from_mono(amb, m)


def _raw_mono(p, q, z0, z1, cw, ccw, sat0, sat1):
    """A legal raw monomial: negative zeta exponents must ride a
    saturated power of the matching Euler generator."""
    if z0 < 0 or sat0:
        cw = max(cw, p)
    if z1 < 0 or sat1:
        ccw = max(ccw, q)
    return (z0, z1, cw, ccw)


@settings(max_examples=300, deadline=None)
@given(p=st.integers(0, 4), q=st.integers(0, 4),
       z0=st.integers(-4, 4), z1=st.integers(-4, 4),
       cw=st.integers(0, 7), ccw=st.integers(0, 7),
       sat0=st.booleans(), sat1=st.booleans())
def test_reduction_preserves_shadows(p, q, z0, z1, cw, ccw, sat0, sat1):
    """The reducer must agree with the shadow values computed straight
    from the raw exponents, an oracle independent of the rewrite rules."""
    if p + q == 0:
        return
    amb = pj.ambient(p, q)
    mono = _raw_mono(p, q, z0, z1, cw, ccw, sat0, sat1)
    cls = pj.ProjClass.from_mono(amb, mono)
    ia, za, ca = pj.mono_rho(mono)
    want_rho = {} if ca >= p + q else {(ia, za, ca): 1}
    assert cls.rho() == want_rho
    mz0, mz1, mcw, mccw = mono
    want_f0 = {} if (mz0 > 0 or mcw >= p) else {mcw: 1}
    want_f1 = {} if (mz1 > 0 or mccw >= q) else {mccw: 1}
    assert cls.fixed() == (want_f0, want_f1)
    # degrees survive reduction and the result is in basis coordinates
    if not cls.is_zero():
        assert cls.degrees() == {pj.mono_degree_pib(mono)}
        cls.reduce_to_basis()


@settings(max_examples=150, deadline=None)
@given(p=st.integers(1, 3), q=st.integers(1, 3),
       data=st.data())
def test_random_monomial_products_associate(p, q, data):
    amb = pj.ambient(p, q)
    monos = []
    for _ in range(3):
        m = data.draw(st.integers(-(p + q), p + q))
        basis = amb.basis(m)
        monos.append(basis[data.draw(st.integers(0, len(basis) - 1))])
    a, b, c = (pj.ProjClass.from_mono(amb, m) for m in monos)
    assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# the reducer on large inputs

def _reference_reduce(amb, m, memo):
    """The recursive rewrite system, rule for rule and in the same order,
    memoising every intermediate normal form as {mono: point element}: an
    independent reference for the kernel's iterative reducer."""
    if m in memo:
        return memo[m]
    z0, z1, cw, ccw = m
    p, q = amb.p, amb.q
    e2, omk = pt.p_sym(("e", 2)), pt.p_one_minus_kappa()
    if cw >= p and ccw >= q:
        rule = []
    elif z0 > 0 and z1 > 0:
        t = min(z0, z1)
        rule = [((z0 - t, z1 - t, cw, ccw), pt.p_sym(("xi", t)))]
    elif z1 > 0 and (z0 < 0 or cw >= p):
        rule = [((z0 - z1, 0, cw, ccw), pt.p_sym(("xi", z1)))]
    elif z0 > 0 and (z1 < 0 or ccw >= q):
        rule = [((0, z1 - z0, cw, ccw), pt.p_sym(("xi", z0)))]
    elif cw > p:
        rule = [((z0 - 1, z1 + 1, cw - 1, ccw + 1), omk),
                ((z0 - 1, z1, cw - 1, ccw), e2)]
    elif ccw > q or (z1 > 0 and ccw > 0):
        rule = [((z0 + 1, z1 - 1, cw + 1, ccw - 1), omk),
                ((z0, z1 - 1, cw, ccw - 1), e2)]
    elif z0 >= 2 and cw >= 1:
        rule = [((z0 - 2, z1, cw - 1, ccw + 1), pt.p_sym(("xi", 1))),
                ((z0 - 1, z1, cw - 1, ccw), e2)]
    else:
        assert amb.is_normal_mono(m)
        memo[m] = {m: pt.p_int(1)}
        return memo[m]
    acc = {}
    for child, coeff in rule:
        for mono, c in _reference_reduce(amb, child, memo).items():
            acc[mono] = pt.p_add(acc.get(mono, ()), pt.p_mul(coeff, c))
    memo[m] = {mono: c for mono, c in acc.items() if c}
    return memo[m]


def test_saturated_powers_in_the_hundreds_reduce():
    """c_w^405 on P(C^5 + C^3 sigma) used to exhaust the recursion limit;
    powers by squaring reduce only shallow monomials, an independent route."""
    amb = pj.ambient(5, 3)
    assert pj.ProjClass.from_mono(amb, (0, 0, 405, 0)) == pj.gen_cw(amb) ** 405
    assert pj.ProjClass.from_mono(amb, (0, 0, 0, 405)) == pj.gen_cxw(amb) ** 405


def test_reducer_matches_recursive_reference():
    rng = random.Random(20231)
    regimes = set()
    for _ in range(300):
        p, q = rng.randint(0, 12), rng.randint(0, 12)
        if p + q == 0:
            continue
        mono = _raw_mono(p, q, rng.randint(-40, 40), rng.randint(-40, 40),
                         rng.randint(0, 40), rng.randint(0, 40),
                         rng.random() < 0.2, rng.random() < 0.2)
        amb = pj.Ambient(p, q)
        got = dict(amb.reduce_mono(mono))
        assert got == _reference_reduce(amb, mono, {}), (p, q, mono)
        if not amb.is_normal_mono(mono):
            # a fresh space memoises the whole rewrite DAG of a small
            # reduction, and only the root of a large one
            regimes.add(len(amb._reduce) > 1)
    assert regimes == {False, True}


@settings(max_examples=40, deadline=None)
@given(p=st.integers(0, 1000), q=st.integers(0, 1000),
       z0=st.integers(-250, 250), z1=st.integers(-250, 250),
       cw=st.integers(0, 300), ccw=st.integers(0, 300),
       shape=st.sampled_from(("raw", "divided", "chain")),
       slack=st.integers(-1, 1))
def test_large_reductions_are_normal_and_keep_shadows(p, q, z0, z1, cw, ccw,
                                                      shape, slack):
    if shape == "chain":
        # zeta0^(c_w + 2) c_w^k, give or take one zeta0, on a space just
        # above c_w: a long zeta0^2 c_w path from a large root down to
        # small monomials (see test_long_zeta0_chains_reduce)
        p, q = cw + 1 + p % 3, cw + 1 + q % 3
        mono = (cw + 2 + slack, 0, cw, ccw % 4)
    if p + q == 0:
        return
    amb = pj.ambient(p, q)
    if shape == "chain":
        cls = pj.ProjClass.from_mono(amb, mono)
    elif shape == "divided":
        # zeta0^-k c_w^p or zeta1^-k c_xw^q, times further Euler classes
        which = z0 % 2
        k = abs(z1)
        cls = pj.divided(amb, k, which, ccw) * pj.ProjClass.from_mono(
            amb, (0, 0, cw, 0))
        mono = (-k, 0, p + cw, ccw) if which == 0 else (0, -k, cw, q + ccw)
    else:
        mono = _raw_mono(p, q, z0, z1, cw, ccw, False, False)
        cls = pj.ProjClass.from_mono(amb, mono)
    assert all(amb.is_normal_mono(m) for m, _ in cls.terms)
    if not cls.is_zero():
        assert cls.degree() == pj.mono_degree_pib(mono)
    ia, za, ca = pj.mono_rho(mono)
    assert cls.rho() == ({} if ca >= p + q else {(ia, za, ca): 1})
    mz0, mz1, mcw, mccw = mono
    assert cls.fixed() == ({} if mz0 > 0 or mcw >= p else {mcw: 1},
                           {} if mz1 > 0 or mccw >= q else {mccw: 1})


def test_degrees_of_an_inhomogeneous_class():
    """Two degrees from two monomials, and two from one monomial whose
    coefficient has two symbols; degree() refuses either class."""
    amb = pj.ambient(2, 2)
    two_monos = pj.gen_cw(amb) + pj.gen_cxw(amb)
    assert two_monos.degrees() == {gr.DEG_CW, gr.DEG_CXW}
    two_syms = pj.ProjClass.from_mono(amb, pj.MONO_CW, {("e", 1): 1, pt.S_G: 3})
    assert len(two_syms.terms) == 1
    assert two_syms.degrees() == {gr.DEG_CW + gr.DEG_E, gr.DEG_CW}
    for cls in (two_monos, two_syms):
        with pytest.raises(GradingError, match="not homogeneous"):
            cls.degree()
    assert pj.ProjClass.zero(amb).degrees() == set()


@pytest.mark.parametrize("k", [72, 73, 74, 150, 200])
def test_long_zeta0_chains_reduce(k):
    """zeta0^(k+2) c_w^k on P(C^(k+1) + C^(k+1) sigma): a rewrite path
    from a large root down to small monomials.  From k = 73 on (k = 73 is
    Ambient(74, 74) and (75, 0, 73, 0)), this tripped a depth guard that
    took its bound from the child."""
    amb = pj.Ambient(k + 1, k + 1)
    mono = (k + 2, 0, k, 0)
    cls = pj.ProjClass(amb, amb.reduce_mono(mono))
    assert cls.terms and all(amb.is_normal_mono(m) for m, _ in cls.terms)
    assert cls.degree() == pj.mono_degree_pib(mono)


_MONO_DRAW = st.tuples(
    st.sampled_from(("normal", "vanishing", "one_step", "raw", "peel_chain")),
    st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 9), st.integers(0, 9),
    st.booleans(), st.booleans())


def _drawn_monos(amb, kind, z0, z1, cw, ccw, sat0, sat1):
    """The monomials to reduce, in order, for one draw: a one-step draw
    reduces its rule's children first, so they are cached."""
    p, q = amb.p, amb.q
    if kind == "normal":
        basis = amb.basis(z0)
        return [basis[cw % len(basis)]]
    if kind == "vanishing":
        return [(z0, z1, p + cw, q + ccw)]
    if kind == "peel_chain":
        # c_w^(p + k) or c_xw^(q + k) peels k times, each peel in two
        return [(abs(z0), 0, p + 3 * cw, 0) if sat0 else (0, abs(z1), 0, q + 3 * ccw)]
    if kind == "one_step":
        # one peel of c_w or c_xw, or a raw monomial, after its children
        if sat1:
            mono = _raw_mono(p, q, z0, z1, cw, ccw, sat0, False)
        elif sat0:
            mono = (abs(z0), 0, p + 1 + cw % 2, ccw % max(q, 1))
        else:
            mono = (0, abs(z1), cw % max(p, 1), q + 1 + ccw % 2)
        return [child for child, _ in amb._rewrite(mono) or ()] + [mono]
    return [_raw_mono(p, q, z0, z1, cw, ccw, sat0, sat1)]


@seed(20241)
@settings(max_examples=200, deadline=None)
@given(p=st.integers(0, 5), q=st.integers(0, 5),
       draws=st.lists(_MONO_DRAW, min_size=1, max_size=6))
def test_one_step_reductions_match_the_walker(p, q, draws):
    """reduce_mono settles a miss of one rewrite step itself and leaves
    the rest to _reduce_walk: on two fresh ambients fed the same
    monomials, it gives what the walker alone gives, and caches the same
    normal forms."""
    if p + q == 0:
        return
    fast, walked = pj.Ambient(p, q), pj.Ambient(p, q)

    def walk(m):
        cached = walked._reduce.get(m)
        return cached if cached is not None else walked._reduce_walk(m, walked._rewrite(m))

    for draw in draws:
        for m in _drawn_monos(fast, *draw):
            assert fast.reduce_mono(m) == walk(m), (p, q, m)
    assert fast._reduce == walked._reduce


@settings(max_examples=300, deadline=None)
@given(p=st.integers(0, 12), q=st.integers(0, 12),
       z0=st.integers(-30, 30), z1=st.integers(-30, 30),
       cw=st.integers(0, 30), ccw=st.integers(0, 30), chain=st.booleans())
def test_every_rewrite_lowers_the_path_measure(p, q, z0, z1, cw, ccw, chain):
    """The depth guard bounds a path by the root's measure, which holds
    only if every rule lowers the measure."""
    if p + q == 0:
        return
    amb = pj.Ambient(p, q)
    m = (cw + 2, 0, cw, ccw) if chain else (z0, z1, cw, ccw)
    try:
        rule = amb._rewrite(m)
    except pj.KernelError:  # stuck: a negative Chern exponent
        return
    for child, _ in rule or ():
        assert 0 <= amb._measure(child) < amb._measure(m), (p, q, m, child)


def test_faulty_rules_raise_instead_of_looping():
    amb = pj.Ambient(2, 2)
    amb._rewrite = lambda m: ((m, pj.ONE),)                   # a self-loop
    with pytest.raises(pj.KernelError, match="did not terminate"):
        amb.reduce_mono((0, 0, 3, 0))
    amb = pj.Ambient(2, 2)
    amb._rewrite = lambda m: (((m[0] + 1,) + m[1:], pj.ONE),)  # diverges
    with pytest.raises(pj.KernelError, match="did not terminate"):
        amb.reduce_mono((0, 0, 3, 0))


def test_large_bases_have_full_rank():
    amb = pj.ambient(1000, 1000)
    for m in (0, 1, -1, 10 ** 5, -10 ** 5):
        basis = amb.basis(m)
        assert len(set(basis)) == 2000
        assert all(pj.mono_coset(mono) == m for mono in basis)


_THREADED_SCRIPT = textwrap.dedent("""
    import sys
    import threading
    from c2bezout import point as pt
    from c2bezout import projective as pj

    assert pt.CACHE_LIMIT == 64
    p, q = 6, 5
    monos = [(z0, z1, cw, ccw) for z0 in (-3, 0, 2, 7) for z1 in (0, 1, 5)
             for cw in (0, 3, 6, 20) for ccw in (0, 2, 5, 15)
             if z0 >= 0 or cw >= p]
    want = {m: pj.Ambient(p, q).reduce_mono(m) for m in monos}
    shared = pj.Ambient(p, q)
    errors = []

    def work(k):
        try:
            for r in range(3):
                order = monos[k * 7 % len(monos):] + monos[:k * 7 % len(monos)]
                for m in order[::1 if (k + r) % 2 else -1]:
                    if shared.reduce_mono(m) != want[m]:
                        errors.append(("differs", k, m))
        except BaseException as exc:
            errors.append((type(exc).__name__, k, str(exc)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "a thread hung"
    finally:
        sys.setswitchinterval(old)
    assert not errors, errors[:5]
    print(len(monos))
""")


def test_threads_share_one_ambient_under_a_tiny_cache():
    """README: classes and caches may be used from several threads.  With
    64-entry caches every reduction races against clears."""
    env = dict(os.environ, C2BEZOUT_CACHE_SIZE="64")
    out = subprocess.run([sys.executable, "-c", _THREADED_SCRIPT],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 100


def _tensor_sides(amb):
    z0, z1 = pj.gen_zeta0(amb), pj.gen_zeta1(amb)
    cw, cxw = pj.gen_cw(amb), pj.gen_cxw(amb)
    onemk = pj.ProjClass.from_point(amb, pt.p_one_minus_kappa())
    e2 = pj.ProjClass.from_point(amb, pt.p_sym(("e", 2)))
    return z1 * cxw, onemk * z0 * cw + e2


def test_corrupt_rule_changes_normal_forms():
    # the perturbed ring is a private ambient of its own
    lhs, rhs = _tensor_sides(vf._PerturbedAmbient(2, 2))
    assert lhs != rhs
    lhs, rhs = _tensor_sides(pj.ambient(2, 2))
    assert lhs == rhs


def test_perturbed_ambient_leaves_held_ambient_alone():
    held = pj.ambient(3, 3)
    want = render.proj_text(pj.gen_zeta1(held) * pj.gen_cxw(held))
    bad = vf._PerturbedAmbient(3, 3)
    assert render.proj_text(pj.gen_zeta1(bad) * pj.gen_cxw(bad)) != want
    assert pj.ambient(3, 3) is held
    assert render.proj_text(pj.gen_zeta1(held) * pj.gen_cxw(held)) == want
    assert "2 e^2" not in want and "e^2" in want


def test_held_ambient_survives_run_verify():
    held = pj.ambient(3, 3)
    before = pj.gen_zeta1(held) * pj.gen_cxw(held)
    q_before = pj.class_Q(held) * pj.class_chi_Q(held)
    rep = vf.run_verify(vf.SweepConfig(), groups=("proj_relations", "soundness"))
    assert rep.passed
    assert any(r.name == "harness_soundness" and r.status == "pass"
               for r in rep.records)
    assert pj.ambient(3, 3) is held
    assert pj.gen_zeta1(held) * pj.gen_cxw(held) == before
    assert pj.class_Q(held) * pj.class_chi_Q(held) == q_before
    fresh = pj.Ambient(3, 3)
    assert (pj.gen_zeta1(fresh) * pj.gen_cxw(fresh)).terms == before.terms


# ---------------------------------------------------------------------------
# immutability

def test_terms_and_coefficients_are_immutable(a22):
    Q = pj.class_Q(a22)
    with pytest.raises(TypeError):
        Q.terms[0] = Q.terms[1]
    mono, coeff = Q.terms[0]
    with pytest.raises(TypeError):
        coeff[0] = (("e", 1), 1)
    with pytest.raises(AttributeError):
        coeff.append((("e", 1), 1))


def test_reduce_to_basis_output_does_not_alias(a22):
    Q = pj.class_Q(a22)
    text = render.proj_text(Q)
    cached = a22.reduce_mono((1, 0, 1, 0))
    vec = Q.reduce_to_basis()
    for coeff in vec.values():
        coeff[("e", 1)] = 7
    vec.clear()
    assert render.proj_text(Q) == text
    assert pj.class_Q(a22) == Q
    assert a22.reduce_mono((1, 0, 1, 0)) == cached


def test_sums_and_products_share_no_mutable_state(a22):
    z0, cw = pj.gen_zeta0(a22), pj.gen_cw(a22)
    total = z0 + cw
    prod = z0 * cw
    for cls in (total, prod, total.scale(3), total - cw):
        assert isinstance(cls.terms, tuple)
        for mono, coeff in cls.terms:
            assert isinstance(mono, tuple) and isinstance(coeff, tuple)
    assert total - cw == z0
    assert list(total.terms) == sorted(total.terms)


# ---------------------------------------------------------------------------
# per-ambient memo

def test_private_ambient_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        amb = pj.Ambient(3, 2)
        Q = pj.class_Q(amb)
        chi = pj.class_chi_Q(amb)
        term = sb.BinatePair(4, 2, 1, "zeta0")
        cls = sb.class_of(term, amb) * Q * chi
        assert sb.class_of(term, amb) == sb.class_of(term, amb)
        assert not cls.is_zero()
        ref = weakref.ref(amb)
        del amb, Q, chi, cls
        assert ref() is None
    finally:
        gc.enable()


def test_ambients_share_no_memo_entries():
    good = pj.Ambient(2, 2)
    bad = vf._PerturbedAmbient(2, 2)
    got_bad = bad.memo("tensor", lambda: _tensor_sides(bad)[0])
    got_good = good.memo("tensor", lambda: _tensor_sides(good)[0])
    assert render.proj_text(got_bad) != render.proj_text(got_good)
    assert good.memo("tensor", lambda: None) == got_good
    assert bad.memo("tensor", lambda: None) == got_bad
    assert got_good == _tensor_sides(good)[1]
    # the registered space keeps its own memo too
    reg = pj.ambient(2, 2)
    assert pj.class_Q(reg).terms == pj.class_Q(good).terms
    assert pj.class_Q(reg).amb is reg


def test_registered_memos_hold_no_string_key_but_chi_Q():
    """Q and the line factors are S-kernel units: after a default sweep
    and a query stream round in a fresh process, the only string key of
    any registered space's memo is "chi_Q"."""
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent("""
            import sys
            sys.path.insert(0, sys.argv[1])
            import queries, worker
            import c2bezout as lib
            from c2bezout import projective as pj, render
            assert lib.run_verify().passed
            for qry in queries.query_stream(11):
                worker.answer(lib, render, qry)
            keys = {k for amb in pj._AMBIENTS.values() for k in amb._memo
                    if isinstance(k, str)}
            print(len(pj._AMBIENTS), sorted(keys))
        """), bench],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    count, keys = out.stdout.split(" ", 1)
    assert int(count) > 100 and keys.strip() == "['chi_Q']"


def test_quadric_and_line_factors_are_unit_s_kernels():
    for amb in (pj.Ambient(2, 2), pj.Ambient(3, 1), pj.Ambient(0, 3),
                pj.Ambient(4, 0), vf._PerturbedAmbient(2, 2)):
        Q = pj.class_Q(amb)
        # the stated form tau(c) + e^-2 kappa c_w c_xw, on any ring
        want = pj.proj_tau(amb, {(0, 0, 1): 1}) + pj.ProjClass.from_mono(
            amb, (0, 0, 1, 1), pt.p_kappa(2))
        assert Q.terms == want.terms, amb
        assert amb._memo[("S", pj.UNIT, 1)] is Q.terms
        for mono, zeta in ((pj.MONO_ZETA1, pj.gen_zeta1), (pj.MONO_ZETA0, pj.gen_zeta0)):
            n, unit = pj.s_kernel_pair(amb, mono, 1, 2)
            assert n == 1 and unit.terms == (zeta(amb) * Q).terms, (amb, mono)
        assert not any(isinstance(k, str) for k in amb._memo)


# ---------------------------------------------------------------------------
# memoised unit transfers and kernels, one-pass sums

def _old_witness_tau(amb, a, b, k, coeff=1):
    """coeff * tau(iota^a zeta^b c^k) on the witness used before basis
    witnesses: zeta^|r| c_w^min(k,p) c_xw^(k-min(k,p)), which the
    reducer walks whenever zeta0^2 c_w divides it."""
    cw = min(k, amb.p)
    ccw = k - cw
    r = b - (cw - ccw)
    z0, z1 = (0, r) if r >= 0 else (-r, 0)
    j = (a - 2 * (z0 + ccw)) // 2
    return pj.ProjClass.from_mono(amb, (z0, z1, cw, ccw), pt.p_tau({2 * j: coeff}))


def _reference_tau(amb, x):
    """proj_tau without the memo: each monomial's transfer built on the
    old witness with its coefficient inside the point transfer, summed
    with +."""
    out = pj.ProjClass.zero(amb)
    for (a, b, k), coeff in x.items():
        assert a % 2 == 0 and k >= 0
        if k < amb.p + amb.q:
            out = out + _old_witness_tau(amb, a, b, k, coeff)
    return out


def _s_kernel(amb, mono, defect, numerator):
    """The class (numerator/2) * mono * S_k of the pair s_kernel_pair
    gives."""
    return pj.linear_combination(amb, [pj.s_kernel_pair(amb, mono, defect, numerator)])


def _reference_s_kernel(amb, mono, defect, numerator):
    """_s_kernel without the memo: numerator/2 folded into the transfer
    and the kappa coefficient."""
    if defect == 0:
        return pj.ProjClass.from_mono(amb, mono, numerator)
    half = numerator // 2
    if half == 0:
        return pj.ProjClass.zero(amb)
    a, b, k = pj.mono_rho(mono)
    kappa_mono = pj.mono_mul(mono, (0, 0, defect, defect))
    return (_reference_tau(amb, {(a, b, k + defect): half})
            + pj.ProjClass.from_mono(amb, kappa_mono,
                                     pt.p_scale(pt.p_kappa(2 * defect), half)))


def test_memoised_transfers_match_the_reference():
    rng = random.Random(5071)
    for p, q in ((2, 2), (3, 1), (0, 4), (4, 0), (3, 5)):
        amb = pj.Ambient(p, q)   # fresh: the memo starts empty
        laurent = []
        for _ in range(40):
            a, b, k = 2 * rng.randint(-4, 4), rng.randint(-5, 5), rng.randint(0, p + q + 1)
            # neighbours share iota and c exponents, so the memo must tell
            # zeta exponents apart
            laurent += [(a, b, k), (a, b + 1, k), (a + 2, b, k), (a, b, k + 1)]
        for rep in range(2):      # a miss, then a hit
            for mono in laurent:
                coeff = rng.choice([c for c in range(-5, 6) if c])
                assert pj.proj_tau(amb, {mono: coeff}) == \
                    _reference_tau(amb, {mono: coeff}), (amb, mono, coeff)
            x = {m: rng.randint(-5, 5) for m in rng.sample(laurent, 4)}
            assert pj.proj_tau(amb, x) == _reference_tau(amb, x), (amb, x)
        assert any(k[0] == "tau" for k in amb._memo if type(k) is tuple)


def test_memoised_kernels_match_the_reference():
    rng = random.Random(5072)
    for p, q in ((2, 2), (3, 1), (1, 3), (4, 3)):
        amb = pj.Ambient(p, q)
        monos = []
        for _ in range(12):
            monos.append((0, 0, rng.randint(0, p), rng.randint(0, q)))
            monos.append((rng.randint(0, 3), rng.randint(0, 3),
                          rng.randint(0, p), rng.randint(0, q)))
            # divided monomials: negative zeta exponents on a saturated power
            k = rng.randint(1, 4)
            monos.append((-k, 0, p, rng.randint(0, q)))
            monos.append((0, -k, rng.randint(0, p), q))
        for rep in range(2):
            for mono in monos:
                defect = rng.randint(1, 4)
                numerator = 2 * rng.randint(-4, 4)
                got = _s_kernel(amb, mono, defect, numerator)
                want = _reference_s_kernel(amb, mono, defect, numerator)
                assert got == want, (amb, mono, defect, numerator)
                odd = rng.choice([-3, 1, 5])
                assert _s_kernel(amb, mono, 0, odd) == \
                    _reference_s_kernel(amb, mono, 0, odd)
        assert any(k[0] == "S" for k in amb._memo if type(k) is tuple)


def test_memoised_classes_keep_every_validation():
    amb = pj.Ambient(2, 2)
    target = PiBDegree(2, 2, 2)
    pj.proj_tau(amb, {(0, 0, 1): 3, (2, 0, 1): 1})
    pj.s_kernel_pair(amb, (0, 0, 1, 1), 2, 4)
    # the same monomials again, now memoised: the guards still run first
    with pytest.raises(GradingError, match="tau target .* does not match"):
        pj.proj_tau(amb, {(2, 0, 1): 1}, target)
    with pytest.raises(ValueError, match="negative c-exponent -1 in transfer"):
        pj.proj_tau(amb, {(0, 0, -1): 1})
    with pytest.raises(pt.OutsideSupportedSubring,
                       match=r"tau\(iota\^1 zeta\^0 c\^1\) lies outside"):
        pj.proj_tau(amb, {(1, 0, 1): 1})
    with pytest.raises(ArithmeticError,
                       match="coefficient 3/2 on a defect-2 term is not integral"):
        pj.s_kernel_pair(amb, (0, 0, 1, 1), 2, 3)


def test_unit_transfers_match_the_old_witness_route():
    """_unit_tau on basis witnesses against the old witness route, on
    fresh ambients: a stride through p, q <= 13, a in {-6,-2,0,2,4,8},
    |b| <= p + q + 3 and k < p + q (divided witnesses included), and the
    largest walks of the old route."""
    cases = [(p, q, a, b, k)
             for p in range(14) for q in range(14) if p + q
             for a in (-6, -2, 0, 2, 4, 8)
             for b in range(-(p + q + 3), p + q + 4) for k in range(p + q)]
    ambs = {}
    for p, q, a, b, k in cases[::97]:
        new, old = ambs.setdefault((p, q), (pj.Ambient(p, q), pj.Ambient(p, q)))
        assert pj._unit_tau(new, a, b, k).terms == \
            _old_witness_tau(old, a, b, k).terms, (p, q, a, b, k)
    assert len(ambs) == 195
    # old witnesses (36,0,24,0) on (32, 64) and (33,0,21,0) on (44, 48)
    for (p, q), (b, k) in (((32, 64), (-12, 24)), ((44, 48), (-12, 21))):
        for a in (-4, 0, 6):
            assert pj._unit_tau(pj.Ambient(p, q), a, b, k).terms == \
                _old_witness_tau(pj.Ambient(p, q), a, b, k).terms, (p, q, a)


@seed(20261)
@settings(max_examples=200, deadline=None)
@given(p=st.integers(0, 40), m=st.integers(-50, 50), data=st.data())
def test_basis_iter_lists_one_monomial_per_c_degree(p, m, data):
    q = data.draw(st.integers(0 if p else 1, 40 - p))
    k = data.draw(st.integers(0, p + q - 1))
    mono = next(islice(pj._basis_iter(p, q, m), k, None))
    assert mono[2] + mono[3] == k
    assert pj.mono_coset(mono) == m
    assert mono == pj.Ambient(p, q).basis(m)[k]


def test_large_unit_transfer_needs_no_walk_and_no_basis():
    """tau(zeta^-12 c^24) on (32, 64) took a 257-node walk on the old
    witness; on its basis witness it takes none, and caches no basis."""
    def no_walk(m, rule):
        raise AssertionError(f"walked {m}")

    amb = pj.Ambient(32, 64)
    amb._reduce_walk = no_walk
    got = pj.proj_tau(amb, {(0, -12, 24): 1})
    assert amb._basis == {}
    assert got.terms == _old_witness_tau(pj.Ambient(32, 64), 0, -12, 24).terms
    old = pj.Ambient(32, 64)
    old._reduce_walk = no_walk
    with pytest.raises(AssertionError, match="walked"):
        _old_witness_tau(old, 0, -12, 24)


def _random_classes(amb, rng, count):
    pool = [pt.p_int(1), pt.p_int(-2), pt.p_kappa(), pt.p_one_minus_kappa(),
            pt.p_sym(("e", 2)), pt.p_sym(("xi", 1), 3), pt.p_sym(("exi", 1, 1))]
    out = []
    for _ in range(count):
        cls = pj.ProjClass.zero(amb)
        for _ in range(rng.randint(1, 4)):
            mono = (rng.randint(0, 2), rng.randint(0, 2),
                    rng.randint(0, amb.p), rng.randint(0, amb.q))
            cls = cls + pj.ProjClass.from_mono(amb, mono, rng.choice(pool))
        out.append(cls)
    return out


def test_linear_combination_matches_chained_sums():
    rng = random.Random(5073)
    amb = pj.ambient(3, 2)
    for _ in range(60):
        classes = _random_classes(amb, rng, rng.randint(1, 5))
        pairs = [(rng.randint(-3, 3), c) for c in classes]
        want = pj.ProjClass.zero(amb)
        for n, c in pairs:
            want = want + c.scale(n)
        assert pj.linear_combination(amb, pairs) == want
    x, y = _random_classes(amb, rng, 2)
    # sums that cancel to zero
    assert pj.linear_combination(amb, [(1, x), (-1, x)]).is_zero()
    assert pj.linear_combination(amb, [(2, x), (1, y), (-1, x.scale(2)),
                                       (-1, y)]).terms == ()
    assert pj.linear_combination(amb, []).is_zero()
    assert pj.linear_combination(amb, [(0, x)]).is_zero()
    with pytest.raises(ValueError, match="ambient mismatch"):
        pj.linear_combination(amb, [(1, x), (1, pj.gen_cw(pj.ambient(2, 3)))])


def test_from_mono_normalizes_pair_coefficients():
    amb = pj.ambient(2, 2)
    mono = (1, 0, 1, 1)
    want = pj.ProjClass.from_mono(amb, mono, {("xi", 1): 2, ("exi", 1, 1): 1})
    # unsorted pairs, a zero coefficient and a 2-torsion coefficient of 3
    pairs = ((("xi", 1), 2), (("e", 2), 0), (("exi", 1, 1), 3))
    got = pj.ProjClass.from_mono(amb, mono, pairs)
    assert got == want and got.terms == want.terms
    assert pj.ProjClass.from_mono(amb, mono, ((("exi", 1, 1), 2),)).is_zero()
    assert pj.ProjClass.from_mono(amb, mono, {pt.S_ONE: 1}).terms == \
        pj.ProjClass.from_mono(amb, mono).terms


def test_scale_point_matches_the_reference():
    """scale_point against a sum of from_mono over the terms, and
    against a class product."""
    rng = random.Random(5074)
    hs = [pt.p_int(0), pt.p_int(-3), pt.p_kappa(), pt.p_one_minus_kappa(),
          pt.p_sym(("tin", 1)), pt.p_sym(("e", 1), 2), pt.p_sym(("exi", 1, 1)),
          pt.p_add(pt.p_sym(pt.S_G, 2), pt.p_int(-1))]
    for p, q in ((2, 2), (3, 1), (1, 3)):
        amb = pj.ambient(p, q)
        for cls in _random_classes(amb, rng, 20):
            for h in hs:
                want = pj.ProjClass.zero(amb)
                for m, c in cls.terms:
                    want = want + pj.ProjClass.from_mono(amb, m, pt.p_mul(h, c))
                got = cls.scale_point(h)
                assert got == want and got.terms == want.terms, (cls, h)
                assert got == pj.ProjClass.from_point(amb, h) * cls, (cls, h)
