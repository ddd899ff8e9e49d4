import gc
import itertools
import os
import random
import subprocess
import sys
import textwrap
import weakref
from decimal import Decimal
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, seed, settings, strategies as st

from c2bezout import bundles as bd
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


@pytest.fixture
def fresh_reductions(monkeypatch):
    """Empty ring tables for both ring classes during the test, and the
    old ones after it: a fresh or patched reducer, unit builder or class
    builder then reads no entry that another test left, and leaves none
    behind."""
    for cls in (pj.Ambient, vf._PerturbedAmbient):
        # only a table the class owns: one read through its parent stays so
        if "_ring_table" in vars(cls):
            monkeypatch.setattr(cls, "_ring_table", pj._RingTable())


def _alone(amb):
    """amb with a ring table of its own, so it reads no entry that
    another ambient made."""
    amb._ring_table = pj._RingTable()
    return amb


def _ring_keys(ring):
    """Every key of every sub-table of a ring table."""
    return [key for table in ring.values() for key in table]


def _viewed_keys(amb):
    """The keys of the ring's sub-tables that amb has read or filled."""
    return {key for table in amb._tables for key in table}


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


def test_divided_refuses_a_which_that_is_neither_0_nor_1():
    amb = pj.Ambient(2, 2)
    for which in (2, -1, "0", None):
        with pytest.raises(ValueError, match="neither 0 nor 1"):
            pj.divided(amb, 1, which)
    assert pj.divided(amb, 1, 1) == pj.ProjClass.from_mono(amb, (0, -1, 0, 2))


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
    # space (True, 1) would read the entries of (1, 1)
    pj.ambient(1, 1)
    before = set(pj.Ambient._ring_table)
    for build in (pj.Ambient, pj.ambient, vf._PerturbedAmbient):
        with pytest.raises(ValueError, match="invalid ambient"):
            build(p, q)
    assert set(pj.Ambient._ring_table) == before


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


def test_non_integer_exponents_are_refused_before_any_cache(fresh_reductions):
    """A float or bool exponent is a ValueError on the miss path, and
    leaves no entry in the ring's table, nor a view of it on the space: a
    float twin of an int monomial hashes like it, so its float terms
    would be read back by the int call, on every space that shares the
    key."""
    amb = pj.Ambient(3, 3)
    for m in ((0, 1.0, 0, 1), (0, 0, 0.5, 0), (True, 0, 0, 0), (0, 0, 1, 2.0)):
        with pytest.raises(ValueError, match=r"non-integer exponent in monomial"):
            amb.reduce_mono(m)
        with pytest.raises(ValueError, match=r"non-integer exponent in monomial"):
            pj.ProjClass.from_mono(amb, m)
    with pytest.raises(ValueError, match=r"non-integer exponent in monomial"):
        pj.divided(amb, 1.5, 0)
    assert amb._tables == [] and pj.Ambient._ring_table == {}
    assert pj.Ambient._ring_table.size == 0
    for m in ((0, 1, 0, 1), (0, 0, 0, 0), (1, 0, 0, 0)):
        terms = amb.reduce_mono(m)
        assert terms and all(type(x) is int for mono, _ in terms for x in mono)
        assert pj.Ambient(3, 4).reduce_mono(m) == terms


def test_non_integer_exponents_are_refused_cold_warm_and_shared(fresh_reductions):
    """A float or bool twin of an int monomial hashes like it, so a cache
    or memo read would hand back the int monomial's entry: the refusal
    must not depend on whether that entry is missing, left in the ring's
    table by this space, or left there by another space."""
    cases = [(lambda amb, m: amb.reduce_mono(m), (0, 0, 1, 0), (0, 0, 1.0, 0)),
             (lambda amb, m: amb.reduce_mono(m), (1, 0, 0, 0), (True, 0, 0, 0)),
             (lambda amb, m: pj.s_kernel_pair(amb, m, 1, 2), (0, 1, 0, 0), (0, 1.0, 0, 0)),
             (lambda amb, m: pj.s_kernel_pair(amb, m, 2, 4), (0, 0, 1, 1), (0, 0, True, 1))]
    for call, good, twin in cases:
        for how in ("cold", "warm", "shared"):
            pj.Ambient._ring_table = pj._RingTable()
            amb = pj.Ambient(4, 4)
            if how == "warm":
                call(amb, good)
            elif how == "shared":
                call(pj.Ambient(9, 7), good)   # the same clipped keys
                assert pj.Ambient._ring_table
            with pytest.raises(ValueError, match=r"non-integer exponent in monomial"):
                call(amb, twin)
            keys = _ring_keys(pj.Ambient._ring_table)
            monos = ([key for key in keys if type(key) is tuple and type(key[0]) is not str]
                     + [key[1] for key in keys if key[0] == "S"])
            assert all(type(x) is int for m in monos for x in m), (how, twin)


@pytest.mark.parametrize("coeff", [1.5, 2.0, Fraction(1, 2), Decimal(3), 1j])
def test_from_mono_refuses_a_number_that_is_not_an_int(coeff):
    amb = pj.Ambient(2, 2)
    with pytest.raises(ValueError, match="neither an int nor a point element"):
        pj.ProjClass.from_mono(amb, pj.MONO_CW, coeff)
    assert amb._tables == []


def test_s_kernels_refuse_a_non_integer_numerator_or_defect():
    """Before the memo is read: a float numerator made (1.0, unit)."""
    amb = pj.Ambient(3, 3)
    for defect, numerator in ((1, 2.0), (0, 3.0), (1.0, 2), (2, True),
                              (False, 2), (1, Fraction(2))):
        for mono in (pj.UNIT, (0, 0, 1, 1)):
            with pytest.raises(ValueError,
                               match=r"non-integer defect .* or numerator .* in an S-kernel"):
                pj.s_kernel_pair(amb, mono, defect, numerator)
    assert amb._tables == []


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
    independent reference for the kernel's iterative reducer, on the ring
    whose tensor relation has the space's e^2 coefficient."""
    if m in memo:
        return memo[m]
    z0, z1, cw, ccw = m
    p, q = amb.p, amb.q
    e2, omk = pt.p_sym(("e", 2), amb.TENSOR_E2), pt.p_one_minus_kappa()
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


def test_reducer_matches_recursive_reference(fresh_reductions):
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
        before = pj.Ambient._ring_table.size
        got = dict(amb.reduce_mono(mono))
        assert got == _reference_reduce(amb, mono, {}), (p, q, mono)
        if not amb.is_normal_mono(mono):
            # a miss memoises the whole rewrite DAG of a small reduction,
            # and only the root of a large one
            regimes.add(pj.Ambient._ring_table.size - before > 1)
    assert regimes == {False, True}


def _spaces_near_keys(rng, p, q, c):
    """(p, q), then spaces whose clipped key for a monomial of c-degree c
    is that of (p, q) (a dimension above c may be any other above c),
    then spaces on the other side of the clip, whose keys differ."""
    def others(n):
        return [n] if n <= c else [n, c + 1, c + 1 + rng.randint(0, 6), 60]
    same = [(a, b) for a in others(p) for b in others(q) if a + b]
    other = [(a, b) for a, b in ((c, q), (p, c), (c + 1, q), (p, c + 1))
             if a + b and (a, b) not in same]
    return same, other


def test_spaces_share_reductions_by_clipped_key(fresh_reductions):
    """Seeded monomials, raw, saturated and divided, each reduced on
    fresh spaces that share its clipped key, all but the first through
    the ring's table, and on spaces just across the clip: every normal
    form is the recursive reference's on its own space."""
    rng = random.Random(20243)
    shapes, hits = set(), 0
    for _ in range(250):
        p, q = rng.randint(0, 6), rng.randint(0, 6)
        if p + q == 0:
            continue
        shape = rng.choice(("raw", "saturated", "divided"))
        z0, z1 = rng.randint(-4, 4), rng.randint(-4, 4)
        cw, ccw = rng.randint(0, 6), rng.randint(0, 6)
        if shape == "raw":
            mono = _raw_mono(p, q, max(z0, 0), max(z1, 0), cw, ccw, False, False)
        elif shape == "saturated":
            # past c_w^p, and sometimes c_xw^q too: peels, or zero
            mono = _raw_mono(p, q, z0, z1, p + cw, ccw, True, rng.random() < 0.3)
        else:
            k = abs(z0) + 1
            mono = (-k, 0, p + cw, ccw) if z1 % 2 else (0, -k, cw, q + ccw)
        c = mono[2] + mono[3]
        same, other = _spaces_near_keys(rng, p, q, c)
        for i, (a, b) in enumerate(same + other):
            amb = pj.Ambient(a, b)
            table = amb._table(c)
            assert table is pj.Ambient._ring_table[min(a, c + 1), min(b, c + 1)]
            # the first space leaves the normal form for the others
            hit = mono in table
            assert hit or i == 0 or i >= len(same), (a, b, mono)
            try:
                got = dict(amb.reduce_mono(mono))
            except ValueError:   # a divided monomial outside a neighbour's ring
                assert i >= len(same) and min(mono[:2]) < 0
                continue
            assert got == _reference_reduce(amb, mono, {}), (a, b, mono)
            hits += hit and i < len(same)
            if hit:
                shapes.add(shape)
    assert shapes == {"raw", "saturated", "divided"}
    assert hits > 100


def test_perturbed_ring_keeps_its_own_reductions(fresh_reductions):
    """The perturbed ring reads only its own table: after a real space of
    the same (p, q) has reduced a monomial, a perturbed space still gives
    the perturbed ring's normal form, and after that a fresh real space
    still gives the real one."""
    assert vf._PerturbedAmbient._ring_table is not pj.Ambient._ring_table
    rng = random.Random(20244)
    differ = 0
    for _ in range(60):
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        mono = _raw_mono(p, q, rng.randint(-2, 3), rng.randint(-2, 3),
                         rng.randint(0, 6), rng.randint(0, 6), False, False)
        real = pj.Ambient(p, q).reduce_mono(mono)
        bad = vf._PerturbedAmbient(p, q)
        c = mono[2] + mono[3]
        assert mono in pj.Ambient._ring_table[min(p, c + 1), min(q, c + 1)]
        got = bad.reduce_mono(mono)
        assert dict(got) == _reference_reduce(bad, mono, {}), (p, q, mono)
        again = pj.Ambient(p, q)
        assert dict(again.reduce_mono(mono)) == _reference_reduce(again, mono, {})
        differ += got != real
    assert differ > 10


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
def test_long_zeta0_chains_reduce(k, fresh_reductions):
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
    normal forms.  Each has a ring table of its own, empty at every
    example, so neither stops at a reduction the other made."""
    if p + q == 0:
        return
    fast, walked = _alone(pj.Ambient(p, q)), _alone(pj.Ambient(p, q))

    def walk(m):
        cached = walked._table(m[2] + m[3]).get(m)
        if cached is None:
            return walked._reduce_walk(m, walked._rewrite(m))
        # a normal monomial's entry is the shared marker
        return ((m, pj.ONE),) if cached is pj._NORMAL else cached

    for draw in draws:
        for m in _drawn_monos(fast, *draw):
            assert fast.reduce_mono(m) == walk(m), (p, q, m)

    def reductions(amb):
        # the entries keyed by a monomial, a plain tuple of ints: a basis
        # that _drawn_monos read is not one
        return {(clip, m): entry for clip, table in amb._ring_table.items()
                for m, entry in table.items() if type(m) is tuple and type(m[0]) is int}

    assert reductions(fast) == reductions(walked)


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


def test_faulty_rules_raise_instead_of_looping(fresh_reductions):
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
    # spaces whose clipped keys coincide on the monomials of small
    # c-degree, so the threads also read each other's reductions
    spaces = [(6, 5), (6, 7), (7, 5), (30, 30), (25, 40)]
    monos = [(a, b, (z0, z1, cw, ccw)) for a, b in spaces
             for z0 in (-3, 0, 2, 7) for z1 in (0, 1, 5)
             for cw in (0, 3, 6, 20) for ccw in (0, 2, 5, 15)
             if z0 >= 0 or cw >= a]
    # unit S-kernels and their transfers, shared through the same table
    units = [(a, b, m, d) for a, b in spaces for m in ((0, 0, 1, 2), (0, 2, 1, 0),
             (-1, 0, a, 1), (0, -2, 2, b), (1, 0, 0, 3)) for d in (1, 2, 3)]
    want = {}
    for a, b, m in monos:
        alone = pj.Ambient(a, b)
        alone._ring_table = pj._RingTable()   # no entry from another space
        want[a, b, m] = alone.reduce_mono(m)
    for a, b, m, d in units:
        alone = pj.Ambient(a, b)
        alone._ring_table = pj._RingTable()
        want[a, b, m, d] = pj.s_kernel_pair(alone, m, d, 2)[1].terms
    ring = pj.Ambient._ring_table
    shared = {(a, b): pj.Ambient(a, b) for a, b in spaces}
    errors = []
    hits = []
    totals = []
    reduce = pj.Ambient._normal_form
    insert = pj._RingTable.insert

    def counted(self, m):
        if m in self._table(m[2] + m[3]):
            hits.append(m)
        return reduce(self, m)

    def bounded(self, table, key, value):
        out = insert(self, table, key, value)
        with self._lock:   # no insert is under way: the sum is exact
            totals.append(sum(map(len, list(self.values()))))
        return out

    pj.Ambient._normal_form = counted
    pj._RingTable.insert = bounded

    def work(k):
        try:
            for r in range(3):
                order = monos[k * 7 % len(monos):] + monos[:k * 7 % len(monos)]
                for a, b, m in order[::1 if (k + r) % 2 else -1]:
                    if shared[a, b].reduce_mono(m) != want[a, b, m]:
                        errors.append(("differs", k, a, b, m))
                for a, b, m, d in units[::1 if (k + r) % 2 else -1]:
                    # a fresh space of each, which reads the units of the
                    # others through the ring's table
                    got = pj.s_kernel_pair(pj.Ambient(a, b), m, d, 2)[1].terms
                    if got != want[a, b, m, d]:
                        errors.append(("unit differs", k, a, b, m, d))
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
    assert len(hits) > 100, len(hits)
    # the sum of the sub-tables' sizes stayed within the cap after every
    # insert, and the ring's count is that sum
    assert len(totals) > 1000 and max(totals) <= 64, (len(totals), max(totals))
    assert 64 in totals   # the ring filled up, so it was emptied
    assert ring.size == sum(map(len, ring.values())) <= 64
    print(len(monos))
""")


def test_threads_share_one_ambient_under_a_tiny_cache():
    """README: classes and caches may be used from several threads.  With
    a 64-entry cap every reduction and unit S-kernel races against
    ring-wide clears of the table that the threads read across spaces,
    and the sum of its sub-tables' sizes never passes the cap."""
    env = dict(os.environ, C2BEZOUT_CACHE_SIZE="64")
    out = subprocess.run([sys.executable, "-c", _THREADED_SCRIPT],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 100


def test_entries_of_every_kind_share_a_sub_table_without_colliding(fresh_reductions):
    """On (2, 2) a reduction of c-degree 1, a Schubert class, a coset
    basis and chi_Q (c-degree 1) all live in the space's own sub-table.
    The term InvariantChain(2, 1, 1, 0) hashes like the monomial
    (2, 1, 1, 0) but equals no plain tuple; each entry comes back right
    whichever kind is stored first."""
    term, mono = sb.InvariantChain(2, 1, 1, 0), (2, 1, 1, 0)
    assert hash(term) == hash(mono) and term != mono and mono != term
    builds = {"reduction": lambda amb: amb.reduce_mono(mono),
              "schubert": lambda amb: sb.class_of(term, amb).terms,
              "basis": lambda amb: amb.basis(0),
              "chi_Q": lambda amb: pj.class_chi_Q(amb).terms}
    want = {kind: build(_alone(pj.Ambient(2, 2))) for kind, build in builds.items()}
    assert len(set(want.values())) == 4
    for order in itertools.permutations(builds):
        pj.Ambient._ring_table = pj._RingTable()
        for kind in order + order:   # stored, then read back
            assert builds[kind](pj.Ambient(2, 2)) == want[kind], (order, kind)
        table = pj.Ambient._ring_table[2, 2]
        assert {mono, term, ("basis", 0), "chi_Q"} <= set(table)
        assert [key for key in table if key == mono] == [mono]
        assert [key for key in table if key == term] == [term]


def test_negative_c_exponents_reach_the_domain_check_without_a_sub_table(
        fresh_reductions):
    """A monomial with a negative c exponent is refused before any view
    of the ring is made, and so is an S-kernel whose c-degree is
    negative: no sub-table is keyed by a negative clip."""
    amb = pj.Ambient(3, 3)
    for m in ((0, 0, -1, 0), (0, 0, 0, -2), (0, 0, -1, 3), (1, 0, 4, -1)):
        with pytest.raises(ValueError, match="outside the ring"):
            amb.reduce_mono(m)
    with pytest.raises(ValueError, match="outside the ring"):
        pj.s_kernel_pair(amb, (0, 0, -5, 0), 1, 2)
    assert amb._tables == [] and not pj.Ambient._ring_table
    # a space with views already refuses them the same way
    amb.reduce_mono((0, 0, 2, 2))
    clips = set(pj.Ambient._ring_table)
    with pytest.raises(ValueError, match="outside the ring"):
        amb.reduce_mono((0, 0, -1, 3))
    assert set(pj.Ambient._ring_table) == clips and all(min(clip) >= 1 for clip in clips)


def test_a_class_held_across_a_ring_wide_clear_equals_a_fresh_one(
        monkeypatch, fresh_reductions):
    """With the ring capped at 40 entries, products, units, chi_Q and
    Schubert classes over many spaces empty it over and over; the count
    stays the sum of the sub-tables' sizes, and classes held from before
    a clear equal, and multiply like, ones built on a space alone.  Equal
    spaces share one list of views, which a clear drops from the ring."""
    monkeypatch.setattr(pt, "CACHE_LIMIT", 40)
    ring = pj.Ambient._ring_table

    def classes(amb):
        term = sb.InvariantChain(amb.p, amb.q, min(amb.q, 1), min(amb.p, 1))
        return [pj.class_Q(amb), pj.class_chi_Q(amb),
                pj.gen_cw(amb) ** 3 * pj.gen_zeta1(amb),
                pj.proj_tau(amb, {(2, -1, 2): 3}), sb.class_of(term, amb)]

    first = pj.Ambient(3, 3)
    held = classes(first)
    twin = pj.Ambient(3, 3)
    classes(twin)
    assert twin._tables is first._tables is ring.views[3, 3]
    sizes, views = [], []
    for p in range(1, 7):
        for q in range(0, 7):
            classes(pj.Ambient(p, q))
            assert ring.size == sum(map(len, ring.values())) <= 40
            sizes.append(ring.size)
            views.append(len(ring.views))
    assert any(b < a for a, b in zip(sizes, sizes[1:]))   # it was emptied
    assert any(b < a for a, b in zip(views, views[1:]))
    alone = _alone(pj.Ambient(3, 3))
    fresh = classes(alone)
    assert [c.terms for c in held] == [c.terms for c in fresh]
    for x, y in zip(held, fresh):
        assert x * held[0] == pj.ProjClass(alone, (y * fresh[0]).terms)


_STREAM_SCRIPT = textwrap.dedent("""
    import gc
    import random
    import weakref
    from c2bezout import point as pt, projective as pj

    assert pt.CACHE_LIMIT == 1000
    gc.disable()   # a space must be freed without the cycle collector
    ring = pj.Ambient._ring_table
    held = pj.class_Q(pj.ambient(3, 3)) * pj.class_chi_Q(pj.ambient(3, 3))
    rng = random.Random(20260)
    pairs = [(p, q) for p in range(48) for q in range(48) if p + q]
    rng.shuffle(pairs)
    spaces, peak, emptied = [], 0, 0
    for p, q in pairs[:2100]:
        amb = pj.ambient(p, q)
        before = ring.size
        # a transfer of c-degree p + q - 1 and a basis read (p, q) alone
        x = (pj.class_Q(amb) * pj.gen_cw(amb) + pj.class_chi_Q(amb)
             + pj.proj_tau(amb, {(0, p, p + q - 1): 1}))
        assert x.terms == (pj.gen_cw(amb) * pj.class_Q(amb) + pj.class_chi_Q(amb)
                           + pj.proj_tau(pj.Ambient(p, q), {(0, p, p + q - 1): 1})).terms
        assert amb.basis(q)[-1] == pj.Ambient(p, q).basis(q)[-1]
        emptied += ring.size < before
        peak = max(peak, ring.size)
        spaces.append(amb)
    # each space keeps p, q and views of the ring's own sub-tables
    owned = {id(table) for table in ring.values()}
    for amb in spaces:
        assert set(vars(amb)) == {"p", "q", "_tables"}, vars(amb)
        assert all(id(table) in owned for table in amb._tables), amb
    assert ring.size == sum(map(len, ring.values())) and peak <= pt.CACHE_LIMIT
    assert held.terms == (pj.class_Q(pj.Ambient(3, 3))
                          * pj.class_chi_Q(pj.Ambient(3, 3))).terms
    refs = [weakref.ref(amb) for amb in spaces]
    del spaces, amb, x
    assert not any(ref() for ref in refs)
    print(len(refs), emptied, peak)
""")


def test_a_long_stream_of_spaces_keeps_no_per_space_state():
    """Over 2,100 distinct spaces in a fresh process, with the ring capped
    at 1,000 entries: no space holds a dict of its own, the ring's entries
    stay within the cap while it is emptied again and again, a class held
    from the start equals a fresh one, and every space is freed once
    dropped, as nothing registers it."""
    env = dict(os.environ, C2BEZOUT_CACHE_SIZE="1000")
    out = subprocess.run([sys.executable, "-c", _STREAM_SCRIPT],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    spaces, emptied, peak = map(int, out.stdout.split())
    assert spaces == 2100 and emptied >= 3 and peak <= 1000


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
    assert pj.ambient(3, 3) == held
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
    assert pj.ambient(3, 3) == held
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
    # a space from ambient() reads the real ring's entries
    reg = pj.ambient(2, 2)
    assert pj.class_Q(reg).terms == pj.class_Q(good).terms
    assert pj.class_Q(reg).amb is reg


def test_registered_memos_hold_no_string_key_but_chi_Q():
    """Q and the line factors are S-kernel units: after a default sweep
    and a query stream round in a fresh process, the only string key of
    any sub-table of the ring's table is "chi_Q"."""
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
            ring = pj.Ambient._ring_table
            keys = {k for table in ring.values() for k in table if isinstance(k, str)}
            print(len(ring), sorted(keys))
        """), bench],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    count, keys = out.stdout.split(" ", 1)
    assert int(count) > 100 and keys.strip() == "['chi_Q']"


def test_quadric_and_line_factors_are_unit_s_kernels(fresh_reductions):
    for amb in (pj.Ambient(2, 2), pj.Ambient(3, 1), pj.Ambient(0, 3),
                pj.Ambient(4, 0), vf._PerturbedAmbient(2, 2)):
        Q = pj.class_Q(amb)
        # the stated form tau(c) + e^-2 kappa c_w c_xw, on any ring
        want = pj.proj_tau(amb, {(0, 0, 1): 1}) + pj.ProjClass.from_mono(
            amb, (0, 0, 1, 1), pt.p_kappa(2))
        assert Q.terms == want.terms, amb
        assert amb._table(2)[("S", pj.UNIT, 1)] is Q.terms
        for mono, zeta in ((pj.MONO_ZETA1, pj.gen_zeta1), (pj.MONO_ZETA0, pj.gen_zeta0)):
            n, unit = pj.s_kernel_pair(amb, mono, 1, 2)
            assert n == 1 and unit.terms == (zeta(amb) * Q).terms, (amb, mono)
        assert not any(isinstance(k, str) for k in _ring_keys(amb._ring_table))


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


def _reference_unit_tau(amb, a, b, k):
    """_unit_tau on the route it took before its direct build: the basis
    witness through from_mono, with its coefficient built by p_tau."""
    witness = next(islice(pj._basis_iter(amb.p, amb.q, b), k, None))
    z0, _, _, ccw = witness
    return pj.ProjClass.from_mono(amb, witness, pt.p_tau({a - 2 * (z0 + ccw): 1}))


def _reference_unit_s_kernel(amb, mono, defect):
    """_unit_s_kernel on the route it took before its direct build: the
    reference transfer, plus the kappa monomial through from_mono with
    the coefficient p_kappa, added with +."""
    a, b, k = pj.mono_rho(mono)
    tau = (_reference_unit_tau(amb, a, b, k + defect) if k + defect < amb.p + amb.q
           else pj.ProjClass.zero(amb))
    kappa_mono = pj.mono_mul(mono, (0, 0, defect, defect))
    return tau + pj.ProjClass.from_mono(amb, kappa_mono, pt.p_kappa(2 * defect))


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
        assert any(k[0] == "tau" for k in _viewed_keys(amb) if type(k) is tuple)


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
        assert any(k[0] == "S" for k in _viewed_keys(amb) if type(k) is tuple)
    # the direct build against its old route, each on a fresh ambient
    cases = []
    for p, q in ((2, 2), (3, 1), (1, 3), (4, 3), (0, 3), (3, 0)):
        for defect in (1, 2, 3):
            cases += [(p, q, (0, 0, cw, ccw), defect)
                      for cw in range(p + 1) for ccw in range(q + 1)]
            cases += [(p, q, (z0, z1, 0, 0), defect) for z0, z1 in ((1, 0), (0, 1), (2, 0))]
            # divided monomials: the negative zeta rides c_w^p or c_xw^q
            cases += [(p, q, (-z, 0, p, ccw), defect)
                      for z in (1, 2) for ccw in range(q + 1) if p]
            cases += [(p, q, (0, -z, cw, q), defect)
                      for z in (1, 3) for cw in range(p + 1) if q]
    # kernels whose transfers take the large witnesses of
    # test_unit_transfers_match_the_old_witness_route
    cases += [(32, 64, (0, 0, 5, 17), 2), (44, 48, (0, 0, 4, 16), 1)]
    for p, q, mono, defect in cases:
        got = pj._unit_s_kernel(pj.Ambient(p, q), mono, defect)
        want = _reference_unit_s_kernel(pj.Ambient(p, q), mono, defect)
        assert got.terms == want.terms, (p, q, mono, defect)
    assert len(cases) > 300


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


def test_transfers_refuse_non_integer_exponents():
    amb = pj.Ambient(3, 3)
    for mono in ((0, 0.5, 1), (2, 1.5, 1), (0.0, 0, 1), (0, 0, True)):
        with pytest.raises(ValueError, match="non-integer exponent in tau"):
            pj.proj_tau(amb, {mono: 1})
    # an S-kernel refuses such a monomial or defect before its transfer
    with pytest.raises(ValueError, match="non-integer exponent in monomial"):
        pj.s_kernel_pair(amb, (0, 0, 1.0, 0), 1, 2)
    with pytest.raises(ValueError, match="non-integer defect 1.5"):
        pj.s_kernel_pair(amb, (0, 0, 1, 0), 1.5, 2)
    assert amb._tables == []


def test_s_kernels_refuse_a_negative_defect(fresh_reductions):
    amb = pj.Ambient(3, 3)
    # a planted entry where the memo would read it (c = 2 + 2 * -1): the
    # defect is refused before the memo is read
    amb._table(0)[("S", (0, 0, 1, 1), -1)] = ((pj.UNIT, pj.ONE),)
    for mono in ((0, 0, 1, 1), pj.UNIT):
        for numerator in (2, 3):
            with pytest.raises(ValueError, match="negative defect -1 in an S-kernel"):
                pj.s_kernel_pair(amb, mono, -1, numerator)
    with pytest.raises(ValueError, match="negative defect -4"):
        pj.s_kernel_pair(amb, pj.UNIT, -4, 2)


def test_s_kernels_refuse_monomials_outside_their_domain():
    # mono * c_w^k c_xw^k must lie in the ring: c exponents >= 0, and a
    # negative zeta exponent only on a power that the kernel saturates
    for p, q, mono, defect in ((2, 2, (0, 1, -1, 0), 1), (3, 2, (0, 0, 0, -1), 2),
                               (3, 2, (-1, 0, 1, 0), 1), (2, 4, (0, -2, 0, 2), 1)):
        with pytest.raises(ValueError, match="lies outside the ring"):
            pj.s_kernel_pair(pj.Ambient(p, q), mono, defect, 2)
    # divided monomials that the kernel saturates exactly pass
    amb = pj.Ambient(3, 2)
    for mono, defect in (((-1, 0, 1, 0), 2), ((-2, 0, 0, 1), 3), ((0, -1, 1, 1), 1)):
        n, unit = pj.s_kernel_pair(amb, mono, defect, 2)
        assert n == 1 and unit == _reference_s_kernel(amb, mono, defect, 2)


_SHARING_SCRIPT = textwrap.dedent("""
    import random
    import sys
    sys.path.insert(0, sys.argv[1])
    import queries, worker
    import c2bezout as lib
    from c2bezout import bundles as bd, point as pt, projective as pj
    from c2bezout import render, schubert as sb

    assert lib.run_verify().passed
    for qry in queries.query_stream(11):
        worker.answer(lib, render, qry)
    rng = random.Random(2022)
    for _ in range(300):
        p, q = rng.randint(0, 7), rng.randint(1, 7)
        tokens = []
        for _ in range(rng.randint(1, p + q)):
            fam = rng.choice(("O", "xO"))
            tokens.append(f"{fam}({rng.choice((-3, -2, -1, 1, 2, 3, 4, 5))})")
        amb = pj.ambient(p, q)
        bs = bd.BundleSum((p, q), bd.parse_bundles(",".join(tokens)))
        inv = bd.bundle_invariants(bs)
        product = bd.euler_product(amb, bs)
        if not inv.context_ok:
            continue
        if rng.random() < 0.5:
            assert bd.euler_closed_form(amb, inv) == product, tokens
        else:
            assert sb.expansion_class(sb.bezout_expansion(inv), amb) == product

    def shared(c):
        return pt._SHARED.get(c) is c

    assert all(k is v for k, v in pt._SHARED.items())
    ring = pj.Ambient._ring_table
    strings = {key for table in ring.values() for key in table if isinstance(key, str)}
    counts = [len(ring), 0, 0, 0]
    for (a, b), table in list(ring.items()):
        amb = pj.Ambient(a, b)   # the clipped space answers as every space under it
        for key, entry in table.items():
            if type(key) is not tuple or type(key[0]) is not int:
                if key[0] == "tau":
                    # a transfer's one term keeps the coefficient it was given
                    assert all(shared(c) for _, c in entry), (amb, key)
                    counts[3] += 1
                continue
            m = key
            # the marker is a normal monomial's entry, and only theirs
            assert (entry is pj._NORMAL) == amb.is_normal_mono(m), (amb, m)
            if entry is pj._NORMAL:
                counts[1] += 1
                continue
            rule = amb._rewrite(m)
            assert all(shared(c) for _, c in rule), (amb, m)
            # a rule straight to distinct normal monomials leaves its
            # coefficients in the normal form as they are
            children = [child for child, _ in rule]
            if rule and len(set(children)) == len(children) and all(
                    amb._table(child[2] + child[3]).get(child) is pj._NORMAL
                    for child in children):
                assert all(shared(c) for _, c in entry), (amb, m, entry)
                counts[2] += 1
    print(sorted(strings), *counts)
""")


def test_caches_share_coefficients_and_mark_normal_monomials():
    """After a default sweep, a query stream round and seeded euler and
    bezout queries, in a fresh process: the only string key of the
    ring's table is "chi_Q" (Q and the line factors are S-kernel units),
    every rule coefficient and every unit-transfer coefficient is the
    point ring's shared object for its value, and each normal monomial's
    reduction entry is the marker rather than a terms tuple."""
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
    out = subprocess.run([sys.executable, "-c", _SHARING_SCRIPT, bench],
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    strings, counts = out.stdout.rsplit("]", 1)
    assert strings + "]" == "['chi_Q']"
    spaces, normal, one_step, transfers = map(int, counts.split())
    assert spaces > 100 and normal > 500 and one_step > 100 and transfers > 100


def test_unit_transfers_match_the_old_witness_route(fresh_reductions):
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
        if (p, q) not in ambs:
            ambs[p, q] = tuple(pj.Ambient(p, q) for _ in range(3))
        new, old, ref = ambs[p, q]
        got = pj._unit_tau(new, a, b, k).terms
        assert got == _old_witness_tau(old, a, b, k).terms, (p, q, a, b, k)
        assert got == _reference_unit_tau(ref, a, b, k).terms, (p, q, a, b, k)
    assert len(ambs) == 195
    # old witnesses (36,0,24,0) on (32, 64) and (33,0,21,0) on (44, 48)
    for (p, q), (b, k) in (((32, 64), (-12, 24)), ((44, 48), (-12, 21))):
        for a in (-4, 0, 6):
            got = pj._unit_tau(pj.Ambient(p, q), a, b, k).terms
            assert got == _old_witness_tau(pj.Ambient(p, q), a, b, k).terms, (p, q, a)
            assert got == _reference_unit_tau(pj.Ambient(p, q), a, b, k).terms, (p, q, a)


def test_unit_builds_skip_the_outside_input_route(monkeypatch, fresh_reductions):
    """Unit transfers and S-kernels are built from their formulas: no
    from_mono, no scale_point.  The ring's tables start empty, so every
    unit here is built."""
    def refuse(*args):
        raise AssertionError("outside-input route")

    monkeypatch.setattr(pj.ProjClass, "from_mono", classmethod(refuse))
    monkeypatch.setattr(pj.ProjClass, "scale_point", refuse)
    amb = pj.Ambient(3, 4)
    pj.proj_tau(amb, {(2, -1, 3): 5, (0, 4, 6): 1})
    for mono, defect in ((pj.UNIT, 1), (pj.MONO_ZETA1, 1), ((0, -1, 1, 4), 2),
                         ((-2, 0, 3, 0), 3), ((0, 0, 2, 2), 1)):
        pj.s_kernel_pair(amb, mono, defect, 2)
    assert sum(k[0] == "S" for k in _ring_keys(pj.Ambient._ring_table)) == 5


@pytest.mark.parametrize("bad", [(1, 1, 0, 0), (0, 0, 2, 2), (2, 0, 1, 0)])
def test_unit_transfers_refuse_a_witness_that_is_not_normal(monkeypatch, bad,
                                                            fresh_reductions):
    """A basis that hands out a monomial the reducer rewrites (xi, zero,
    or xi c_xw + e^2 zeta0) is a KernelError, not a wrong transfer.  The
    ring's tables start empty, so no unit another test built hides it."""
    monkeypatch.setattr(pj, "_basis_iter", lambda p, q, m: iter([bad] * (p + q)))
    with pytest.raises(pj.KernelError, match="witness .* is not normal"):
        pj._unit_tau(pj.Ambient(2, 2), 0, 0, 1)
    # through the memo, and through the transfer part of an S-kernel
    with pytest.raises(pj.KernelError, match="witness .* is not normal"):
        pj.proj_tau(pj.Ambient(2, 2), {(0, 0, 1): 1})
    with pytest.raises(pj.KernelError, match="witness .* is not normal"):
        pj.class_Q(pj.Ambient(2, 2))


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


def test_large_unit_transfer_needs_no_walk_and_no_basis(fresh_reductions):
    """tau(zeta^-12 c^24) on (32, 64) took a 257-node walk on the old
    witness; on its basis witness it takes none, and caches no basis."""
    def no_walk(m, rule):
        raise AssertionError(f"walked {m}")

    amb = pj.Ambient(32, 64)
    amb._reduce_walk = no_walk
    got = pj.proj_tau(amb, {(0, -12, 24): 1})
    assert not any(k[0] == "basis" for k in _ring_keys(pj.Ambient._ring_table))
    assert got.terms == _old_witness_tau(pj.Ambient(32, 64), 0, -12, 24).terms
    # the old route again, on a space that cannot read the walk just made
    old = _alone(pj.Ambient(32, 64))
    old._reduce_walk = no_walk
    with pytest.raises(AssertionError, match="walked"):
        _old_witness_tau(old, 0, -12, 24)


def _unit_cases(rng, count):
    """Seeded (kind, args, c, p, q) unit cases: S-kernels on raw, divided
    and kernel-saturated monomials with defects 1-4, and transfers, where
    c is the largest c-degree the unit's build reads."""
    cases = []
    while len(cases) < count:
        p, q = rng.randint(0, 9), rng.randint(0, 9)
        if p + q == 0:
            continue
        if rng.random() < 0.3:
            k = rng.randint(0, p + q - 1)
            cases.append(("tau", (2 * rng.randint(-3, 3), rng.randint(-9, 9), k), k, p, q))
            continue
        defect = rng.randint(1, 4)
        cw, ccw = rng.randint(0, max(p, 1)), rng.randint(0, max(q, 1))
        z0, z1 = rng.randint(0, 3), rng.randint(0, 3)
        shape = rng.choice(("raw", "divided", "saturated"))
        if shape == "divided" and p:       # zeta0^-z rides c_w^p
            z0, z1, cw = -rng.randint(1, 3), 0, p
        elif shape == "divided" and q:     # zeta1^-z rides c_xw^q
            z0, z1, ccw = 0, -rng.randint(1, 3), q
        elif shape == "saturated" and p:   # the kernel's c_w^k saturates, or is one short
            z0, z1, cw = -rng.randint(1, 3), 0, max(p - defect - rng.randint(0, 1), 0)
        elif shape == "saturated" and q:
            z0, z1, ccw = 0, -rng.randint(1, 3), max(q - defect - rng.randint(0, 1), 0)
        mono = (z0, z1, cw, ccw)
        cases.append(("S", (mono, defect), cw + ccw + 2 * defect, p, q))
    return cases


def _unit(amb, kind, args):
    if kind == "tau":   # zero when k >= p + q
        pairs = pj.tau_pairs(amb, {args: 1})
        return pairs[0][1] if pairs else pj.ProjClass.zero(amb)
    return pj.s_kernel_pair(amb, *args, 2)[1]


@pytest.mark.parametrize("ring", [pj.Ambient, vf._PerturbedAmbient])
def test_shared_units_match_their_builds_on_the_clipped_space(ring, fresh_reductions):
    """A unit transfer or S-kernel built on (p, q) alone has the terms of
    the one built alone on (min(p, c + 1), min(q, c + 1)).  After another
    space of the class built it first, (p, q) reads it from the ring's
    table when that space has the same clipped key, and builds its own
    terms when the space lies across the clip, on the real and on the
    perturbed ring."""
    rng = random.Random(20251)
    shapes, read, refused = set(), 0, 0
    for kind, args, c, p, q in _unit_cases(rng, 300):
        clip = (min(p, c + 1), min(q, c + 1))
        try:
            want = _unit(_alone(ring(p, q)), kind, args).terms
        except ValueError:       # a negative zeta the kernel leaves unsaturated
            with pytest.raises(ValueError, match="outside the ring"):
                _unit(_alone(ring(*clip)), kind, args)
            refused += 1
            continue
        assert _unit(_alone(ring(*clip)), kind, args).terms == want, (kind, args, p, q)
        same, other = _spaces_near_keys(rng, p, q, c)
        # and spaces a few dimensions below the clip, where an unsound
        # clip would show
        other += [(a, b) for j in range(1, 4)
                  for a, b in ((c - j, q), (p, c - j)) if min(a, b) >= 0 and a + b
                  and (a, b) not in same + other]
        for i, (a, b) in enumerate(same[1:] + other):
            ring._ring_table = pj._RingTable()
            try:
                _unit(ring(a, b), kind, args)
            except ValueError:   # a divided monomial outside a neighbour's ring
                assert i >= len(same) - 1
            size = ring._ring_table.size
            got = _unit(ring(p, q), kind, args)
            assert got.terms == want, (kind, args, p, q, a, b)
            # read when the key is the same, built when it is not
            if i < len(same) - 1:
                assert ring._ring_table.size == size, (kind, args, p, q, a, b)
                read += 1
            else:
                assert ring._ring_table.size > size, (kind, args, p, q, a, b)
        shapes.add(kind if kind == "tau" else min(args[0][:2]) < 0)
    assert shapes == {"tau", True, False} and read > 300 and refused > 5


def test_units_built_on_the_perturbed_ring_first_leave_the_real_ring_alone(
        fresh_reductions):
    """Units, quadrics and line classes built first on perturbed spaces
    leave no entry in the real ring's table, and every real class built
    after them is the one a real space alone builds."""
    rng = random.Random(20252)
    cases = _unit_cases(rng, 200)
    lines = [bd.parse_bundles(t)[0] for t in ("O(3)", "xO(5)", "O(-2)", "xO(-3)")]
    spaces = sorted({(p, q) for _, _, _, p, q in cases})
    for build in (vf._PerturbedAmbient, pj.Ambient):
        for kind, args, _, p, q in cases:
            try:
                _unit(build(p, q), kind, args)
            except ValueError:
                continue
        for p, q in spaces:
            amb = build(p, q)
            pj.class_Q(amb)
            for spec in lines:
                bd.euler_line(amb, spec)
        if build is vf._PerturbedAmbient:
            assert vf._PerturbedAmbient._ring_table and not pj.Ambient._ring_table
    differ = 0
    for kind, args, _, p, q in cases:
        try:
            want = _unit(_alone(pj.Ambient(p, q)), kind, args).terms
        except ValueError:
            continue
        assert _unit(pj.Ambient(p, q), kind, args).terms == want, (kind, args, p, q)
        differ += _unit(vf._PerturbedAmbient(p, q), kind, args).terms != want
    for p, q in spaces:
        real, alone = pj.Ambient(p, q), _alone(pj.Ambient(p, q))
        assert pj.class_Q(real).terms == pj.class_Q(alone).terms
        for spec in lines:
            assert bd.euler_line(real, spec).terms == bd.euler_line(alone, spec).terms
    assert differ > 20


def test_stream_like_sums_do_not_depend_on_their_order(fresh_reductions):
    """Seeded euler and bezout sums over many spaces, run in forward and
    in reversed order, each on fresh spaces and an empty ring table, give
    identical product, closed-form and expansion terms: what one space
    leaves in the ring's table changes no later answer."""
    rng = random.Random(20253)
    sums = []
    for _ in range(400):
        p, q = rng.randint(0, 12), rng.randint(1, 12)
        tokens = [f"{rng.choice(('O', 'xO'))}({rng.choice((-3, -2, -1, 1, 2, 3, 4, 5))})"
                  for _ in range(rng.randint(1, min(p + q, 6)))]
        sums.append((p, q, ",".join(tokens)))
    runs = []
    for order in (sums, sums[::-1]):
        pj.Ambient._ring_table = pj._RingTable()
        spaces, got = {}, {}
        for p, q, tokens in order:
            amb = spaces.setdefault((p, q), pj.Ambient(p, q))
            bs = bd.BundleSum((p, q), bd.parse_bundles(tokens))
            inv = bd.bundle_invariants(bs)
            out = [bd.euler_product(amb, bs).terms]
            if inv.context_ok:
                out.append(bd.euler_closed_form(amb, inv).terms)
                out.append(sb.expansion_class(sb.bezout_expansion(inv), amb).terms)
            got[p, q, tokens] = out
        runs.append(got)
        kinds = {key[0] for key in _ring_keys(pj.Ambient._ring_table)
                 if type(key) is tuple and type(key[0]) is str}
        assert kinds == {"tau", "S"} and len(spaces) > 60
    assert runs[0] == runs[1]
    assert sum(len(out) == 3 for out in runs[0].values()) > 100


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


def test_sums_with_an_empty_operand_match_linear_combination():
    rng = random.Random(5075)
    amb = pj.ambient(3, 2)
    zero = pj.ProjClass.zero(amb)
    for x in _random_classes(amb, rng, 20) + [zero]:
        for got, pairs in ((x + zero, [(1, x), (1, zero)]),
                           (zero + x, [(1, zero), (1, x)]),
                           (x - zero, [(1, x), (-1, zero)]),
                           (zero - x, [(1, zero), (-1, x)])):
            want = pj.linear_combination(amb, pairs)
            assert got == want and got.terms == want.terms, (x, pairs)
    x = pj.gen_cw(amb)
    for other in (pj.ProjClass.zero(pj.ambient(2, 3)),
                  pj.ProjClass.zero(vf._PerturbedAmbient(3, 2))):
        for a, b in ((x, other), (other, x), (zero, other), (other, zero)):
            with pytest.raises(ValueError, match="ambient mismatch"):
                a + b
            with pytest.raises(ValueError, match="ambient mismatch"):
                a - b


@pytest.mark.parametrize("bad", [{("zz", 1): 1}, ((("g", 1), 1),), ((("xi", 0), 1),)])
def test_public_entry_points_refuse_unknown_point_symbols(bad):
    amb = pj.Ambient(2, 2)
    with pytest.raises(ValueError, match="not a point symbol"):
        pj.ProjClass.from_mono(amb, (0, 0, 1, 0), bad)
    with pytest.raises(ValueError, match="not a point symbol"):
        pj.gen_cw(amb).scale_point(bad)
    with pytest.raises(ValueError, match="not a point symbol"):
        pj.ProjClass.from_point(amb, bad)
    with pytest.raises(ValueError, match="not a point symbol"):
        pt.p_normalize(bad)


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
