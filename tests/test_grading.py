import pytest
from hypothesis import given, strategies as st

from c2bezout.grading import (CHI_OMEGA, DEG_ZETA0, DEG_ZETA1, OMEGA, OMEGA0,
                              OMEGA1, SIGMA, GradingError, PiBDegree,
                              ROC2Degree)


def test_componentwise_addition():
    assert OMEGA + CHI_OMEGA == PiBDegree(4, 2, 2)
    assert OMEGA + (-1) * OMEGA == PiBDegree(0, 0, 0)


def test_zeta_degrees_multiply_to_xi():
    # grad zeta0 = chi omega - 2, grad zeta1 = omega - 2, zeta0 zeta1 = xi
    assert DEG_ZETA0 == PiBDegree(0, -2, 0)
    assert DEG_ZETA1 == PiBDegree(0, 0, -2)
    total = DEG_ZETA0 + DEG_ZETA1
    assert total == PiBDegree(0, -2, -2)
    assert total == (2 * SIGMA - 2 * PiBDegree(1, 1, 1))


def test_named_degrees():
    assert OMEGA == PiBDegree(2, 2, 0)
    assert SIGMA == PiBDegree(1, 0, 0)
    assert OMEGA0 + OMEGA1 == 2 * SIGMA - 2 * PiBDegree(1, 1, 1)


def test_is_roc2_and_conversion():
    weighted = PiBDegree(2, 2, 2)  # degree of the quadric class
    assert weighted.is_roc2()
    assert weighted.to_roc2() == ROC2Degree(2, 0)
    assert not OMEGA.is_roc2()
    xi = PiBDegree(0, -2, -2)
    assert xi.is_roc2()
    assert xi.to_roc2() == ROC2Degree(-2, 2)
    with pytest.raises(GradingError):
        OMEGA.to_roc2()


def test_parity_invariant_enforced():
    with pytest.raises(GradingError):
        PiBDegree(1, 1, 0)


def test_json_form():
    assert list(PiBDegree(3, 1, -1)) == [3, 1, -1]


pib = st.builds(
    lambda t, f0, d: PiBDegree(t, f0, f0 + 2 * d),
    st.integers(-50, 50), st.integers(-50, 50), st.integers(-25, 25))


@given(a=pib, b=pib, c=pib)
def test_group_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + PiBDegree(0, 0, 0) == a
    assert a - a == PiBDegree(0, 0, 0)


@given(a=pib, b=pib)
def test_parity_preserved(a, b):
    s = a + b
    assert (s.fixed_rank_0 - s.fixed_rank_1) % 2 == 0
    n = -a
    assert (n.fixed_rank_0 - n.fixed_rank_1) % 2 == 0


@given(a=st.integers(-30, 30), b=st.integers(-30, 30))
def test_roc2_roundtrip(a, b):
    d = ROC2Degree(a, b)
    assert d.to_pib().to_roc2() == d
