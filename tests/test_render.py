"""Text, LaTeX and JSON forms of point elements, as `render` prints them."""

import pytest

from c2bezout import point as pt
from c2bezout import render


def sym(s, c=1):
    return pt.p_sym(s, c)


# (element, its text, its LaTeX)
FORMS = [
    (pt.p_kappa(), "kappa", r"\kappa"),
    (sym(("eik", 2)), "e^-2 kappa", r"e^{-2}\kappa"),
    (sym(("tin", 2)), "tau(iota^-4)", r"\tau(\iota^{-4})"),
    ((), "0", "0"),
    (sym(("xi", 3)), "xi^3", r"\xi^{3}"),
    (sym(("exi", 1, 1)), "e xi", r"e\xi"),
    (sym(("exi", 2, 3)), "e^2 xi^3", r"e^{2}\xi^{3}"),
    (pt.p_int(1), "1", "1"),
    (pt.p_add(pt.p_int(-3), sym(("eik", 1), 2)), "-3 + 2 e^-1 kappa",
     r"-3 + 2e^{-1}\kappa"),
    (pt.p_add(pt.p_scale(pt.p_kappa(), 3), sym(("xi", 1), -2)), "3 kappa - 2 xi",
     r"3\kappa - 2\xi"),
]


def test_text_rendering():
    for element, text, latex in FORMS:
        assert render.point_text(element) == text
        assert render.point_text(element, latex=True) == latex


def test_json_rendering():
    data = render.point_json(pt.p_add(sym(pt.S_G), sym(("e", 2), -3)))
    assert data == [{"symbol": "e", "params": [2], "coeff": -3},
                    {"symbol": "g", "params": [], "coeff": 1}]


def test_one_joiner_places_every_sign():
    assert render._join([]) == "0"
    assert render._join([(False, "a")]) == "a"
    assert render._join([(True, "a"), (False, "b"), (True, "c")]) == "-a + b - c"
    assert render._join([(False, "a"), (True, "b")]) == "a - b"


def test_numerator_prints_its_magnitude():
    assert render.numerator_text(2) == ""
    assert render.numerator_text(-2) == "1 "
    assert render.numerator_text(6) == render.numerator_text(-6) == "3 "
    with pytest.raises(ArithmeticError):
        render.numerator_text(3)
