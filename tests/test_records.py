"""The record classes behave as the dataclasses they replace.

Every record is frozen: a tuple of its fields (``grading.FrozenRecord``).
Each twin below is the dataclass definition of the record (fields,
defaults, ``frozen``/``order`` and the ``__post_init__`` validation),
built here with ``dataclasses.make_dataclass`` under the record's own
name, so that even the reprs must agree character for character.  The
tuple base must not show through: a record never equals or orders
against a plain tuple, and keys a dict apart from its field tuple.
"""

import copy
import dataclasses
import operator
import pickle
import random

import pytest

from c2bezout import bundles as bd
from c2bezout import grading as gr
from c2bezout import schubert as sb


def _pib_post_init(self):
    if (self.fixed_rank_0 - self.fixed_rank_1) % 2 != 0:
        raise gr.GradingError(f"fixed ranks must share parity: {self}")


def _spec_post_init(self):
    if self.family not in bd.FAMILIES:
        raise ValueError(f"unknown family {self.family!r}")
    odd = self.family in ("I", "III")
    if self.degree % 2 != (1 if odd else 0):
        raise ValueError(
            f"degree {self.degree} has the wrong parity for family {self.family}")


def _sum_post_init(self):
    object.__setattr__(self, "bundles", tuple(sorted(self.bundles)))


def _binate_post_init(self):
    if self.singular not in (None, "zeta0", "zeta1"):
        raise ValueError(f"bad singular tag {self.singular!r}")


def _fixed_post_init(self):
    if self.component not in (0, 1):
        raise sb.InfeasibleTerm("bad fixed-point component")


def _expansion_post_init(self):
    object.__setattr__(self, "terms", tuple(t for t in self.terms if t[0]))
    for num, term in self.terms:
        if num % 2 and not (isinstance(term, sb.BinatePair)
                            and term.defect == 0 and term.singular is None):
            raise ArithmeticError(
                f"half-integral coefficient {num}/2 on non-divisible term {term}")


def twin(cls, defaults=None, post_init=None, order=False):
    """The dataclass of cls's fields, with cls's own __str__ if it has one."""
    defaults = defaults or {}
    fields = [(f, object, dataclasses.field(default=defaults[f])) if f in defaults
              else (f, object) for f in cls._fields]
    namespace = {"__post_init__": post_init} if post_init else {}
    if "__str__" in vars(cls):
        namespace["__str__"] = vars(cls)["__str__"]
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace,
                                      frozen=True, order=order)


def _pib(r):
    f0 = r.randint(-2, 2)
    return (r.randint(-2, 2), f0, f0 + 2 * r.randint(-1, 1))


def _spec(r):
    fam = r.choice(bd.FAMILIES)
    odd = fam in ("I", "III")
    return (fam, 2 * r.randint(-2, 2) + odd)


def _sum(r):
    specs = [bd.LineBundleSpec(*_spec(r)) for _ in range(r.randint(0, 3))]
    return ((r.randint(1, 2), r.randint(1, 2)), specs)


def _invariants(r):
    inv = bd.bundle_invariants(bd.BundleSum(*_sum(r)))
    return tuple(getattr(inv, f) for f in bd.BundleInvariants._fields)


def _binate(r):
    return (r.randint(0, 2), r.randint(-1, 1), r.randint(-1, 1),
            r.choice((None, "zeta0", "zeta1")))


def _expansion(r):
    inv = bd.BundleInvariants(*_invariants(r))
    terms = [(2 * r.randint(-1, 1), sb.InvariantChain(1, 1, 0, r.randint(0, 1))),
             (r.randint(-1, 1), sb.BinatePair(2, 1, 1))]
    return ((inv.p, inv.q), inv, terms, r.choice(("bezout", "dim0")))


# record class -> (its dataclass twin, a seeded draw of constructor args)
CASES = {
    gr.ROC2Degree: (twin(gr.ROC2Degree),
                    lambda r: (r.randint(-2, 2), r.randint(-2, 2))),
    gr.PiBDegree: (twin(gr.PiBDegree, post_init=_pib_post_init), _pib),
    bd.LineBundleSpec: (twin(bd.LineBundleSpec, post_init=_spec_post_init,
                             order=True), _spec),
    bd.BundleSum: (twin(bd.BundleSum, {"bundles": ()}, _sum_post_init), _sum),
    bd.BundleInvariants: (twin(bd.BundleInvariants), _invariants),
    sb.FreeOrbit: (twin(sb.FreeOrbit),
                   lambda r: (r.randint(0, 2), gr.PiBDegree(*_pib(r)))),
    sb.InvariantChain: (twin(sb.InvariantChain),
                        lambda r: tuple(r.randint(0, 1) for _ in range(4))),
    sb.BinatePair: (twin(sb.BinatePair, {"singular": None}, _binate_post_init),
                    _binate),
    sb.FixedPoint: (twin(sb.FixedPoint, post_init=_fixed_post_init),
                    lambda r: (r.randint(0, 1), r.randint(-1, 1),
                               gr.PiBDegree(*_pib(r)))),
    sb.BezoutExpansion: (twin(sb.BezoutExpansion, {"label": "bezout"},
                              _expansion_post_init), _expansion),
}
IDS = [cls.__name__ for cls in CASES]


def _draws(cls, n=40, seed=7):
    twin_cls, draw = CASES[cls]
    r = random.Random(f"{seed}:{cls.__name__}")
    for _ in range(n):
        args = draw(r)
        yield cls(*args), twin_cls(*args)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_repr_eq_and_hash_match_the_twin(cls):
    pairs = list(_draws(cls))
    for ours, theirs in pairs:
        assert repr(ours) == repr(theirs)
        assert str(ours) == str(theirs)
        assert hash(ours) == hash(theirs)
        fields = [getattr(ours, f) for f in cls._fields]
        assert ours == cls(*fields) and theirs == type(theirs)(*fields)
        assert ours != theirs and theirs != ours      # other class: unequal
        assert ours != tuple(fields)
    for (a, ta), (b, tb) in zip(pairs, pairs[1:] + pairs[:1]):
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)


def test_bundle_specs_order_as_the_twin():
    pairs = list(_draws(bd.LineBundleSpec, n=60))
    for (a, ta), (b, tb) in zip(pairs, pairs[1:]):
        assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)
    ours = [a for a, _ in pairs]
    theirs = [t for _, t in pairs]
    assert list(map(repr, sorted(ours))) == list(map(repr, sorted(theirs)))
    with pytest.raises(TypeError):
        ours[0] < (ours[0].family, ours[0].degree)
    with pytest.raises(TypeError):
        theirs[0] < (theirs[0].family, theirs[0].degree)


@pytest.mark.parametrize("cls", [c for c in CASES if c is not bd.LineBundleSpec],
                         ids=[c.__name__ for c in CASES if c is not bd.LineBundleSpec])
def test_unordered_records_refuse_order_as_the_twin(cls):
    (a, ta), (b, tb) = _draws(cls, n=2)
    for x, y in ((a, b), (ta, tb)):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(x, y)


def test_bundle_sum_sorts_its_bundles_as_the_twin():
    twin_cls = CASES[bd.BundleSum][0]
    for ours, theirs in _draws(bd.BundleSum):
        assert ours.bundles == theirs.bundles
        assert type(ours.bundles) is tuple
    specs = [bd.LineBundleSpec("IV", 2), bd.LineBundleSpec("I", 3),
             bd.LineBundleSpec("I", -1)]
    assert bd.BundleSum((2, 1), specs) == bd.BundleSum((2, 1), specs[::-1])
    assert repr(bd.BundleSum((2, 1), iter(specs))) == repr(twin_cls((2, 1), specs))


def test_keywords_and_defaults_match_the_twin():
    pib = gr.PiBDegree(total_rank=2, fixed_rank_0=2, fixed_rank_1=0)
    assert repr(pib) == repr(CASES[gr.PiBDegree][0](
        total_rank=2, fixed_rank_0=2, fixed_rank_1=0))
    assert sb.BinatePair(2, 1, 1).singular is None
    assert repr(sb.BinatePair(i=2, p_i=1, q_i=0, singular="zeta1")) == \
        repr(CASES[sb.BinatePair][0](i=2, p_i=1, q_i=0, singular="zeta1"))
    assert bd.BundleSum((1, 1)).bundles == ()
    assert repr(bd.BundleSum(ambient=(1, 1))) == repr(CASES[bd.BundleSum][0](ambient=(1, 1)))
    args = _expansion(random.Random(1))
    exp = sb.BezoutExpansion(*args[:3])
    assert exp.label == "bezout"
    assert repr(exp) == repr(CASES[sb.BezoutExpansion][0](*args[:3]))
    inv_args = dict(zip(bd.BundleInvariants._fields, _invariants(random.Random(2))))
    assert repr(bd.BundleInvariants(**inv_args)) == \
        repr(CASES[bd.BundleInvariants][0](**inv_args))


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_frozen_records_refuse_assignment(cls):
    ours, theirs = next(_draws(cls, n=1))
    field = cls._fields[0]
    for obj in (ours, theirs):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.unknown = 0
    assert repr(ours) == repr(theirs)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_records_copy(cls):
    for ours, _ in _draws(cls, n=5):
        for clone in (copy.copy(ours), copy.deepcopy(ours)):
            assert type(clone) is cls
            assert clone == ours and repr(clone) == repr(ours)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_records_pickle_at_every_protocol(cls):
    for ours, _ in _draws(cls, n=5):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(ours, protocol))
            assert type(clone) is cls, protocol
            assert clone == ours and repr(clone) == repr(ours), protocol
            assert hash(clone) == hash(ours), protocol


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_records_never_equal_their_field_tuples(cls):
    for ours, _ in _draws(cls, n=10):
        fields = tuple(getattr(ours, f) for f in cls._fields)
        assert tuple(ours) == fields              # the tuple base holds the fields
        assert hash(ours) == hash(fields)
        assert fields != ours and ours != fields  # in both directions
        assert not (fields == ours) and not (ours == fields)
        keyed = {ours: "record", fields: "fields"}
        assert len(keyed) == 2
        assert keyed[ours] == "record" and keyed[fields] == "fields"
        assert keyed[cls(*fields)] == "record"


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_records_never_order_against_their_field_tuples(cls):
    ours, _ = next(_draws(cls, n=1))
    fields = tuple(ours)
    for x, y in ((ours, fields), (fields, ours)):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(x, y)


def test_records_refuse_wrong_fields():
    target = gr.PiBDegree(2, 2, 0)
    with pytest.raises(TypeError):
        sb.FreeOrbit(1)                              # a field missing
    with pytest.raises(TypeError):
        sb.FreeOrbit(1, target, 2)                   # one too many
    with pytest.raises(TypeError):
        sb.FreeOrbit(1, affine_dim=1)                # a field given twice
    with pytest.raises(TypeError):
        sb.FreeOrbit(1, target=target, extra=0)      # an unknown keyword
    assert sb.FreeOrbit(1, target=target) == sb.FreeOrbit(target=target, affine_dim=1)


def _error(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("cls, args", [
    (gr.PiBDegree, (1, 1, 0)),          # fixed ranks of different parity
    (bd.LineBundleSpec, ("V", 1)),      # unknown family
    (bd.LineBundleSpec, ("I", 2)),      # odd family, even degree
    (bd.LineBundleSpec, ("IV", 3)),     # even family, odd degree
    (sb.BinatePair, (2, 1, 1, "zeta2")),
    (sb.FixedPoint, (2, 0, gr.PiBDegree(2, 2, 0))),
    (sb.BezoutExpansion, ((1, 1), None, [(1, sb.InvariantChain(1, 1, 0, 0))])),
    (sb.BezoutExpansion, ((1, 1), None, [(3, sb.BinatePair(2, 1, 0))])),
], ids=["parity", "family", "odd_family", "even_family", "singular",
        "fixed_component", "half_chain", "half_defect1"])
def test_validation_errors_match_the_twin(cls, args):
    ours = _error(cls, *args)
    assert ours == _error(CASES[cls][0], *args)
    assert ours[0] is {gr.PiBDegree: gr.GradingError, bd.LineBundleSpec: ValueError,
                       sb.BinatePair: ValueError, sb.FixedPoint: sb.InfeasibleTerm,
                       sb.BezoutExpansion: ArithmeticError}[cls]


def test_zero_terms_leave_no_trace_in_an_expansion():
    inv = bd.BundleInvariants(*_invariants(random.Random(3)))
    chain = sb.InvariantChain(1, 1, 0, 0)
    free = sb.FreeOrbit(1, gr.PiBDegree(2, 2, 0))
    pq = (inv.p, inv.q)
    with_zero = sb.BezoutExpansion(pq, inv, [(0, free), (2, chain), (0, chain)])
    without = sb.BezoutExpansion(pq, inv, [(2, chain)])
    assert with_zero == without and hash(with_zero) == hash(without)
    assert with_zero.terms == ((2, chain),)


def test_geometric_term_is_the_tuple_of_term_kinds():
    assert sb.GeometricTerm == (sb.FreeOrbit, sb.InvariantChain, sb.BinatePair,
                                sb.FixedPoint)
    assert isinstance(sb.BinatePair(2, 1, 1), sb.GeometricTerm)
    assert not isinstance(gr.PiBDegree(0, 0, 0), sb.GeometricTerm)
