import dataclasses
import json

import pytest

from c2bezout import bundles as bd
from c2bezout import laurent
from c2bezout import projective as pj
from c2bezout import render
from c2bezout import schubert as sb
from c2bezout import verify as vf


QUICK = ("point_table", "point_axioms", "grading", "proj_relations")


def test_quick_groups_pass():
    rep = vf.run_verify(vf.SweepConfig(), groups=QUICK)
    assert rep.passed
    assert rep.summary()["fail"] == 0


def test_report_is_deterministic():
    cfg = vf.SweepConfig(p_max=2, q_max=2, pq_sum_max=3, seed=7)
    a = vf.run_verify(cfg, groups=("random_homs", "proj_relations"))
    b = vf.run_verify(cfg, groups=("random_homs", "proj_relations"))
    assert a.records == b.records


def test_seed_changes_random_cases_not_outcome():
    a = vf.run_verify(vf.SweepConfig(p_max=1, q_max=1, seed=1),
                      groups=("random_homs",))
    b = vf.run_verify(vf.SweepConfig(p_max=1, q_max=1, seed=2),
                      groups=("random_homs",))
    assert a.passed and b.passed


def test_report_json_roundtrip():
    cfg = vf.SweepConfig(p_max=2, q_max=2, pq_sum_max=3)
    rep = vf.run_verify(cfg, groups=("proj_relations", "grading"))
    data = json.loads(json.dumps(rep.to_json()))
    back = vf.VerifyReport.from_json(data)
    assert back.records == rep.records
    assert back.summary()["pass"] == rep.summary()["pass"]


def test_record_json_is_the_dataclass_dict():
    cfg = vf.SweepConfig(p_max=2, q_max=2, pq_sum_max=3)
    records = vf.run_verify(cfg, groups=("proj_relations", "euler_grid")).records
    records = records + [vf.IdentityRecord(
        "x", {"a": (1, 0, 2, 0), "degrees": [3, 5]}, "fail", 1, "why", "1", "2")]
    for r in records:
        want = dataclasses.asdict(r)
        assert list(r.to_json().items()) == list(want.items())
        assert json.dumps(r.to_json()) == json.dumps(want)


def test_failures_come_first():
    rep = vf.VerifyReport(records=[
        vf.IdentityRecord("a", {}, "pass"),
        vf.IdentityRecord("b", {}, "fail"),
        vf.IdentityRecord("c", {}, "skipped"),
    ])
    assert [r.status for r in rep.ordered_records()] == \
        ["fail", "skipped", "pass"]
    assert not rep.passed


def test_context_violations_recorded_as_skips():
    cfg = vf.SweepConfig(p_max=2, q_max=2, pq_sum_max=3)
    rep = vf.run_verify(cfg, groups=("euler_grid",))
    assert rep.passed
    assert any(r.status == "skipped" and r.name == "context_violations"
               for r in rep.records)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        vf.SweepConfig(p_max=0)
    with pytest.raises(ValueError):
        vf.SweepConfig(odd_degrees=(2,))
    with pytest.raises(ValueError):
        vf.SweepConfig(even_degrees=(3,))
    cfg = vf.SweepConfig.from_json({"p_max": 3, "odd_degrees": [1, 3]})
    assert cfg.p_max == 3 and cfg.odd_degrees == (1, 3)
    assert cfg.degrees("I") == (1, 3)
    neg = vf.SweepConfig(include_negative_degrees=True)
    assert -2 in neg.degrees("II")
    assert vf.SweepConfig(random_pairs=0).random_pairs == 0


def test_sweep_config_json_round_trip():
    cfg = vf.SweepConfig(p_max=3, q_max=2, pq_sum_max=4, odd_degrees=(1, 7),
                         even_degrees=(6,), include_negative_degrees=True,
                         seed=11, random_pairs=5)
    data = json.loads(json.dumps(cfg.to_json()))
    assert data["odd_degrees"] == [1, 7] and data["seed"] == 11
    assert vf.SweepConfig.from_json(data) == cfg


@pytest.mark.parametrize("field, value, want", [
    ("random_pairs", -5, "random_pairs must be >= 0"),
    ("p_max", 2.5, "p_max must be an integer"),
    ("max_bundles_total", True, "max_bundles_total must be an integer"),
    ("seed", "7", "seed must be an integer"),
    ("odd_degrees", (1.5,), "odd_degrees must list integers"),
    ("even_degrees", (2, False), "even_degrees must list integers"),
    ("include_negative_degrees", "no", "include_negative_degrees must be true or false"),
    ("include_negative_degrees", 1, "include_negative_degrees must be true or false"),
])
def test_sweep_config_refuses_wrong_types(field, value, want):
    with pytest.raises(ValueError, match=want):
        vf.SweepConfig(**{field: value})


def test_soundness_group():
    rep = vf.run_verify(vf.SweepConfig(), groups=("soundness",))
    assert rep.passed
    assert any(r.name == "harness_soundness" for r in rep.records)


def test_every_mini_identity_fails_on_the_perturbed_ring():
    """The soundness check rests on each of its identities, not on one:
    each holds on the true ring and fails somewhere on the perturbed one."""
    good = vf._mini_identities(pj.Ambient(2, 2)).records
    bad = vf._mini_identities(vf._PerturbedAmbient(2, 2)).records
    names = {r.name for r in good}
    assert names == {"mini_q_conversion", "mini_tensor"}
    assert all(r.status == "pass" for r in good)
    assert {r.name for r in bad if r.status == "fail"} == names


def test_negative_degree_grid():
    cfg = vf.SweepConfig(pq_sum_max=4, include_negative_degrees=True)
    rep = vf.run_verify(cfg, groups=("euler_grid",))
    assert rep.passed
    low = [r for r in rep.records if r.name == "closed_form_low"]
    assert sum(r.cases for r in low) > 100


def test_report_text_lists_failure_forms():
    rep = vf.VerifyReport(records=[
        vf.IdentityRecord("broken", {"p": 1}, "fail", 1,
                          "normal forms differ", "x", "y")])
    text = vf.report_text(rep)
    assert "FAIL broken" in text
    assert "lhs = x" in text and "rhs = y" in text


def _doubled_l_mul(x, y, c_trunc=None):
    return {m: 2 * c for m, c in laurent.l_mul(x, y, c_trunc).items()}


def test_hom_checks_record_their_first_failure(monkeypatch):
    monkeypatch.setattr(vf, "l_mul", _doubled_l_mul)
    cfg = vf.SweepConfig(p_max=1, q_max=1, random_pairs=5)
    rep = vf.run_verify(cfg, groups=("random_homs", "frobenius_module"))
    by_space = {}
    for r in rep.records:
        by_space.setdefault((r.name, r.params["p"], r.params["q"]), []).append(r)
    spaces = [(0, 1), (1, 0), (1, 1)]
    for p, q in spaces:
        homs = by_space[("rho_ring_hom", p, q)]
        assert [r.status for r in homs] == ["fail"]
        assert homs[0].detail == "rho(ab) != rho(a)rho(b)"
        assert homs[0].lhs and homs[0].rhs
        assert ("fixed_ring_hom", p, q) not in by_space
        frob = by_space[("frobenius_module", p, q)]
        assert [r.status for r in frob] == ["fail"]
        # the first generator, zeta0, and the first (a, b, k) already differ
        assert frob[0].params == {"p": p, "q": q, "a": -4, "b": -2, "k": 0}
    assert len(rep.records) == 2 * len(spaces)


def test_fixed_hom_check_records_its_failure(monkeypatch):
    # a constant nonzero fixed image is never multiplicative
    monkeypatch.setattr(pj.ProjClass, "fixed", lambda cls: ({0: 7}, {}))
    cfg = vf.SweepConfig(p_max=1, q_max=1, random_pairs=5)
    rep = vf.run_verify(cfg, groups=("random_homs",))
    assert [(r.name, r.status, r.params["p"], r.params["q"]) for r in rep.records] == [
        ("fixed_ring_hom", "fail", 0, 1), ("fixed_ring_hom", "fail", 1, 0),
        ("fixed_ring_hom", "fail", 1, 1)]
    assert all(r.detail == "(ab)^C2 != a^C2 b^C2" for r in rep.records)


def test_freeness_records_the_first_escape(monkeypatch):
    def escape(cls):
        raise pj.KernelError(f"escaped {cls.terms[0][0]}")

    monkeypatch.setattr(pj.ProjClass, "reduce_to_basis", escape)
    cfg = vf.SweepConfig(pq_sum_max=1)
    rep = vf.run_verify(cfg, groups=("freeness",))
    fails = [r for r in rep.records if r.name == "freeness_products"]
    assert [(r.status, r.params) for r in fails] == [
        ("fail", {"p": 0, "q": 1, "a": (3, 0, 0, 0), "b": (3, 0, 0, 0)}),
        ("fail", {"p": 1, "q": 0, "a": (0, -3, 0, 0), "b": (0, -3, 0, 0)})]
    assert fails[0].detail == "escaped (6, 0, 0, 0)"


def _freeness_pairs(amb):
    """The product pairs check_freeness enumerates on amb, in its order."""
    n = amb.p + amb.q
    monos = [m for c in range(-(n + 2), n + 3) for m in amb.basis(c)]
    return [(a, b) for i, a in enumerate(monos) for b in monos[i:]]


def test_freeness_reduces_each_product_once_and_records_the_first_escape(monkeypatch):
    cfg = vf.SweepConfig(pq_sum_max=3)
    spaces = [(p, s - p) for s in range(1, 4) for p in range(s + 1)]
    target = pj.ambient(1, 2)
    target_pairs = _freeness_pairs(target)
    products = [pj.mono_mul(*pair) for pair in target_pairs]
    earlier = {pj.mono_mul(*pair) for p, q in spaces[:spaces.index((1, 2))]
               for pair in _freeness_pairs(pj.ambient(p, q))}
    normal = {m: target.reduce_mono(m) for m in products}
    # a product M of several pairs, not of the first one, that is also a
    # product on an earlier space, and whose normal form no other
    # product shares, so the planted escape below hits M alone
    bad = next(m for m in products
               if m != products[0] and products.count(m) > 1 and m in earlier
               and list(normal.values()).count(normal[m]) == 1)
    first = products.index(bad)
    reduce_to_basis = pj.ProjClass.reduce_to_basis
    calls = {}

    def planted(cls):
        key = (cls.amb.p, cls.amb.q)
        calls[key] = calls.get(key, 0) + 1
        if cls.amb is target and cls.terms == normal[bad]:
            raise pj.KernelError("planted escape")
        return reduce_to_basis(cls)

    monkeypatch.setattr(pj.ProjClass, "reduce_to_basis", planted)
    rep = vf.run_verify(cfg, groups=("freeness",))
    ma, mb = target_pairs[first]
    assert [(r.name, r.params, r.detail) for r in rep.failures] == [
        ("freeness_products", {"p": 1, "q": 2, "a": ma, "b": mb}, "planted escape")]
    passes = {(r.params["p"], r.params["q"]): r.cases for r in rep.records
              if r.name == "freeness_products" and r.status == "pass"}
    assert sorted(passes) == sorted(set(spaces) - {(1, 2)})
    for p, q in passes:
        pairs = _freeness_pairs(pj.ambient(p, q))
        assert passes[p, q] == len(pairs)
        # every pair is counted, each distinct product reduced once
        assert calls[p, q] == len({pj.mono_mul(*pair) for pair in pairs})
    assert calls[1, 2] == len(set(products[:first + 1]))


@pytest.mark.parametrize("fault", ["wrong_class", "raises"])
def test_type_block_failure_stops_at_the_first_multiset_with_the_degree(
        monkeypatch, fault):
    """Line classes are computed lazily and products share prefixes, so a
    bad line class of III(-3) on P(C^2 + C^2 sigma) shows at the multiset
    (-3,) of that space, as it would with every product built afresh."""
    euler_line = bd.euler_line
    target = pj.ambient(2, 2)

    def faulty(amb, spec):
        out = euler_line(amb, spec)
        if amb is target and (spec.family, spec.degree) == ("III", -3):
            if fault == "raises":
                raise pj.KernelError("planted line fault")
            out = out + pj.ProjClass.unit(amb)
        return out

    monkeypatch.setattr(bd, "euler_line", faulty)
    rep = vf.run_verify(vf.SweepConfig(), groups=("type_blocks",))
    *before, last = rep.records
    blocks = [r.params["degrees"] for r in before
              if (r.params["p"], r.params["q"], r.params["family"]) == (2, 2, "III")]
    assert blocks == [[], [-7], [-5]]
    if fault == "raises":
        assert (last.name, last.status) == ("type_blocks_escape", "fail")
        assert last.detail == "KernelError: planted line fault"
    else:
        assert (last.name, last.status) == ("type_block_vs_product", "fail")
        assert last.params == {"p": 2, "q": 2, "family": "III", "degrees": [-3]}
    assert rep.failures == [last]
    # the spaces before the fault are checked in full, nothing after it
    per_space = {}
    for r in before:
        per_space.setdefault((r.params["p"], r.params["q"]), []).append(r)
    assert list(per_space) == [(1, 1), (2, 2)]
    assert len(per_space[1, 1]) == 4 * 220 + 220   # IV also in binomial form
    assert all(r.status == "pass" and r.name.startswith("type_block")
               for r in before)


# ---------------------------------------------------------------------------
# the Euler grid

def _brute_force_grid(cfg, amb):
    """Every bundle multiset of the grid on amb in enumeration order,
    judged by their invariants' context_violations: (admitted sums,
    number skipped)."""
    cap = min(cfg.max_bundles_total, amb.p + amb.q - 1)
    fams = {f: vf._family_multisets(cfg, f) for f in bd.FAMILIES}
    admitted, skipped = [], 0
    for tI in fams["I"]:
        for tII in fams["II"]:
            if len(tI) + len(tII) > cap:
                continue
            for tIII in fams["III"]:
                for tIV in fams["IV"]:
                    n = len(tI) + len(tII) + len(tIII) + len(tIV)
                    if n == 0 or n > cap:
                        continue
                    specs = [bd.LineBundleSpec(f, d) for f, t in
                             (("I", tI), ("II", tII), ("III", tIII), ("IV", tIV))
                             for d in t]
                    bs = bd.BundleSum((amb.p, amb.q), specs)
                    if bd.bundle_invariants(bs).context_violations:
                        skipped += 1
                    else:
                        admitted.append(bs)
    return admitted, skipped


@pytest.mark.parametrize("cfg", [
    vf.SweepConfig(),
    vf.SweepConfig(pq_sum_max=4, include_negative_degrees=True),
], ids=["default", "negative_degrees"])
def test_grid_admits_exactly_the_sums_inside_the_hypotheses(cfg):
    total = 0
    for s in range(2, cfg.pq_sum_max + 1):
        for p in range(s + 1):
            amb = pj.ambient(p, s - p)
            sums, skipped = vf.bundle_grid(cfg, amb)
            want, want_skipped = _brute_force_grid(cfg, amb)
            assert [vf._grid_sum(amb, lh, rh) for lh, rh in sums] == want, amb
            assert [vf._grid_invariants(amb, lh, rh) for lh, rh in sums] == \
                [bd.bundle_invariants(bs) for bs in want], amb
            assert skipped == want_skipped, amb
            total += len(want) + want_skipped
            for (left, right), bs in list(zip(sums, want))[::97]:
                assert left.cls * right.cls == bd.euler_product(amb, bs), bs.token()
    if not cfg.include_negative_degrees:
        assert total == 73505


def test_grid_failure_records_the_sum(monkeypatch):
    closed_form = bd.euler_closed_form

    def off_by_e2(amb, inv):
        e2 = pj.ProjClass.from_point(amb, {("e", 2): 1})
        return closed_form(amb, inv) + e2

    monkeypatch.setattr(bd, "euler_closed_form", off_by_e2)
    cfg = vf.SweepConfig(pq_sum_max=3)
    rep = vf.run_verify(cfg, groups=("euler_grid",))
    fails = rep.failures
    assert len(fails) == 1
    rec = fails[0]
    assert rec.name in ("closed_form_low", "closed_form_high")
    amb = pj.ambient(0, 2)
    first = vf._grid_sum(amb, *vf.bundle_grid(cfg, amb)[0][0])
    assert rec.params == {"p": 0, "q": 2, "bundles": first.token()}
    assert rec.detail == "normal forms differ"
    assert rec.lhs != rec.rhs
    assert not any(r.status == "pass" and r.name == rec.name for r in rep.records)


def test_grid_line_fault_is_one_escape_record(monkeypatch):
    """A line class that raises on one space stops the grid there with
    one euler_grid_escape record, though half classes are built lazily."""
    euler_line = bd.euler_line
    target = pj.ambient(2, 1)

    def faulty(amb, spec):
        if amb is target and (spec.family, spec.degree) == ("III", 3):
            raise pj.KernelError("planted line fault")
        return euler_line(amb, spec)

    monkeypatch.setattr(bd, "euler_line", faulty)
    rep = vf.run_verify(vf.SweepConfig(pq_sum_max=4), groups=("euler_grid",))
    escapes = [r for r in rep.records if r.name == "euler_grid_escape"]
    assert len(escapes) == 1
    assert rep.failures == escapes == [rep.records[-1]]
    assert escapes[0].detail == "KernelError: planted line fault"
    # the spaces before (2, 1) are checked, nothing after it
    spaces = [(r.params["p"], r.params["q"]) for r in rep.records[:-1]]
    assert spaces[-1] == (2, 1) and (3, 0) not in spaces


def test_broken_chi_q_decomposition_is_a_fail_record(monkeypatch):
    """A decomposition of the twisted quadric that is off on one space
    fails prop_chi_q there with both normal forms; the group goes on."""
    class_of = sb.class_of
    target = pj.ambient(1, 2)
    chain = sb.InvariantChain(0, 2, 1, 0)   # the first chain on (1, 2)

    def broken(term, amb):
        cls = class_of(term, amb)
        if amb is target and term == chain:
            return cls + pj.ProjClass.unit(amb)
        return cls

    monkeypatch.setattr(sb, "class_of", broken)
    rep = vf.run_verify(vf.SweepConfig(p_max=2, q_max=2), groups=("dictionary",))
    assert not any(r.name == "dictionary_escape" for r in rep.records)
    chi_q = {(r.params["p"], r.params["q"]): r
             for r in rep.records if r.name == "prop_chi_q"}
    assert list(chi_q) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    bad = chi_q.pop((1, 2))
    assert (bad.status, bad.detail) == ("fail", "normal forms differ")
    assert bad.lhs == render.proj_text(sb.chiQ_class(target)[1])
    assert bad.rhs == render.proj_text(pj.class_chi_Q(target))
    assert bad.lhs != bad.rhs
    assert all(r.status == "pass" for r in chi_q.values())
    # the only other failure is the chain's own record
    others = [r for r in rep.failures if r is not bad]
    assert [(r.name, r.params) for r in others] == [
        ("cor_cs_times_zetas", {"p": 1, "q": 2, "pp": 0, "qq": 2, "i": 1, "j": 0})]


# ---------------------------------------------------------------------------
# the notation check

def _swap_codim_binate_pair(monkeypatch):
    def swapped(i, p_i, q_i, amb, notation, latex):
        if notation == "codim":
            return f"S~_{amb.p + amb.q - i}({amb.q - q_i},{amb.p - p_i})"
        return binate_text(i, p_i, q_i, amb, notation, latex)

    binate_text = render._binate_one_text
    monkeypatch.setattr(render, "_binate_one_text", swapped)


def _drop_singular_parts(monkeypatch):
    def dropped(term, amb, notation="dim", latex=False):
        if isinstance(term, sb.BinatePair) and term.singular:
            term = sb.BinatePair(term.i, term.p_i, term.q_i)
        return term_text(term, amb, notation, latex)

    term_text = render.term_text
    monkeypatch.setattr(render, "term_text", dropped)


def _shift_even_coefficients(monkeypatch):
    def shifted(num):
        if num % 2 == 0 and num != 2:
            return f"{abs(num) // 2 + 1} "
        return numerator_text(num)

    numerator_text = render.numerator_text
    monkeypatch.setattr(render, "numerator_text", shifted)


def _mutate_join(monkeypatch, mutated):
    join = render._join
    monkeypatch.setattr(render, "_join", lambda chunks: mutated(join, list(chunks)))


def _drop_later_minus(monkeypatch):
    _mutate_join(monkeypatch, lambda join, chunks: join(
        [(negative and not k, body) for k, (negative, body) in enumerate(chunks)]))


def _unjoined_minus(monkeypatch):
    # "a + -b" for "a - b"
    _mutate_join(monkeypatch, lambda join, chunks: join(
        [(False, f"-{body}") if negative and k else (negative, body)
         for k, (negative, body) in enumerate(chunks)]))


def _leading_plus(monkeypatch):
    def plus(join, chunks):
        line = join(chunks)
        return f"+{line}" if chunks and not chunks[0][0] else line

    _mutate_join(monkeypatch, plus)


def _printed_grid(cfg):
    """{space: [(bundles, dim text, codim text) of each grid sum]}, the
    spaces and sums in sweep order."""
    out = {}
    for s in range(2, cfg.pq_sum_max + 1):
        for p in range(s + 1):
            amb = pj.ambient(p, s - p)
            out[p, s - p] = [
                (vf._grid_sum(amb, lh, rh).token(),
                 render.expansion_text(exp, amb, "dim"),
                 render.expansion_text(exp, amb, "codim"))
                for lh, rh in vf.bundle_grid(cfg, amb)[0]
                for exp in [sb.bezout_expansion(vf._grid_invariants(amb, lh, rh))]]
    return out


def _verdicts(report):
    return {(r.name, repr(r.params)): (r.status, r.cases) for r in report.records}


# negative: the grid with negative degrees, as the default grid prints no
# minus sign for the joiner's misprints to touch
@pytest.mark.parametrize("mutate, reads, negative", [
    (_swap_codim_binate_pair, "in codim notation, read back as", False),
    (_drop_singular_parts, "in dim notation, read back as", False),
    (_shift_even_coefficients, "the coefficient", False),
    (_drop_later_minus, "in dim notation, split back as", True),
    (_unjoined_minus, "in dim notation, split back as", True),
    (_leading_plus, "in dim notation, split back as", True),
], ids=["swapped_codim_pair", "dropped_singular_part", "shifted_coefficient",
        "dropped_minus", "wrong_separator", "leading_plus"])
def test_notation_check_fails_on_each_misprinting_space(monkeypatch, mutate, reads,
                                                        negative):
    """A misprint fails bezout_two_notations on exactly the spaces where
    some sum prints differently, each record naming the first such sum,
    and changes no other verdict."""
    cfg = vf.SweepConfig(pq_sum_max=4, include_negative_degrees=negative)
    clean = vf.run_verify(cfg, groups=("euler_grid",))
    printed = _printed_grid(cfg)
    mutate(monkeypatch)
    misprinted = _printed_grid(cfg)
    rep = vf.run_verify(cfg, groups=("euler_grid",))
    first = {}
    for space, sums in printed.items():
        bundles = next((was[0] for was, now in zip(sums, misprinted[space])
                        if was != now), None)
        if bundles is not None:
            first[space] = bundles
    assert first
    fails = rep.failures
    assert [(r.name, r.params) for r in fails] == [
        ("bezout_two_notations", {"p": p, "q": q}) for p, q in first]
    for r, ((p, q), bundles) in zip(fails, first.items()):
        assert reads in r.detail
        assert r.detail.endswith(f" for {dict(p=p, q=q, bundles=bundles)}")
    want = _verdicts(clean)
    for p, q in first:
        want["bezout_two_notations", repr({"p": p, "q": q})] = ("fail", 1)
    assert _verdicts(rep) == want


def test_notation_reader_refuses_unknown_terms():
    amb = pj.ambient(2, 1)
    inv = bd.bundle_invariants(bd.BundleSum((2, 1), bd.parse_bundles("O(3),xO(1)")))
    target = inv.euler_degree()
    with pytest.raises(TypeError):
        vf._term_fault("not a term", amb)
    assert vf._term_fault(sb.FixedPoint(0, 0, target), amb) == ""
    assert vf._term_fault(sb.FixedPoint(1, 0, target), amb) == ""
    with pytest.raises(sb.InfeasibleTerm):       # refused when it is built
        sb.FixedPoint(2, 0, target)


def test_recorder_merges_verdicts_by_name_and_params_value():
    rec = vf.Recorder()
    params = {"p": 1, "q": 2}
    rec.ok("x", params)
    rec.ok("x", params, cases=2)          # the same params object
    rec.ok("x", {"q": 2, "p": 1})         # equal params, another object and order
    rec.ok("y", params)
    rec.ok("x", {"p": True, "q": 2})      # repr 'True' is not '1': a record of its own
    rec.fail("x", params, "boom")         # a failure replaces the pass record
    rec.ok("x", params)                   # and a later pass leaves it failed
    rec.skip("z", {"p": 1}, "why", cases=3)
    rec.skip("z", {"p": 1}, "why")
    assert [(r.name, r.params, r.status, r.cases) for r in rec.records] == [
        ("y", params, "pass", 1), ("x", {"p": True, "q": 2}, "pass", 1),
        ("x", params, "fail", 1), ("z", {"p": 1}, "skipped", 4)]
