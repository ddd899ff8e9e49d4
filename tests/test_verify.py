import json

import pytest

from c2bezout import bundles as bd
from c2bezout import laurent
from c2bezout import projective as pj
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


def test_soundness_group():
    rep = vf.run_verify(vf.SweepConfig(), groups=("soundness",))
    assert rep.passed
    assert any(r.name == "harness_soundness" for r in rep.records)


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


# ---------------------------------------------------------------------------
# the Euler grid

def _brute_force_grid(cfg, amb):
    """Every bundle multiset of the grid on amb in enumeration order,
    judged by bd.context_violations: (admitted sums, number skipped)."""
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
                    if bd.context_violations(bs):
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
            assert [bs for bs, _, _ in sums] == want, amb
            assert skipped == want_skipped, amb
            total += len(want) + want_skipped
            for bs, left, right in sums[::97]:
                assert left * right == bd.euler_product(amb, bs), bs.token()
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
    first = vf.bundle_grid(cfg, pj.ambient(0, 2))[0][0][0]
    assert rec.params == {"p": 0, "q": 2, "bundles": first.token()}
    assert rec.detail == "normal forms differ"
    assert rec.lhs != rec.rhs
    assert not any(r.status == "pass" and r.name == rec.name for r in rep.records)
