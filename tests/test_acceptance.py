"""Acceptance gate.

Each test drives one acceptance criterion end to end at its stated
tolerance (exact equality throughout; runtime bounds where stated) and
prints one pass/fail line.  The shipped default sweep configuration is
the one exercised here.
"""

import hashlib
import json
import time

from c2bezout import verify as vf


CFG = vf.SweepConfig()


def _run(groups, budget=None):
    t0 = time.perf_counter()
    rep = vf.run_verify(CFG, groups=groups)
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, f"{groups} took {dt:.1f}s (budget {budget}s)"
    return rep, dt


def _require(name, rep, dt):
    status = "PASS" if rep.passed else "FAIL"
    print(f"ACCEPTANCE {name}: {status} "
          f"({rep.summary()['cases']} cases, {dt:.2f}s)")
    if not rep.passed:
        for r in rep.failures[:5]:
            print(f"  {r.name} {r.params}: {r.detail}")
            print(f"    lhs={r.lhs}")
            print(f"    rhs={r.rhs}")
    assert rep.passed


def test_criterion_1_point_ring_table():
    rep, dt = _run(("point_table",), budget=1.0)
    _require("1 point-ring structure vs figure", rep, dt)


def test_criterion_2_lemma_suite():
    rep, dt = _run(("lemma_suite",), budget=30.0)
    _require("2 section-2 lemma suite", rep, dt)


def test_criterion_3_base_case_and_blocks():
    rep, dt = _run(("base_case", "type_blocks"))
    _require("3 base case and type blocks", rep, dt)


def test_criterion_4_closed_forms_full_grid():
    rep, dt = _run(("euler_grid",), budget=600.0)
    _require("4 closed forms over the full grid", rep, dt)
    grid_checks = [r for r in rep.records
                   if r.name.startswith("closed_form") and r.status == "pass"]
    assert sum(r.cases for r in grid_checks) > 10000


def test_criterion_5_bezout_and_special_cases():
    rep, dt = _run(("euler_grid", "dictionary", "corollaries"), budget=600.0)
    _require("5 Bezout theorem and corollaries", rep, dt)
    names = {r.name for r in rep.records if r.status == "pass"}
    for needed in ("bezout_theorem", "bezout_two_notations",
                   "corollary_dim0", "corollary_dim0_counts",
                   "corollary_codim1", "corollary_dim1_table",
                   "corollary_dim1_all_cells", "corollary_dim2"):
        assert needed in names, f"missing {needed}"


def test_criterion_6_freeness():
    rep, dt = _run(("freeness",))
    _require("6 freeness and basis reduction", rep, dt)
    prods = [r for r in rep.records if r.name == "freeness_products"]
    assert sum(r.cases for r in prods) > 100000


def test_criterion_7_homomorphism_properties():
    rep, dt = _run(("random_homs", "frobenius_module"))
    _require("7 restriction/fixed/Frobenius properties", rep, dt)
    homs = [r for r in rep.records if r.name in ("rho_ring_hom",
                                                 "fixed_ring_hom")]
    assert all(r.params["pairs"] == 200 for r in homs)


def test_criterion_8_harness_soundness():
    rep, dt = _run(("soundness",))
    _require("8 harness soundness (perturbed rule fails)", rep, dt)


# the default report, pinned: its summary, and the SHA-256 of its JSON
# without the wall times and with the records sorted
DEFAULT_SUMMARY = {"pass": 16483, "fail": 0, "skipped": 32, "cases": 325428}
DEFAULT_DIGEST = "04d77dd5ff44355d67fb8af9a9a25d9ee7fc15a450ebba87d3de542eda5465ef"


def _report_digest(rep) -> str:
    data = rep.to_json()
    data.pop("wall_time_s")
    data["summary"].pop("wall_time_s")
    data["records"] = sorted(json.dumps(r, sort_keys=True) for r in data["records"])
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def test_full_default_run_exit_condition():
    """cmd_verify exit code is 0 on the shipped default config, and the
    report is the pinned one."""
    rep = vf.run_verify(CFG)
    print(f"ACCEPTANCE full-suite: "
          f"{'PASS' if rep.passed else 'FAIL'} {rep.summary()}")
    assert rep.passed
    summary = rep.summary()
    assert {k: summary[k] for k in DEFAULT_SUMMARY} == DEFAULT_SUMMARY
    assert _report_digest(rep) == DEFAULT_DIGEST
