import hashlib
import json

import pytest

from c2bezout import cli
from c2bezout import point as pt
from c2bezout import projective as pj
from c2bezout import verify as vf
from c2bezout.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_euler_agrees(capsys):
    code, out, _ = run(capsys, "euler", "--p", "2", "--q", "1",
                       "--bundles", "O(3),xO(1)")
    assert code == 0
    assert "AGREES with product" in out
    assert "tau" in out or "c_w" in out


def test_euler_twisted_even(capsys):
    code, out, _ = run(capsys, "euler", "--p", "3", "--q", "3",
                       "--bundles", "xO(2)")
    assert code == 0
    # chi Q = zeta0 c_w + zeta1 c_xw normalizes to a transfer plus e^2
    assert "tau(iota^2 c)" in out and "e^2" in out


def test_euler_parse_error(capsys):
    code, _, err = run(capsys, "euler", "--p", "2", "--q", "1",
                       "--bundles", "O(2.5)")
    assert code == 2
    assert "2.5" in err


def test_euler_context_warning(capsys):
    code, out, _ = run(capsys, "euler", "--p", "1", "--q", "1",
                       "--bundles", "O(1),O(1)")
    assert code == 0
    assert "context warning" in out


def test_euler_json(capsys):
    code, out, _ = run(capsys, "euler", "--p", "2", "--q", "2",
                       "--bundles", "O(2)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["agrees"] is True
    assert data["degree"] == [2, 2, 2]


def test_bezout_dim0(capsys):
    code, out, _ = run(capsys, "bezout", "--p", "2", "--q", "1",
                       "--bundles", "O(3),xO(1)")
    assert code == 0
    assert "3 [pt+]*" in out


def test_bezout_codim1_notation(capsys):
    code, out, _ = run(capsys, "bezout", "--p", "3", "--q", "2",
                       "--bundles", "O(3)", "--notation", "codim")
    assert code == 0
    assert "[Y_1(1,0)]*" in out
    assert "[S~_1(1,1); S~_2(2,1)]*" in out
    code, out2, _ = run(capsys, "bezout", "--p", "3", "--q", "2",
                        "--bundles", "O(3)", "--notation", "dim")
    assert code == 0
    assert "[X^{2,2}]*" in out2
    assert "[S~^4_{2,1}; S~^3_{1,1}]*" in out2


def test_bezout_context_violation(capsys):
    code, _, err = run(capsys, "bezout", "--p", "1", "--q", "1",
                       "--bundles", "O(1),O(1)")
    assert code == 2
    assert "n < p + q" in err


def test_basis_text(capsys):
    code, out, _ = run(capsys, "basis", "--p", "2", "--q", "1", "--m", "0")
    assert code == 0
    assert out.strip() == "1, zeta0 c_w, c_w c_xw"
    code, out, _ = run(capsys, "basis", "--p", "3", "--q", "0", "--m", "2")
    assert out.strip() == "zeta1^2, zeta1 c_w, c_w^2"
    code, out, _ = run(capsys, "basis", "--p", "4", "--q", "5", "--m", "2",
                       "--format", "json")
    assert len(json.loads(out)) == 9


def test_basis_diagram(capsys):
    code, out, _ = run(capsys, "basis", "--p", "4", "--q", "5", "--m", "2",
                       "--diagram")
    assert code == 0
    assert out.count("*") == 9


def test_basis_of_a_large_space(capsys):
    code, out, err = run(capsys, "basis", "--p", "600", "--q", "600", "--m", "0")
    assert code == 0 and err == ""
    assert len(out.strip().split(", ")) == 1200


# Exact stdout and exit code of fixed calls.  Long outputs are pinned by
# the SHA-256 of their UTF-8 bytes.
EIGHT_BUNDLES = "O(3),O(3),O(-2),xO(5),xO(-3),xO(4),xO(4),O(1)"
SATURATED_KAPPA = "O(3),O(5),O(2),O(4),xO(3),xO(2)"
GOLDEN = [
    (("euler", "--p", "2", "--q", "1", "--bundles", "O(3),xO(1)"), 0,
     "e(F) product     = 3 c_w c_xw\n"
     "e(F) closed form = 3 c_w c_xw\n"
     "AGREES with product\n"),
    (("euler", "--p", "3", "--q", "3", "--bundles", "xO(2)"), 0,
     "e(F) product     = e^2 + tau(iota^2 c)\n"
     "e(F) closed form = e^2 + tau(iota^2 c)\n"
     "AGREES with product\n"),
    (("euler", "--p", "1", "--q", "1", "--bundles", "O(1),O(1)"), 0,
     "e(F) product     = e^2 zeta0^-1 c_w\n"
     "context warning: n < p + q fails (2 >= 2) (closed form skipped)\n"
     "context warning: n - p <= n1 fails (1 > 0) (closed form skipped)\n"),
    (("euler", "--p", "3", "--q", "2", "--bundles", "O(2),xO(3)",
      "--format", "latex"), 0,
     "e(F) product     = e^{-2}\\kappa \\widehat{c}_\\omega\\widehat{c}_{\\chi\\omega}^{2}"
     " + 3 \\tau(\\iota^{2}\\zeta^{-1}c^{2})\n"
     "e(F) closed form = e^{-2}\\kappa \\widehat{c}_\\omega\\widehat{c}_{\\chi\\omega}^{2}"
     " + 3 \\tau(\\iota^{2}\\zeta^{-1}c^{2})\n"
     "AGREES with product\n"),
    (("euler", "--p", "2", "--q", "2", "--bundles", "O(2),xO(1)",
      "--format", "json"), 0,
     "sha256:57f73c720ac1977f9b8309788137f2e5724dea47895886a7ec95e4492c248b18"),
    (("bezout", "--p", "2", "--q", "1", "--bundles", "O(3),xO(1)"), 0,
     "e(F) = 3 [pt+]*\n"
     "     = 3 c_w c_xw\n"),
    (("bezout", "--p", "3", "--q", "2", "--bundles", "O(3)",
      "--notation", "dim"), 0,
     "e(F) = [X^{2,2}]* + [S~^4_{2,1}; S~^3_{1,1}]*\n"
     "     = 3 c_w - e^-2 kappa zeta0 c_w^2\n"),
    (("bezout", "--p", "3", "--q", "2", "--bundles", "O(3)",
      "--notation", "codim"), 0,
     "e(F) = [Y_1(1,0)]* + [S~_1(1,1); S~_2(2,1)]*\n"
     "     = 3 c_w - e^-2 kappa zeta0 c_w^2\n"),
    (("bezout", "--p", "4", "--q", "3", "--bundles", "O(2),xO(-1),O(4)",
      "--notation", "codim", "--format", "latex"), 0,
     "e(F) = 4 [\\widetilde{S}_{3}(2,3)]^* - 8 \\mathrm{Fr}(3)\n"
     "     = -4 \\tau(\\iota^{2}\\zeta^{-1}c^{3})"
     " + 4e^{-4}\\kappa \\widehat{c}_\\omega^{2}\\widehat{c}_{\\chi\\omega}^{3}\n"),
    # a leading minus; the coefficient -1 stays printed
    (("bezout", "--p", "2", "--q", "2", "--bundles", "O(-2),xO(1)"), 0,
     "e(F) = -1 [S~^2_{1,0}]*\n"
     "     = -e^-2 kappa c_w c_xw^2 - tau(iota^2 zeta^-1 c^2)\n"),
    (("bezout", "--p", "3", "--q", "2", "--bundles", "O(3)",
      "--format", "json"), 0,
     "sha256:304f28e500a34690c591a9fa99515056918127f927e3d625f0b78d90b9be9d8e"),
    (("basis", "--p", "4", "--q", "5", "--m", "2", "--diagram"), 0,
     "zeta1^2, zeta1 c_w, c_w^2, zeta0 c_w^3, c_w^3 c_xw, zeta0 c_w^4 c_xw,"
     " c_w^4 c_xw^2, zeta0^-1 c_w^4 c_xw^3, zeta0^-2 c_w^4 c_xw^4\n"
     "basis of coset m=2, dot at (a,b) for degree m(omega-2)+2a+2b sigma\n"
     ". . . * * * *\n"
     ". . * * . . .\n"
     "* * * . . . .\n"),
    # large spaces, whose transfers and S-kernels build on basis witnesses
    (("euler", "--p", "32", "--q", "30", "--bundles",
      "O(3),xO(2),O(1),xO(4),O(2),xO(1),O(5),xO(3),O(3),xO(2),"
      "O(1),xO(2),O(4),xO(3),O(2),xO(1),O(3),xO(2),O(1),xO(5)"), 0,
     "sha256:e5e6356e5a817fbc5562f1af6b5068cfcb6dffcc0bfc58734be1fc4c116eb78c"),
    (("bezout", "--p", "30", "--q", "34", "--bundles",
      "O(3),O(2),O(1),O(4),O(2),O(1),O(5),O(3),O(3),O(2),O(1),"
      "O(2),O(4),O(3),O(2),O(1),O(3),O(2),O(1),xO(5),xO(2)",
      "--format", "json"), 0,
     "sha256:8e189b2882fb5c4dc41cbe46ed77945fcd99f5d362377d42f2b05234c170c55f"),
    # an eight-bundle sum of all four families, the Euler product's
    # longest chain of line classes among these calls
    (("euler", "--p", "9", "--q", "8", "--bundles", EIGHT_BUNDLES), 0,
     "sha256:0a1d5f5e8de8261d3fd7b8330ad24fba084d3880fb19d0409a52723e4e159f5e"),
    (("euler", "--p", "9", "--q", "8", "--bundles", EIGHT_BUNDLES,
      "--format", "json"), 0,
     "sha256:2b7e316854fbcb6c4872afda2c82c4f4f94783aa92f45c18a6a03bd7602283ad"),
    (("bezout", "--p", "9", "--q", "8", "--bundles", EIGHT_BUNDLES,
      "--notation", "codim"), 0,
     "sha256:53f1afbc42e4b965b8321a0d22b92422da0b943877fcb146d60184eb69738607"),
    (("point-table", "--window", "8", "--format", "json"), 0,
     "sha256:258bd3932db5b1dc801b0e7c502d1eeaad38b02ba4e23f630ee4d13411cb6fdb"),
    # every kind of point symbol as text; LaTeX powers of the generators;
    # LaTeX point coefficients (\xi, e^{2}) on monomials with zeta0^{-2}
    (("point-table", "--window", "12"), 0,
     "sha256:c0e83071cb7167f4f97e0e2751cbec00ad26083e35c79697a8b5eb84f5d4c157"),
    (("basis", "--p", "4", "--q", "5", "--m", "-3", "--format", "latex"), 0,
     "sha256:2cbd294c987eae9ae6fa2f2816a9b422dfdb09d44f275a911bc4b3b5e48f746f"),
    (("euler", "--p", "2", "--q", "2", "--bundles", "O(3),O(3),O(3)",
      "--format", "latex"), 0,
     "sha256:508d14233e507026fc448d650e945580a9d3b3d5916ab7dc3b9d6a3cc60ed6c9"),
    # a binate term with p_i = -1, whose kappa monomial rides a saturated c_w
    (("bezout", "--p", "3", "--q", "30", "--bundles", SATURATED_KAPPA,
      "--notation", "codim"), 0,
     "e(F) = 12 [S~_6(4,3)]* + 348 Fr(6)\n"
     "     = 348 tau(iota^4 zeta c^6) + 24 zeta0^-1 c_w^3 c_xw^3\n"),
    # two invariant-chain terms beside a free orbit in JSON
    (("bezout", "--p", "3", "--q", "3", "--bundles", "xO(2),O(3)",
      "--format", "json"), 0,
     "sha256:7d211928120102ee03633aba5d0b3febb2918809defc5e9a06764b3d602d3f42"),
]


@pytest.mark.parametrize("argv, code, want", GOLDEN,
                         ids=["_".join(argv) for argv, _, _ in GOLDEN])
def test_golden_output(capsys, argv, code, want):
    got_code, out, err = run(capsys, *argv)
    assert (got_code, err) == (code, "")
    if want.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert out == want


def test_verify_seed_reaches_every_record(capsys):
    code, out, _ = run(capsys, "verify", "--groups", "random_homs",
                       "--seed", "7", "--format", "json")
    assert code == 0
    records = json.loads(out)["records"]
    assert records and all(r["params"]["seed"] == 7 for r in records)


def test_verify_include_negative_degrees_widens_the_grid(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pq_sum_max": 3, "max_bundles_total": 3}))
    cases = []
    for flag in ((), ("--include-negative-degrees",)):
        code, out, _ = run(capsys, "verify", "--groups", "euler_grid",
                           "--sweep-config", str(path), "--format", "json", *flag)
        assert code == 0
        cases.append(json.loads(out)["summary"]["cases"])
    assert cases == [900, 3000]


def test_point_table(capsys):
    code, out, _ = run(capsys, "point-table", "--window", "4")
    assert code == 0
    assert "A(C2)" in out
    assert "e^-1 kappa" in out


def test_verify_quick_group(capsys):
    code, out, _ = run(capsys, "verify", "--groups", "point_table,grading")
    assert code == 0
    assert "0 failed" in out


def test_verify_json_roundtrip(capsys, tmp_path):
    cfg = {"p_max": 2, "q_max": 2, "pq_sum_max": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "verify", "--groups", "proj_relations",
                       "--sweep-config", str(path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["fail"] == 0


def test_verify_corrupted_rule_fails(capsys):
    # a perturbed kernel, the harness's private ambient, must break
    # identities, and the report shows both normal forms
    amb = vf._PerturbedAmbient(2, 2)
    z0, z1 = pj.gen_zeta0(amb), pj.gen_zeta1(amb)
    cw, cxw = pj.gen_cw(amb), pj.gen_cxw(amb)
    onemk = pj.ProjClass.from_point(amb, pt.p_one_minus_kappa())
    e2 = pj.ProjClass.from_point(amb, pt.p_sym(("e", 2)))
    rec = vf.Recorder()
    rec.eq("rel_tensor", {"p": 2, "q": 2}, z1 * cxw - onemk * z0 * cw, e2)
    report = vf.VerifyReport(records=rec.records)
    assert not report.passed
    out = vf.report_text(report)
    assert "FAIL" in out
    assert "lhs =" in out and "rhs =" in out
    # the hidden CLI hook is gone, and the real ring's kernel never changed
    code, _, _ = run(capsys, "verify", "--groups", "proj_relations",
                     "--corrupt-rule")
    assert code == 2
    code, out, _ = run(capsys, "verify", "--groups", "proj_relations")
    assert code == 0


def test_usage_error(capsys):
    assert main(["euler", "--p", "2"]) == 2
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("exc, want", [
    (pj.KernelError("stuck at non-normal monomial"), 3),
    (pj.KernelError("reduction of (0, 0, 9, 9)\ndid not terminate"), 3),
    (RecursionError("maximum recursion depth exceeded"), 3),
    (MemoryError(), 3),
    (ArithmeticError("coefficient 1/2 is not integral"), 3),
    (ZeroDivisionError("division by zero"), 3),
    (pt.OutsideSupportedSubring("tau(iota^1) lies outside"), 2),
], ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else str(v))
def test_kernel_and_resource_failures_exit_3(monkeypatch, capsys, exc, want):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_basis", fail)
    code, out, err = run(capsys, "basis", "--p", "2", "--q", "1", "--m", "0")
    assert code == want
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if want == 3:
        assert type(exc).__name__ in err


def test_cache_size_env_respected():
    import os
    import subprocess
    import sys
    env = dict(os.environ, C2BEZOUT_CACHE_SIZE="64")
    out = subprocess.run(
        [sys.executable, "-c",
         "from c2bezout import projective as pj, bundles as bd\n"
         "amb = pj.ambient(2, 2)\n"
         "bs = bd.BundleSum((2, 2), bd.parse_bundles('O(3),O(2),xO(1)'))\n"
         "inv = bd.bundle_invariants(bs)\n"
         "assert bd.euler_closed_form(amb, inv) == bd.euler_product(amb, bs)\n"
         "# the symbol and shared-value tables and the ring's table\n"
         "# (the sum of its sub-tables' sizes) stay within the cap\n"
         "from c2bezout import point as pt, verify as vf\n"
         "cfg = vf.SweepConfig(p_max=3, q_max=3, pq_sum_max=5)\n"
         "rep = vf.run_verify(cfg, groups=('point_axioms', 'euler_grid',\n"
         "                                 'dictionary'))\n"
         "assert rep.passed and rep.summary()['cases'] > 1000\n"
         "# the groups that share work between cases, under eviction\n"
         "rep = vf.run_verify(cfg, groups=('freeness', 'type_blocks',\n"
         "                                 'lemma_suite', 'random_homs'))\n"
         "assert rep.passed and rep.summary()['cases'] > 10000\n"
         "amb = pj.ambient(3, 3)\n"
         "ring = pj.Ambient._ring_table\n"
         "sizes = [len(pt._PRODUCTS), len(pt._SHARED),\n"
         "         sum(map(len, ring.values())), ring.size]\n"
         "assert max(sizes) <= 64, sizes\n"
         "# unit transfers and kernels share the ring's bound, after every\n"
         "# insert; the table holds frozen products\n"
         "kinds = set()\n"
         "def after_insert(d):\n"
         "    kinds.update(k[0] for t in ring.values() for k in t\n"
         "                 if type(k) is tuple and type(k[0]) is str)\n"
         "    sizes = [len(pt._PRODUCTS), len(pt._SHARED),\n"
         "             sum(map(len, ring.values())), ring.size]\n"
         "    assert max(sizes) <= 64, (d, sizes)\n"
         "for d in range(1, 40):\n"
         "    pj.s_kernel_pair(amb, (0, 0, 1, 1), d % 3 + 1, 2 * d)\n"
         "    after_insert(d)\n"
         "    pj.proj_tau(amb, {(2 * d, d % 5, d % 6): d})\n"
         "    after_insert(d)\n"
         "    pt.p_mul(((('e', d), 1),), ((('xi', d), 1),))\n"
         "    after_insert(d)\n"
         "assert {'tau', 'S'} <= kinds, kinds\n"
         "# the shared-value table refills past its cap\n"
         "for d in range(1, 200):\n"
         "    assert pt.p_shared(pt.p_sym(('e', d))) == pt.p_sym(('e', d))\n"
         "    assert len(pt._SHARED) <= 64\n"
         "assert all(type(v) is tuple for v in pt._PRODUCTS.values())\n"
         "print(pt.CACHE_LIMIT)"],
        env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "64"


def test_unknown_verify_group_is_a_usage_error(capsys):
    with pytest.raises(ValueError, match="euler-grid.*valid groups: .*euler_grid"):
        vf.run_verify(groups=("euler-grid",))
    with pytest.raises(ValueError, match="nope"):
        vf.run_verify(groups=("proj_relations", "nope"))
    code, out, err = run(capsys, "verify", "--groups", "euler-grid")
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown check groups 'euler-grid'; valid groups: ")
    code, _, err = run(capsys, "verify", "--groups", "grading,")
    assert code == 2 and "unknown check groups ''" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_empty_verify_group_list_is_a_usage_error(capsys):
    # an empty --groups names the group '', it does not select the sweep
    code, out, err = run(capsys, "verify", "--groups", "")
    assert code == 2 and out == ""
    assert err.startswith("error: unknown check groups ''; valid groups: ")


@pytest.mark.parametrize("content, want", [
    (None, "cannot read sweep config"),
    ("not json {", "bad sweep config"),
    ('{"bogus": 1}', "unexpected keyword argument 'bogus'"),
    ('{"p_max": 0}', "all sweep bounds must be positive"),
    ('{"random_pairs": -5}', "random_pairs must be >= 0"),
    ('{"p_max": 2.5}', "p_max must be an integer"),
    ('{"odd_degrees": [1.5]}', "odd_degrees must list integers"),
    ('{"include_negative_degrees": "no"}',
     "include_negative_degrees must be true or false"),
    ('{"odd_degrees": 5}', "'int' object is not iterable"),
    ("[1, 3]", "bad sweep config"),
], ids=["missing", "not_json", "unknown_key", "bad_bound", "negative_pairs",
        "float_bound", "float_degree", "string_flag", "scalar_degrees",
        "not_an_object"])
def test_bad_sweep_config_is_a_usage_error(capsys, tmp_path, content, want):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, "verify", "--groups", "grading",
                         "--sweep-config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and want in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("window", ["-3", "-1", str(pt.WINDOW_MAX + 1), "100000000"])
def test_point_table_window_out_of_range_is_a_usage_error(capsys, window):
    # refused before any symbol is built, so the huge window returns at once
    code, out, err = run(capsys, "point-table", "--window", window)
    assert code == 2
    assert out == ""
    assert err == f"error: window must be between 0 and {pt.WINDOW_MAX}, got {window}\n"


def test_point_table_window_bounds_are_inclusive(capsys):
    code, out, _ = run(capsys, "point-table", "--window", "0")
    assert code == 0 and out == "degree +0+0sigma : A(C2) <1, g>\n"
    assert len(pt.point_symbols_in_window(pt.WINDOW_MAX)) > pt.WINDOW_MAX ** 2 // 4
    with pytest.raises(ValueError, match="between 0 and"):
        pt.point_census(-1)
