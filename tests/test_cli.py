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
    # a perturbed kernel, now an explicit private ambient, must break
    # identities, and the report shows both normal forms
    amb = pj.Ambient(2, 2, tensor_e2=2)
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
    # the hidden CLI hook is gone, and the registered kernel never changed
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
         "# the symbol table and each ambient's caches stay within the cap\n"
         "from c2bezout import point as pt, verify as vf\n"
         "cfg = vf.SweepConfig(p_max=3, q_max=3, pq_sum_max=5)\n"
         "rep = vf.run_verify(cfg, groups=('point_axioms', 'euler_grid',\n"
         "                                 'dictionary'))\n"
         "assert rep.passed and rep.summary()['cases'] > 1000\n"
         "amb = pj.ambient(3, 3)\n"
         "sizes = [len(pt._PRODUCTS), len(amb._memo), len(amb._reduce)]\n"
         "assert max(sizes) <= 64, sizes\n"
         "print(pj._CACHE_LIMIT)"],
        env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "64"
