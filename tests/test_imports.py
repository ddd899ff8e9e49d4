"""Importing the package, or its CLI, loads only the kernel modules.

The sweep harness (`c2bezout.verify`) and the standard-library modules
that only it or the record machinery of `dataclasses` would pull in load
on first use.  Each check runs in a fresh `python -S` interpreter, so
that nothing `site` imports hides a module the package loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import c2bezout

SRC = Path(c2bezout.__file__).resolve().parents[1]
NOT_AT_IMPORT = ("c2bezout.verify", "dataclasses", "inspect", "typing", "json")


def run_bare(code: str) -> str:
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("module", ["c2bezout", "c2bezout.cli"])
def test_import_loads_no_harness(module):
    loaded = run_bare(f"import sys, {module}\n"
                      f"print(' '.join(sorted(sys.modules)))").split()
    assert module in loaded
    assert [m for m in NOT_AT_IMPORT if m in loaded] == []


def test_lazy_names_resolve():
    out = run_bare(
        "import sys, c2bezout\n"
        "lazy = ['SweepConfig', 'VerifyReport', 'run_verify']\n"
        "listed = [n for n in lazy if n in dir(c2bezout)]\n"
        "before = 'c2bezout.verify' in sys.modules\n"
        "from c2bezout import run_verify\n"
        "ns = {}\n"
        "exec('from c2bezout import *', ns)\n"
        "import json\n"
        "print(json.dumps({\n"
        "    'listed': listed, 'before': before,\n"
        "    'missing': [n for n in c2bezout.__all__ if n not in ns],\n"
        "    'same': run_verify is c2bezout.verify.run_verify,\n"
        "    'all_in_dir': set(c2bezout.__all__) <= set(dir(c2bezout)),\n"
        "}))\n")
    got = json.loads(out)
    assert got == {"listed": ["SweepConfig", "VerifyReport", "run_verify"],
                   "before": False, "missing": [], "same": True,
                   "all_in_dir": True}


def test_every_exported_name_resolves():
    for name in c2bezout.__all__:
        assert getattr(c2bezout, name) is not None, name
    assert c2bezout.SweepConfig is c2bezout.verify.SweepConfig
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        c2bezout.nonexistent
