"""The package's export table: each public name listed once and loaded on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mnlmarkets

# Run in a fresh interpreter, where no test has imported a submodule yet.
PROBE = """
import importlib, json, sys
import mnlmarkets
report = {"loaded_on_import": sorted(m for m in sys.modules if m.startswith("mnlmarkets."))}
report["lp_after_bare_import"] = mnlmarkets.lp is sys.modules["mnlmarkets.lp"]
report["not_their_module"] = [
    name for name in mnlmarkets.__all__
    if getattr(mnlmarkets, name) is not getattr(importlib.import_module(
        "mnlmarkets." + mnlmarkets._EXPORTS[name]), name)
]
namespace = {}
exec("from mnlmarkets import *", namespace)
report["star_names"] = sorted(set(namespace) - {"__builtins__"})
try:
    mnlmarkets.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def fresh():
    src = str(Path(mnlmarkets.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_submodule(fresh):
    assert fresh["loaded_on_import"] == []
    assert fresh["lp_after_bare_import"]


def test_each_name_is_its_defining_module_object(fresh):
    assert fresh["not_their_module"] == []


def test_star_import_binds_every_public_name(fresh):
    assert len(mnlmarkets.__all__) == 58
    assert fresh["star_names"] == mnlmarkets.__all__ == sorted(mnlmarkets.__all__)


def test_unknown_attribute_raises(fresh):
    assert fresh["unknown"] == "module 'mnlmarkets' has no attribute 'no_such_name'"
    assert not hasattr(mnlmarkets, "no_such_name")


def test_dir_lists_the_public_names():
    assert set(mnlmarkets.__all__) <= set(dir(mnlmarkets))
