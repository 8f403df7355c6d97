"""The package's export table: each public name listed once and loaded on first use."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mnlmarkets
from test_cli_golden import CASES, GOLDEN, MARKET

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


# The CLI's cold path: what importing it loads, then the price-game commands
# run in the same interpreter, so their deferred imports run for the first time.
CLI_PROBE = """
import hashlib, json, pathlib, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("mnlmarkets"))
import mnlmarkets.cli
report = {"loaded_on_import": loaded()}
for name, argv in json.loads(sys.argv[1]).items():
    out = pathlib.Path(sys.argv[2]) / (name + ".out")
    code = mnlmarkets.cli.main([*argv, "--out", str(out)])
    report[name] = {"code": code, "digest": hashlib.sha256(out.read_bytes()).hexdigest(), "loaded": loaded()}
print(json.dumps(report))
"""


def run_fresh(code, *args):
    """Run code in a new interpreter that imports the package under test; its stdout as JSON."""
    src = str(Path(mnlmarkets.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def fresh():
    return run_fresh(PROBE)


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


def test_cli_cold_path(tmp_path):
    market, csv = tmp_path / "market.json", tmp_path / "segment.csv"
    market.write_text(json.dumps(MARKET))
    commands = {name: [arg.format(market=market, csv=csv) for arg in CASES[name]]
                for name in ("network", "segment")}
    report = run_fresh(CLI_PROBE, json.dumps(commands), str(tmp_path))
    eager = ["mnlmarkets", "mnlmarkets.cli", "mnlmarkets.equilibrium", "mnlmarkets.lp",
             "mnlmarkets.policies", "mnlmarkets.simulate"]
    assert report["loaded_on_import"] == eager
    assert report["network"] == {"code": 0, "digest": GOLDEN["network"],
                                 "loaded": sorted([*eager, "mnlmarkets.network"])}
    assert report["segment"] == {"code": 0, "digest": GOLDEN["segment"],
                                 "loaded": sorted([*eager, "mnlmarkets.network", "mnlmarkets.segmentation"])}
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == GOLDEN["segment-csv"]
