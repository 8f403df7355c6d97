"""Byte-identity guard for the demos: sha256 of each demo's stdout.

The demos print rounded figures from every layer of the library (the
price game, the adversarial family, the network equilibrium with its
segmentation, and the online policies), so a refactor that moves any of
them shows here. Each demo runs in-process with ``runpy``; together they
take about 1.5 s.

``ratio_bound_curve`` is left out: it takes about 4.6 s, and the ``gcurve``
case of ``tests/test_cli_golden.py`` already pins ``hybrid_ratio_bound``,
which is what it prints. A change that means to move a demo's output
updates the digest here and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

GOLDEN = {
    "adversarial_family": "b2622e98ae9e99d9c3faa115312b607b90faaaf433685c06893c395476d17de4",
    "equilibrium_basics": "32bd2188637671473b5e8d06f349a0cc0b6738e9c75513c3b6bc17f2a6cf6c4a",
    "network_and_segmentation": "eeeb1f423c604d556f91e50c8989066ed6498f06422789b19ef47695bcb71900",
    "online_simulation": "16742c133d2c1f5c8855f1a10fec215f4ccb8080664f2ae24e5dac500a791648",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_stdout_matches_golden(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[name]
