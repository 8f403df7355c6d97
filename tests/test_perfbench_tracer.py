"""The span tracer of the benchmark harness (perfbench/spans.py) against the package.

The harness reports a per-layer metric for every function in ``spans.TARGETS``
and a cache counter for every ``spans.CACHES`` entry. A traced run whose
package lacks one of them loses those metrics, so the tracer must find all
of them here. The harness is read, never changed.
"""

import importlib.util
from pathlib import Path

import pytest

from mnlmarkets import lp
from mnlmarkets.equilibrium import ItemCatalog

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target_and_cache(spans):
    original = lp.enumerate_columns
    tracer = spans.Tracer(spans.load_modules())
    tracer.install()
    try:
        assert tracer.absent == []
        assert sorted(tracer.caches) == sorted(spans.CACHES)
        # A catalog no other test enumerates, so the column cache misses and
        # the tracer counts the columns through ColumnSet.columns.
        cat = ItemCatalog([2.25, -0.75, 1.125, 0.5, -1.5, 3.0], [2] * 6)
        assert lp.enumerate_columns is not original
        assert len(lp.enumerate_columns(cat).columns) == 63
        assert tracer.counts["lp.columns"] == 63
        assert tracer.function_stats()["lp.enumerate_columns"][0] == 1
    finally:
        tracer.restore()
    assert lp.enumerate_columns is original
