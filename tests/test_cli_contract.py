"""CLI contract fuzzer: every command, on any document and flags, exits 0, 2 or 3.

Each case calls ``main`` in process. Its JSON documents are valid ones with
a few entries, lists or fields replaced by odd values (zero, negatives,
huge and subnormal numbers, strings, null, booleans, nested lists), a field
dropped or an unknown field added; its flags are typical values or odd
strings. A non-zero exit must leave exactly one stderr line containing
``error:``, the last, and no traceback; exit 0 must print JSON, or a CSV or
text header. Sizes are bounded (at most 6 items, 50 buyers, 20
replications, 5 x 8 markets, a gcurve step of at least 0.01, a horizon of
at most 200), so no case asks for a large allocation or a long run, and the
strategies are derandomized.
"""

import contextlib
import io
import json

import pytest

from mnlmarkets.cli import GCURVE_CSV_COLUMNS, SIMULATE_CSV_COLUMNS, main
from mnlmarkets.simulate import POLICIES

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Odd JSON values for any entry. A whole number from about 1e3 to 1e29 is
# left out: as a buyer or replication count it would be accepted and
# allocated, while 1e30 and 2**63 are rejected as unaddressable.
ODD = [0, -1, 0.5, 1e308, -1e308, 2**63, 2**64, 1e30, 1e-320, "1", None, True, [], [1], [[1]], {},
       40, 700, -800, 3.0, float("nan")]
ODD_FLAGS = ["0", "-1", "0.5", "1e308", "-1e308", "nan", "inf", "1e-320", "x", "", "2.5", "9" * 30]


def settings(examples):
    return hypothesis.settings(max_examples=examples, deadline=None, derandomize=True, database=None,
                               suppress_health_check=[hypothesis.HealthCheck.too_slow,
                                                      hypothesis.HealthCheck.data_too_large])


def flag(typical, odd=ODD_FLAGS):
    """A typical value as a string, or about one time in ten an odd string."""
    return st.integers(0, 9).flatmap(lambda k: st.sampled_from(odd) if k == 9 else typical.map(str))


def lists(element, size):
    return st.lists(element, min_size=size, max_size=size)


@st.composite
def mangled(draw, valid):
    """A valid document, or one with up to two entries, lists or fields replaced by odd values
    or removed, and now and then an unknown field."""
    doc = draw(valid)
    for _ in range(draw(st.integers(0, 2))):
        parent, key, node = None, None, doc
        # Walk down from the root and stop at random, at least one level down.
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            key = draw(st.sampled_from(sorted(node)) if isinstance(node, dict) else st.integers(0, len(node) - 1))
            parent, node = node, node[key]
        if parent is not None:
            if draw(st.integers(0, 3)) == 3:
                del parent[key]
            else:
                parent[key] = draw(st.sampled_from(ODD))
    if draw(st.integers(0, 19)) == 19:
        doc["unknown"] = 1
    return doc


@st.composite
def catalogs(draw):
    n = draw(st.integers(1, 6))
    doc = {"schema": 1, "qualities": draw(lists(st.floats(-3.0, 4.0), n)),
           "inventories": draw(lists(st.integers(1, 5), n))}
    if draw(st.booleans()):
        doc["costs"] = draw(lists(st.floats(0.0, 2.0), n))
    return doc


@st.composite
def markets(draw):
    sellers, buyers = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    doc = {"schema": 1, "theta": draw(lists(lists(st.floats(-3.0, 4.0), buyers), sellers)),
           "capacities": draw(lists(st.integers(1, 8), sellers))}
    if draw(st.booleans()):
        doc["visibility"] = draw(lists(lists(st.sampled_from([True, False, 1, 0]), buyers), sellers))
    return doc


@st.composite
def simulate_configs(draw, catalog_path):
    policy = st.sampled_from(sorted(POLICIES))
    threshold = st.floats(0.5, 0.99)
    buyers = st.integers(1, 50)
    doc = {"schema": 1, "policy": draw(st.one_of(policy, st.lists(policy, min_size=1, max_size=3)))}
    if draw(st.booleans()):
        doc["catalog"] = draw(catalogs())
    else:
        doc["catalog_path"] = draw(st.sampled_from([catalog_path] * 3 + [catalog_path + ".missing"]))
    if draw(st.booleans()):
        doc["threshold"] = draw(threshold)
    else:
        doc["threshold_sweep"] = draw(st.lists(threshold, min_size=1, max_size=3))
    if draw(st.booleans()):
        doc["buyers"] = draw(buyers)
    else:
        doc["buyers_sweep"] = draw(st.lists(st.one_of(buyers, buyers.map(float)), min_size=1, max_size=3))
    doc["replications"] = draw(st.integers(1, 20))
    if draw(st.booleans()):
        doc["seed"] = draw(st.integers(0, 2**32))
    return doc


def call(argv):
    """main(argv) in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected a flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv, header=None):
    code, out, err = call(argv)
    assert "Traceback" not in err
    assert code in (0, 2, 3), (code, err)
    if code != 0:
        assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:], err
        return
    assert "error:" not in err
    if header is None:
        json.loads(out)
    else:
        assert out.startswith(header + "\n"), out[:200]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths for one case's input documents, in a directory kept for the module."""
    root = tmp_path_factory.mktemp("contract")

    def write(name, doc):
        path = root / name
        path.write_text(json.dumps(doc))
        return str(path)

    return root, write


def test_equilibrium(files):
    _, write = files

    @settings(60)
    @hypothesis.given(mangled(catalogs()), flag(st.sampled_from(["all", "0", "0,1", "1,0,2", "0,0", "6", ""])),
                      st.booleans())
    def check(catalog, items, perishable):
        assert_contract(["equilibrium", write("catalog.json", catalog), "--items", items]
                        + ["--perishable"] * perishable)

    check()


def test_opt(files):
    _, write = files
    fixed_rev = st.lists(flag(st.floats(-2.0, 3.0)), min_size=1, max_size=7).map(",".join)

    @settings(60)
    @hypothesis.given(mangled(catalogs()), flag(st.integers(1, 50)), st.one_of(st.none(), fixed_rev))
    def check(catalog, buyers, fixed_rev):
        argv = ["opt", write("catalog.json", catalog), "--buyers", buyers]
        assert_contract(argv + ([] if fixed_rev is None else ["--fixed-rev", fixed_rev]))

    check()


def test_simulate(files):
    root, write = files
    override = st.one_of(st.none(), flag(st.integers(1, 20)))

    @settings(60)
    @hypothesis.given(mangled(simulate_configs(str(root / "catalog.json"))), mangled(catalogs()), override,
                      override, st.one_of(st.none(), flag(st.integers(1, 3))))
    def check(config, catalog, seed, replications, workers):
        write("catalog.json", catalog)
        argv = ["simulate", "--config", write("config.json", config)]
        for name, value in (("--seed", seed), ("--replications", replications), ("--workers", workers)):
            argv += [] if value is None else [name, value]
        assert_contract(argv, SIMULATE_CSV_COLUMNS)

    check()


def test_gcurve():
    # Each point costs about 50 ms, so the steps are coarse and the cases few.
    @settings(20)
    @hypothesis.given(flag(st.floats(0.5, 0.75)), flag(st.floats(0.76, 0.99)), flag(st.floats(0.05, 0.5)))
    def check(lo, hi, step):
        assert_contract(["gcurve", "--lo", lo, "--hi", hi, "--step", step], GCURVE_CSV_COLUMNS)

    check()


@pytest.mark.parametrize("command", ["network", "segment"])
def test_market_commands(files, command):
    root, write = files

    @settings(40)
    @hypothesis.given(mangled(markets()), st.booleans(), st.booleans())
    def check(market, compare, csv):
        argv = [command, write("market.json", market)]
        if command == "segment":
            argv += ["--compare"] * compare + ["--csv", str(root / "summary.csv")] * csv
        assert_contract(argv)

    check()


def test_adversary_demo():
    # A horizon of 10**30 would be accepted at a growth near 1, so it is left out.
    horizons = flag(st.integers(1, 200), [f for f in ODD_FLAGS if len(f) < 30])

    @settings(60)
    @hypothesis.given(flag(st.floats(1.0, 8.0, exclude_min=True)), horizons)
    def check(growth, horizon):
        assert_contract(["adversary-demo", "--growth", growth, "--horizon", horizon],
                        "buyer-by-buyer construction (single item, one unit in stock):")

    check()
