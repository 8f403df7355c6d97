"""Byte-identity guard: sha256 of the CLI's ``--out`` bytes on fixed inputs.

The README's determinism contract promises the same bytes for the same
inputs on every run and every refactor. These digests pin the bytes of each
command on a small input set that reaches both column-enumeration paths
(5 items scalar, 7 items batched), all three online policies on both, the
network best responses with and without capacity lifting, segmentation with
its CSV, the ratio curve and the solo-revenue root of the adversary demo. A
change that means to move output bytes updates the digests here and says
why in CHANGES.md.
"""

import hashlib
import json

import pytest

from mnlmarkets.cli import main

CATALOG_3 = {"schema": 1, "qualities": [1.0, 2.0, 0.5], "inventories": [1, 2, 1],
             "costs": [0.1, 0.25, 0.05]}
CATALOG_5 = {"schema": 1, "qualities": [1.3, 0.2, 2.1, -0.4, 0.9],
             "inventories": [2, 1, 3, 1, 2]}
CATALOG_7 = {"schema": 1, "qualities": [0.7, 1.9, -0.3, 1.1, 2.6, 0.1, 1.4],
             "inventories": [1, 3, 2, 1, 2, 1, 2]}
SIMULATE = {"schema": 1, "catalog": CATALOG_5, "policy": ["hybrid", "greedy", "modified"],
            "threshold_sweep": [0.5, 0.75], "buyers_sweep": [6, 12],
            "replications": 30, "seed": 11}
# Twelve units against up to 20 buyers: episodes sell out, so the lockstep
# engine offers the empty assortment, on the batched 7-item columns.
SIMULATE_7 = {"schema": 1, "catalog": CATALOG_7, "policy": ["hybrid", "greedy", "modified"],
              "threshold_sweep": [0.5, 0.75], "buyers_sweep": [6, 20],
              "replications": 30, "seed": 17}
# One lockstep pass per config: a threshold sweep, an unsorted buyer sweep
# with a repeat and a zero, and a 9-unit item, so the 6-buyer modified rows
# read a shallower weight table than the 20-buyer pass they are taken from.
SIMULATE_SWEEP = {"schema": 1,
                  "catalog": {"schema": 1, "qualities": [3.0, 2.4, 0.3, -0.8],
                              "inventories": [9, 2, 4, 1]},
                  "policy": ["hybrid", "greedy", "modified"], "threshold_sweep": [0.5, 0.58],
                  "buyers_sweep": [20, 6, 20, 0], "replications": 25, "seed": 23}
# Seller 1 sees four buyers with one unit, so its best response lifts the
# price to capacity; seller 2 sees one buyer and stays stationary.
MARKET = {"schema": 1,
          "theta": [[2.0, 0.5, 1.0, 0.0, 1.2], [1.0, 1.5, 2.2, 1.8, 0.0],
                    [0.4, 0.0, 0.0, 0.0, 1.7]],
          "visibility": [[1, 1, 1, 0, 1], [1, 1, 1, 1, 0], [0, 0, 0, 0, 1]],
          "capacities": [2, 1, 1]}

FIXED_REV_5 = "0.8,0.3,1.5,0.2,0.6"
FIXED_REV_7 = "0.5,1.2,0.1,0.7,2.0,0.2,0.9"

# name -> argv; {name} fields are input files, {out} and {csv} outputs.
CASES = {
    "equilibrium": ["equilibrium", "{cat3}", "--items", "0,1,2"],
    "equilibrium-perishable": ["equilibrium", "{cat3}", "--perishable"],
    "opt-5": ["opt", "{cat5}", "--buyers", "7"],
    "opt-5-fixed-rev": ["opt", "{cat5}", "--buyers", "7", "--fixed-rev", FIXED_REV_5],
    "opt-7": ["opt", "{cat7}", "--buyers", "9"],
    "opt-7-fixed-rev": ["opt", "{cat7}", "--buyers", "9", "--fixed-rev", FIXED_REV_7],
    "simulate": ["simulate", "--config", "{sim}"],
    "simulate-7": ["simulate", "--config", "{sim7}"],
    "simulate-sweep": ["simulate", "--config", "{simsweep}"],
    "network": ["network", "{market}"],
    "segment": ["segment", "{market}", "--compare", "--csv", "{csv}"],
    "gcurve": ["gcurve", "--lo", "0.6", "--hi", "0.7", "--step", "0.01"],
    "adversary-demo": ["adversary-demo", "--growth", "4", "--horizon", "8"],
}

GOLDEN = {
    "adversary-demo": "5077c3e3630a88f61f5b24238c205cc44fb74385074deda516a62c2e86b19da0",
    "equilibrium": "aae1ff9ce14dd1476d5c6ebd94df1d81420d569173db260f83e68cb186bfae52",
    "equilibrium-perishable": "9ea668743c5f7da05c3a349b651bdcc3cef08ff6df5829f53aef1c89880d6974",
    "gcurve": "fca118b8f1a58996e5fae83e4cf3a2b417924b1d312393c1622a92ee20a6a0ce",
    "network": "6f995ef6e8906e29b30cc3cac9afcb522c0f02c9b2f0b298a8569318dcdbbadc",
    "opt-5": "35dc6905c484558f502695976cc2b1dc5681ca3ca11135541788529dc7c575c5",
    "opt-5-fixed-rev": "6f2417d9e40a60c88183babf3c5960141d4e88750e4eb962e82a890bf7233b43",
    "opt-7": "5df104dfb4ac13a4c89d15f1d0beec64557960b65b8cd946e5739bfc2f51a13d",
    "opt-7-fixed-rev": "33da207b489225a0619c184cc0eb286737e49e4c157e725837347f9c1f95b1f6",
    "segment": "c124ff78d9ceeda0e547c6df70751a55a6f053c0d728d67217e8a3de717d53c3",
    "segment-csv": "f8e0eaa75fd616797519a41c24a888dfdb13c5c5e4c1ef8f9091aaf8db01636c",
    "simulate": "f52685e178dd556cfb9ea221120665a4f00f9c9ec1a2b3c3c6871263dcea5264",
    "simulate-7": "50dd2b44e1c8804922d9099f47f529a716213387a52c6a87aa53157fdb0e35a1",
    "simulate-sweep": "63a7ec5587e18d89b1e2f40a76d4c7c7df4ce95be5ba447d92e48f6c0c6c5026",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_case(name: str, tmp_path) -> dict[str, str]:
    """Run one case; digest of its --out bytes (and of its CSV, if any)."""
    inputs = {"cat3": CATALOG_3, "cat5": CATALOG_5, "cat7": CATALOG_7,
              "sim": SIMULATE, "sim7": SIMULATE_7, "simsweep": SIMULATE_SWEEP, "market": MARKET}
    paths = {}
    for key, doc in inputs.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    out, csv = tmp_path / f"{name}.out", tmp_path / f"{name}.csv"
    fields = {**{k: str(v) for k, v in paths.items()}, "csv": str(csv)}
    argv = [arg.format(**fields) for arg in CASES[name]] + ["--out", str(out)]
    assert main(argv) == 0
    digests = {name: _sha256(out)}
    if csv.exists():
        digests[f"{name}-csv"] = _sha256(csv)
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name, tmp_path):
    digests = _run_case(name, tmp_path)
    assert digests == {key: GOLDEN[key] for key in digests}
