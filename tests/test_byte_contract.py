"""The byte-for-byte reproducibility contract, pinned across versions.

Each case runs one CLI command and compares the sha256 of its ``--out`` file
with a hash recorded before the dynamics loop was split into the recurrence
and a blocked derivation pass, so a change that moves any bit of a trace or
an experiment CSV fails here.  The hashes were recorded with numpy 2.4.6 and
its bundled OpenBLAS; another numpy or BLAS build may round differently, and
a mismatch there says the outputs differ from that build's, not that the
code is wrong.
"""

import hashlib
import json
from pathlib import Path

import pytest

from consensusgame.cli import main as cli_main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# n = 9, all Nash: the game both experiments run in the rational benchmark
RATIONAL_GAME = {
    "n": 9,
    "theta": 0.5,
    "horizon": 200,
    "seed": 1,
    "influence": "random_primitive",
    "initial_opinions": "random_supermodular",
}
RATIONAL = {
    "efficiency": {"kind": "efficiency", "p_o": 1.0, **RATIONAL_GAME},
    "po-sweep": {"kind": "po-sweep", "po_values": [0.1, 1.0, 10.0, 100.0], **RATIONAL_GAME},
}

CASES = {  # command, shipped scenario or scenario document, sha256 of --out
    "simulate gamma05": (
        "simulate",
        "two_player_learning_gamma05.json",
        "0989deef96c20ca7d7521ca59aa36f571a9a8eb68ab041c592d697ec4a28ddcf",
    ),
    "simulate gamma08": (
        "simulate",
        "two_player_learning_gamma08.json",
        "fc31827c25d979081fb963ed153a9fcd2b78c10b3249760fe4f93773e5781909",
    ),
    "exp-efficiency demo": (
        "exp-efficiency",
        "efficiency_demo.json",
        "e0fcbe4190db54ccee748c6868c5ec711a36a9967dfbd32f8ec7a76d594d1893",
    ),
    "exp-po-sweep demo": (
        "exp-po-sweep",
        "po_sweep_demo.json",
        "f79940a0864517f014ea6653353260a84313ed3724cea22f5cc3e12ca45c24bc",
    ),
    "exp-efficiency n=9": (
        "exp-efficiency",
        RATIONAL["efficiency"],
        "26a58f91497587c968bc3053880139a7adb0a137fe5abcff7b87a0687aca1f20",
    ),
    "exp-po-sweep n=9": (
        "exp-po-sweep",
        RATIONAL["po-sweep"],
        "a1e973a62b98d7c622b6ff83149d4f67a0c30f03f01290067b462c2de3ab83fb",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_out_file_matches_the_recorded_hash(case, tmp_path):
    command, scenario, digest = CASES[case]
    if isinstance(scenario, dict):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
    else:
        path = SCENARIOS / scenario
    out = tmp_path / "out.csv"
    assert cli_main([command, str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
