"""The byte-for-byte reproducibility contract, pinned across versions.

Each case runs one CLI command and compares the sha256 of its ``--out`` file
with a recorded hash, so a change that moves any bit of a trace or an
experiment CSV fails here.  OpenBLAS picks its kernel for the CPU it runs
on, and its kernels round differently, so each command runs in a
subprocess pinned to one kernel (OPENBLAS_CORETYPE=Haswell) and one thread.
The hashes were recorded that way with numpy 2.4.6 and its bundled
OpenBLAS 0.3.31.  They hold on any x86-64 CPU with AVX2, whatever kernel it
would pick itself; not on ARM, where the pin does not apply, nor with
another numpy or BLAS build.  A mismatch there says the outputs differ from
that build's, not that the code is wrong.

To reproduce a recorded hash by hand, run the case's command under the pin
from the repository root and hash its ``--out`` file:

    OPENBLAS_CORETYPE=Haswell OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \
        python -m consensusgame.cli simulate scenarios/two_player_learning_gamma05.json --out out.csv
    sha256sum out.csv

A case whose scenario is a document below (``TRACE``, ``RATIONAL[...]``)
first writes it out as JSON, then passes that file instead:

    PYTHONPATH=src:tests python -c \
        "import json, test_byte_contract as b; print(json.dumps(b.TRACE))" > trace.json
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import consensusgame

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# the directory the package is imported from, for the subprocess to import it too
SOURCE = str(Path(consensusgame.__file__).resolve().parent.parent)
PINNED_BLAS = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}

# n = 9, all Nash: the game both experiments run in the rational benchmark
RATIONAL_GAME = {
    "n": 9,
    "theta": 0.5,
    "horizon": 200,
    "seed": 1,
    "influence": "random_primitive",
    "initial_opinions": "random_supermodular",
}
# n = 6, all R-learning: the document the trace benchmark simulates
TRACE = {
    "kind": "simulate",
    "n": 6,
    "theta": 0.1,
    "horizon": 100,
    "seed": 1,
    "influence": "random_primitive",
    "initial_opinions": "random_supermodular",
    "players": [
        {
            "kind": "rlearning",
            "risk_aversion": 1000.0,
            "exploit_prob": 0.5,
            "explore_std": 1e-4,
            "explore_decay": 0.99,
        }
    ]
    * 6,
}
RATIONAL = {
    "efficiency": {"kind": "efficiency", "p_o": 1.0, **RATIONAL_GAME},
    "po-sweep": {"kind": "po-sweep", "po_values": [0.1, 1.0, 10.0, 100.0], **RATIONAL_GAME},
}

CASES = {  # command, shipped scenario or scenario document, sha256 of --out under PINNED_BLAS
    "simulate gamma05": (
        "simulate",
        "two_player_learning_gamma05.json",
        "c75a567f1061d9427f9a5995f8fee676f02f4fdb472e3ff5fef675cf23a4b2f5",
    ),
    "simulate gamma08": (
        "simulate",
        "two_player_learning_gamma08.json",
        "6d46fc075c7be5255f4bdab55430db56a23505bf804b0e9ad81fd769cfe7cb8a",
    ),
    "exp-efficiency demo": (
        "exp-efficiency",
        "efficiency_demo.json",
        "24926cd8fe78c1ded9b028ec1734e5a7b80d7b24a343e25fffd88e208ea54c83",
    ),
    "exp-po-sweep demo": (
        "exp-po-sweep",
        "po_sweep_demo.json",
        "ac0296ccd26a99efbf4b1a30735cf3e1db6d53254ec4d27a1d194c2de95338e2",
    ),
    "simulate trace n=6": (
        "simulate",
        TRACE,
        "20b8468852fbd2fc155d91f08cabf0c46f66a15a032330ef11db055ad3595612",
    ),
    "exp-efficiency n=9": (
        "exp-efficiency",
        RATIONAL["efficiency"],
        "4c42f67b3c848591b71039c42e32396a33e28e9b2e3128488a88ec6e101949bb",
    ),
    "exp-po-sweep n=9": (
        "exp-po-sweep",
        RATIONAL["po-sweep"],
        "a1eb7a064cd0320d86f073f908bc4d7cf866dfe50db5ddbad84f6b489ca429f8",
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
    pythonpath = os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **PINNED_BLAS, "PYTHONPATH": pythonpath}
    run = subprocess.run(
        [sys.executable, "-m", "consensusgame.cli", command, str(path), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
