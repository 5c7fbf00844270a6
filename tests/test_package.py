"""The package namespace: one list of public names, one place that derives
seeded streams, and no numpy.random loaded on import."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import consensusgame


def test_all_lists_exactly_the_public_names_bound_in_the_package():
    bound = {
        name
        for name, obj in vars(consensusgame).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert len(consensusgame.__all__) == len(set(consensusgame.__all__))
    assert set(consensusgame.__all__) == bound
    for name in consensusgame.__all__:
        getattr(consensusgame, name)


def test_seeded_streams_come_from_one_place():
    # every list-seeded stream is derived by setfn.keyed_generators; the
    # dynamics' generator, seeded by the bare scenario seed, is the one
    # default_rng call left in the package
    calls = [
        (path.name, ast.unparse(node))
        for path in sorted(Path(consensusgame.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "default_rng"
    ]
    assert calls == [("harness.py", "np.random.default_rng(scenario.seed)")]


def test_importing_the_package_leaves_numpy_random_unloaded():
    # commands that draw nothing do not pay for loading numpy.random
    code = "import sys, consensusgame; print('numpy.random' in sys.modules)"
    src = str(Path(consensusgame.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.stdout == "False\n", result.stderr
