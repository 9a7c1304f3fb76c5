"""tools/fingerprint.py, the output fingerprint behind bit-identical claims."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
SECTIONS = ["evaluate", "zeta_em", "scan500", "line_scan", "approx", "grids", "repair", "total"]


def _tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fast_fingerprint_repeats_in_two_processes():
    # no hash is pinned, as a pinned hash would block intended changes:
    # two fresh processes print one SHA-256 per section and one in total,
    # and the same ones
    runs = [
        subprocess.Popen([sys.executable, str(TOOL), "--fast"], stdout=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outs[0] == outs[1]
    lines = [line.split() for line in outs[0].splitlines()]
    assert [name for name, _ in lines] == SECTIONS
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for _, digest in lines)


def test_hash_tells_apart_what_prints_alike():
    # every value is tagged: a split string, a float's sign of zero, an
    # array's dtype or shape and a raised error change the hash, while a
    # numpy scalar hashes as the Python number of the same value
    feed = _tool()._feed

    def digest(x):
        h = hashlib.sha256()
        feed(h, x)
        return h.hexdigest()

    pairs = [
        (("ab", "c"), ("a", "bc")),
        (0.0, -0.0),
        (1, 1.0),
        (np.zeros(2), np.zeros(2, dtype=np.float32)),
        (np.zeros(2), np.zeros((1, 2))),
        ([1.5], 1.5),
        ({"a": 1}, [["a", 1]]),
    ]
    for a, b in pairs:
        assert digest(a) != digest(b)
    assert digest(np.float64(1.5)) == digest(1.5) and digest(np.int64(3)) == digest(3)
    assert digest({"b": 2, "a": 1}) == digest({"a": 1, "b": 2})
