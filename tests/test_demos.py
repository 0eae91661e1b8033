"""Every demo script runs to completion against the library and prints
exactly what it printed when its digest was taken."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout.  Two runs of each demo gave equal digests;
# a change to any printed specification, count, tree or sample shows here.
# Demo 05's was recaptured when an exact draw became the decode of one
# rank, after the rank bijection, chi-square and reference tests passed:
# its exact draws differ, and so do the size-randomized draws after them,
# which share the seeded state.
STDOUT_SHA256 = {
    "01_patterns_and_trees.py":
        "3e5c401250a630f4e9a596bbd8f849683b69db72a58c3c591bd092b5b871c212",
    "02_simple_permutations.py":
        "2e962d1cd4ac2fdafa85cc9039c814736f9dfdc194eaccd9ea2dc9af4d835e56",
    "03_building_a_specification.py":
        "82bbd14e4d4ed9a5e6e4e14ad005b9925c002592fdb089e065ff2ec763775eb5",
    "04_counting_and_series.py":
        "b0ee0bdd8d538f0de011a37b08bae563df453bc91102fb5bcf31eb7afbd37670",
    "05_random_sampling.py":
        "285b9594e014154e5cbe8c122d557dff060149a6548213a0b7e28531f2b83f6d",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo.name], done.stdout
