"""The benchmark's traced pass installs against the package as it is.

``perfbench/tracer.py`` rebinds names in the permspec modules and reads
the ``perms`` caches, so a renamed or removed name breaks every traced
benchmark pass with an ``AttributeError``; this runs it in a subprocess.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
import tracer
from permspec import perms
from permspec.cli import main
t = tracer.Tracer()
tracer.install(t)
assert main(["check", "--basis", sys.argv[1], "--max-size", "5"]) == 0
t.harvest([getattr(perms, name) for name in tracer.PERMS_CACHES])
layer = tracer.per_layer(t.dump(), 0.0)
assert layer["checks.count_violations.s"] > 0, layer
json.dumps(layer)
"""


def test_tracer_installs_and_traces_a_check(tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text("1 3 2\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(basis)],
                          env=env, capture_output=True, text=True, timeout=120,
                          check=False)
    assert done.returncode == 0, done.stderr
