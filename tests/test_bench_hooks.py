"""The traced benchmark's hooks still name real code.

``benchmarks/layers/layers.py`` wraps a few hundred program names by
attribute (methods of ``Tracer``, ``CostModel``, ``VmCluster``, …, and
module functions in every namespace that imported them) for the traced
run, and its ``Recorder`` puts them back afterwards.  A renamed or
deleted name makes ``install`` raise; this test makes that a tier-1
failure rather than one only the benchmark's own smoke run sees.  The
install runs in a subprocess: the harness's ``trace.py`` shadows the
standard library module of that name, and the patches must not leak
into the test process.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import sys

sys.path[:0] = [{layers!r}, {src!r}]
import layers
from trace import Recorder

recorder = Recorder()
layers.install(recorder)
originals = {{}}
for owner, attr, original in recorder._restore:
    originals.setdefault((id(owner), attr), (owner, attr, original))
recorder.uninstall()
restored = sum(
    vars(owner)[attr] is original for owner, attr, original in originals.values()
)
print(len(originals), restored)
"""


def test_every_hooked_name_exists_and_is_restored():
    script = SCRIPT.format(
        layers=str(ROOT / "benchmarks" / "layers"), src=str(ROOT / "src")
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    patched, restored = map(int, done.stdout.split())
    assert patched > 100, "install() patched almost nothing"
    assert restored == patched
