"""The reference values on a lower numpy dispatch target than this CPU's.

numpy picks its SIMD loops at run time, and ``NPY_DISABLE_CPU_FEATURES`` turns
the dispatched ones off. The ``float.hex`` pins hold only on the target they
were recorded on; ``tests/test_reference_values.py`` must hold on any. So it
runs here in a child process with every dispatch target above the CPU's
baseline turned off, in the child's environment only. Targets that an inherited
``NPY_DISABLE_CPU_FEATURES`` already turns off stay off in the child.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import swarm_mimo_sim

umath = pytest.importorskip("numpy._core._multiarray_umath")

# prints the highest dispatch target the child runs on, then runs pytest
_CHILD = """
import sys
import pytest
from numpy._core import _multiarray_umath as umath
on = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
print("dispatch target:", on[-1] if on else umath.__cpu_baseline__[-1])
sys.exit(pytest.main(sys.argv[1:]))
"""


def test_reference_values_on_baseline_target():
    above = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not above:
        pytest.skip("numpy dispatches no loop above this CPU's baseline")
    root = Path(__file__).resolve().parents[1]
    src = Path(swarm_mimo_sim.__file__).resolve().parents[1]
    # numpy reads the list split on commas or white space
    inherited = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split()
    off = inherited + [t for t in above if t not in inherited]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off),
               PYTHONPATH=os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH"))
                                          if p))
    args = [sys.executable, "-c", _CHILD, "-q", "-p", "no:cacheprovider",
            str(root / "tests" / "test_reference_values.py")]
    proc = subprocess.run(args, cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"dispatch target: {umath.__cpu_baseline__[-1]}\n" in proc.stdout, proc.stdout
