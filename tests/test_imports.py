import os
import subprocess
import sys
from pathlib import Path

import cvsep

#: Counts numpy.linalg calls made while importing the package and its CLI.
_PROBE = """
import numpy.linalg as la

calls = []


def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


for name in la.__all__:
    fn = getattr(la, name)
    if callable(fn) and not isinstance(fn, type):
        setattr(la, name, counting(name, fn))

import cvsep, cvsep.cli

print(calls)
"""


def test_importing_the_package_and_cli_makes_no_linalg_call():
    # Import-time work is paid by every process; an eigensolve there costs
    # about 1.4 MB of peak resident memory as well as time.
    src = Path(cvsep.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[]\n"
    assert proc.stderr == ""
