"""Apply each mutant of tests/mutant_table.py to a temporary copy of the
repository and run the tests its row names; pytest does not collect this file.

    python tests/run_mutants.py

The listed tests first run once on an unmutated copy, where they must pass.
Then each mutant prints "killed", "SURVIVED" or, for a row recorded as
equivalent, "equivalent". The exit status is 0 exactly when every row that
is not recorded as equivalent is killed and every equivalent row survives.
Uses the standard library and pytest only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutant_table import MUTANTS  # noqa: E402


def _copy_repo(dest: Path) -> None:
    """src/, tests/ and pyproject.toml of the repository, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(copy: Path, tests) -> int:
    """pytest's exit status on the given test ids in copy: 0 all passed,
    1 some failed, anything else an error of the run itself."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _mutate(copy: Path, mutant) -> None:
    path = copy / "src" / "cvsep" / mutant.module
    text = path.read_text()
    if text.count(mutant.fragment) != 1:
        raise SystemExit(f"{mutant.name}: fragment does not occur exactly once in {mutant.module}")
    path.write_text(text.replace(mutant.fragment, mutant.replacement))


def main() -> int:
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="cvsep-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_repo(clean)
        status = _run_tests(clean, tests)
        if status != 0:
            print(f"the listed tests do not pass unmutated (pytest exit {status})")
            return 1
    failures = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="cvsep-mutant-") as tmp:
            copy = Path(tmp)
            _copy_repo(copy)
            _mutate(copy, mutant)
            status = _run_tests(copy, mutant.tests)
        seconds = time.perf_counter() - start
        if status not in (0, 1):
            result, ok = f"ERROR (pytest exit {status})", False
        elif mutant.equivalent is not None:
            result, ok = ("equivalent" if status == 0 else "KILLED, though recorded as equivalent",
                          status == 0)
        else:
            result, ok = ("killed" if status == 1 else "SURVIVED"), status == 1
        failures += not ok
        print(f"{result:<10} {mutant.name} ({seconds:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
