"""The runtime is stdlib-only: importing lolab pulls in nothing else."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import lolab


def test_every_module_imports_only_the_standard_library():
    package = Path(lolab.__file__).resolve().parent
    names = sorted(
        "lolab" if path.stem == "__init__" else f"lolab.{path.stem}"
        for path in package.glob("*.py")
    )
    script = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))\n"
    )
    # -S skips site, so nothing outside the standard library is importable
    # but lolab itself, which PYTHONPATH points at
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(package.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    new = proc.stdout.split()
    assert "lolab" in new
    assert [m for m in new if m != "lolab" and m not in sys.stdlib_module_names] == []
