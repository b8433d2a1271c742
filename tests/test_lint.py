"""Local mirror of the CI lint gate.

CI installs ruff and mypy and runs them over the grammar/checker
modules (see ``.github/workflows/ci.yml``); these tests run the same
commands when the tools are available locally and skip otherwise, so a
dev box with the linters installed catches gate failures before push.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

RUFF_TARGETS = [
    "src/repro/core/cfl.py",
    "src/repro/core/grammar.py",
    "src/repro/core/conformance.py",
    "src/repro/core/matrix.py",
    "src/repro/core/rules.py",
    "src/repro/core/tracing.py",
    "src/repro/core/snapshot.py",
    "src/repro/core/incremental.py",
    "src/repro/analyses/taint.py",
    "src/repro/analyses/escape.py",
    "src/repro/runtime/matrix.py",
    "src/repro/runtime/local.py",
    "src/repro/api.py",
    "src/repro/serve.py",
]

MYPY_STRICT_TARGETS = [
    "src/repro/core/cfl.py",
    "src/repro/core/matrix.py",
    "src/repro/core/rules.py",
    "src/repro/core/tracing.py",
    "src/repro/core/snapshot.py",
    "src/repro/core/incremental.py",
    "src/repro/analyses/taint.py",
    "src/repro/analyses/escape.py",
    "src/repro/runtime/matrix.py",
    "src/repro/runtime/local.py",
]


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_gate():
    proc = subprocess.run(
        ["ruff", "check", *RUFF_TARGETS],
        cwd=REPO, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_gate():
    proc = subprocess.run(
        ["mypy", "--strict", "--follow-imports=silent",
         *MYPY_STRICT_TARGETS],
        cwd=REPO, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_gated_modules_compile():
    # Always-on floor under the optional gates above.
    proc = subprocess.run(
        [sys.executable, "-m", "py_compile", *RUFF_TARGETS],
        cwd=REPO, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
