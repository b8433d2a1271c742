"""Local mirror of the CI lint gate.

CI installs ruff and mypy and runs them over the grammar/checker
modules (see ``.github/workflows/ci.yml``); these tests run the same
commands when the tools are available locally and skip otherwise, so a
dev box with the linters installed catches gate failures before push.
CI's tree-wide unused-import check (``ruff check --select F401 src/``)
also has an always-on mirror here, an AST scan that needs no linter.
The target lists are written twice, here and in ``ci.yml``; an
always-on test keeps the two copies equal and every listed path real.
"""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

RUFF_TARGETS = [
    "src/repro/core/cfl.py",
    "src/repro/core/context.py",
    "src/repro/core/engine.py",
    "src/repro/core/grammar.py",
    "src/repro/core/conformance.py",
    "src/repro/core/matrix.py",
    "src/repro/core/rules.py",
    "src/repro/core/tracing.py",
    "src/repro/core/snapshot.py",
    "src/repro/core/incremental.py",
    "src/repro/core/jumpmap.py",
    "src/repro/core/scheduling.py",
    "src/repro/ir/parser.py",
    "src/repro/pag/graph.py",
    "src/repro/pag/build.py",
    "src/repro/analyses/taint.py",
    "src/repro/analyses/escape.py",
    "src/repro/runtime/matrix.py",
    "src/repro/runtime/mp.py",
    "src/repro/runtime/executor.py",
    "src/repro/runtime/config.py",
    "src/repro/runtime/simclock.py",
    "src/repro/runtime/threaded.py",
    "src/repro/api.py",
    "src/repro/serve.py",
]

MYPY_STRICT_TARGETS = [
    "src/repro/core/cfl.py",
    "src/repro/core/context.py",
    "src/repro/core/matrix.py",
    "src/repro/core/rules.py",
    "src/repro/core/tracing.py",
    "src/repro/core/snapshot.py",
    "src/repro/core/incremental.py",
    "src/repro/analyses/taint.py",
    "src/repro/analyses/escape.py",
    "src/repro/runtime/matrix.py",
]


CI = REPO / ".github" / "workflows" / "ci.yml"


def ci_step_paths(name):
    """The ``src/`` paths on the command of ``ci.yml``'s step ``name``:
    the step's lines up to the next line indented no deeper than its
    ``- name:`` line."""
    lines = CI.read_text().splitlines()
    start = next(
        i for i, line in enumerate(lines) if line.strip() == f"- name: {name}"
    )
    indent = len(lines[start]) - len(lines[start].lstrip())
    paths = []
    for line in lines[start + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        paths.extend(word for word in line.split() if word.startswith("src/"))
    return paths


@pytest.mark.parametrize("step, targets", [
    ("ruff (new modules)", RUFF_TARGETS),
    ("mypy --strict (new modules)", MYPY_STRICT_TARGETS),
])
def test_ci_target_lists_match_and_exist(step, targets):
    assert ci_step_paths(step) == targets
    assert [t for t in targets if not (REPO / t).is_file()] == []


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


def _string_annotation_names(tree):
    """Names referenced from quoted annotations (``x: "Recorder"``)."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if arg is not None and arg.annotation is not None:
                    roots.append(arg.annotation)
            if node.returns is not None:
                roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    names = set()
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expr = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def unused_imports(source):
    """``(line, name)`` for each module-level import (``if``/``try``
    bodies included) whose bound name the module never reads.  Names in
    ``__all__`` and ``import x as x`` re-exports count as read."""
    tree = ast.parse(source)
    bound = {}

    def scan(body):
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.asname is not None and alias.asname == alias.name:
                        continue
                    name = alias.asname or alias.name.split(".")[0]
                    bound.setdefault(name, node.lineno)
            elif isinstance(node, (ast.If, ast.Try)):
                scan(node.body)
                scan(node.orelse)
                for handler in getattr(node, "handlers", ()):
                    scan(handler.body)
                scan(getattr(node, "finalbody", ()))

    scan(tree.body)
    read = {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    read |= _string_annotation_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_scan_sees_what_it_should():
    src = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Dict, List\n"
        "from x import y as y\n"
        "try:\n    import json\nexcept ImportError:\n    import zlib\n"
        "if sys:\n    from a import Rec\n"
        "__all__ = ['Dict']\n"
        "def f(r: 'Rec') -> None:\n    json.dumps(r)\n"
    )
    assert unused_imports(src) == [(2, "os"), (3, "List"), (8, "zlib")]


def test_no_unused_imports_in_src():
    found = [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for path in sorted((REPO / "src").rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
