"""Modules share only public names: no sigforge module imports a
_-prefixed name from another, so a private helper can change with only
its own module to read."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sigforge"


def _private_imports(source: str) -> list[str]:
    """'line: statement' for each import in source of a _-prefixed name
    or module of sigforge. The imported name counts, not its alias."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "sigforge":
                found += [(node.lineno, f"from {module} import {alias.name}",
                           f"{module}.{alias.name}") for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}", alias.name)
                      for alias in node.names if alias.name.split(".")[0] == "sigforge"]
    return [f"{line}: {statement}" for line, statement, name in found
            if any(part.startswith("_") for part in name.split(".")[1:])]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert _private_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_private_names_and_ignores_private_aliases():
    source = ("from __future__ import annotations\n"
              "from sigforge.dataset import DatasetConfig, _pread_exact\n"
              "from sigforge.measurement import spectrogram as _spectrogram\n"
              "from . import _hidden\n"
              "import sigforge._impl\n"
              "from os import _exit\n")
    assert _private_imports(source) == [
        "2: from sigforge.dataset import _pread_exact", "4: from . import _hidden",
        "5: import sigforge._impl"]
