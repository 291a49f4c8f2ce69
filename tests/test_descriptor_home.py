"""A frame's SignalDescriptor is built in one place, SignalClass.descriptor
in registry.py: no other sigforge module calls SignalDescriptor(...), so
what a class reports cannot differ between its generators."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sigforge"


def _descriptor_calls(source: str) -> list[int]:
    """Line of each call of SignalDescriptor in source, by bare or dotted name."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == "SignalDescriptor"
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "SignalDescriptor")]


@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name != "registry.py"], ids=lambda path: path.name)
def test_no_module_but_the_registry_builds_a_descriptor(path):
    assert _descriptor_calls(path.read_text(encoding="utf-8")) == []


def test_the_registry_builds_it():
    assert _descriptor_calls((PACKAGE / "registry.py").read_text(encoding="utf-8")) != []


def test_the_check_finds_bare_and_dotted_calls_only():
    source = ("from sigforge import registry\n"
              "a = SignalDescriptor(0, 'ook', 'pam', 2.0)\n"
              "b = registry.SignalDescriptor(1, 'bpsk', 'psk', 2.0)\n"
              "kind = SignalDescriptor\n"
              "# SignalDescriptor(2, '4pam', 'pam', 2.0)\n")
    assert _descriptor_calls(source) == [2, 3]
