"""Every ``REPRO_*`` environment knob the package reads is documented.

The inventory comes from the source of ``src/repro``: every string
literal that is exactly a ``REPRO_*`` name, outside docstrings, plus the
``REPRO_NATIVE_<COMPONENT>`` family built by f-string from each native
component's ``COMPONENT`` name.  README.md must document each of them,
and no ``REPRO_*`` name the package no longer reads.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
NAME = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")
#: Set by a queue worker for the cell it runs and read back by fault
#: injection in the same process: not a user-facing knob.
INTERNAL = {"REPRO_CELL_ATTEMPT"}


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)):
                yield body[0].value


def knobs_read():
    names, prefixes, components = set(), set(), set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = {id(node) for node in _docstrings(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                head = node.values[0]
                if (isinstance(head, ast.Constant)
                        and re.fullmatch(r"REPRO_[A-Z0-9_]*_", str(head.value))):
                    prefixes.add(head.value)
                    skip.add(id(head))
            elif (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "COMPONENT"
                            for t in node.targets)
                    and isinstance(node.value, ast.Constant)):
                components.add(node.value.value)
            elif (isinstance(node, ast.Constant) and id(node) not in skip
                    and isinstance(node.value, str)
                    and NAME.fullmatch(node.value)):
                names.add(node.value)
    assert prefixes <= {"REPRO_NATIVE_"}, f"unknown knob family {prefixes}"
    assert components, "no native COMPONENT found for REPRO_NATIVE_<COMPONENT>"
    names |= {p + c.upper() for p in prefixes for c in components}
    return names


def knobs_documented():
    return set(NAME.findall((ROOT / "README.md").read_text()))


def test_inventory_finds_the_known_knobs():
    read = knobs_read()
    assert {"REPRO_SCALE", "REPRO_NATIVE", "REPRO_NATIVE_SOLVER",
            "REPRO_PREP_STORE", "REPRO_FAULT_KILL_RATE"} <= read


def test_every_knob_read_is_documented():
    missing = knobs_read() - INTERNAL - knobs_documented()
    assert not missing, f"README.md does not document {sorted(missing)}"


def test_readme_documents_no_dead_knob():
    dead = knobs_documented() - knobs_read()
    assert not dead, f"README.md documents unread knobs {sorted(dead)}"
