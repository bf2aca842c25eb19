"""Each acx4 module uses only the public names of its siblings."""

import ast
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import acx4

SRC = Path(acx4.__file__).parent
SIBLINGS = {p.stem for p in SRC.glob("*.py")}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _sibling(module, level):
    """The sibling module named by an import, or None for any other."""
    if level == 1:
        return module or "."
    if level == 0 and module and module.startswith("acx4"):
        return module.removeprefix("acx4").lstrip(".") or "."
    return None


def private_uses(path):
    """(line, text) for each private name of a sibling the file reaches."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = set()  # local names bound to a sibling module object
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = _sibling(node.module, node.level)
            if mod is None:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, f"from {mod} import {alias.name}"))
                elif mod == "." and alias.name in SIBLINGS:
                    bound.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in bound):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_reaches_a_siblings_private_names():
    found = {p.name: private_uses(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_the_check_sees_both_patterns(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import lattice\n"
                    "from .serialize import FORMAT_LOG, _enc_vec\n"
                    "from acx4.cli import _parser\n"
                    "x = lattice._private(1) + lattice.det2(2)\n"
                    "y = self._own + lattice.__name__\n")
    assert private_uses(path) == [
        (2, "from serialize import _enc_vec"),
        (3, "from cli import _parser"),
        (4, "lattice._private"),
    ]


def test_all_lists_the_api_without_submodules():
    assert [n for n in acx4.__all__ if isinstance(getattr(acx4, n), ModuleType)] == []


def test_the_cli_import_leaves_fractions_and_decimal_out():
    # only realize_chern needs Fraction, and it imports it where it runs
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import acx4.cli; "
            "print(sorted({'fractions', 'decimal'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "[]\n"
