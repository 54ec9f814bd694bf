"""The package runs on the standard library plus numpy, and numpy stays at the edges."""

import ast
import sys
from pathlib import Path

import nbpk

NUMPY_MODULES = {"inertial", "recorder"}


def test_imports_are_stdlib_or_numpy():
    numpy_users = set()
    for path in sorted(Path(nbpk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top == "numpy":
                    numpy_users.add(path.stem)
                else:
                    assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
    assert numpy_users == NUMPY_MODULES
