"""Rules of the package's shape, read from its source with ``ast`` and
checked by importing each module in a fresh interpreter.

It runs on the standard library plus numpy, numpy stays at the edges, each
module loads only what it imports, only ``wire`` orders seqs, and no module
imports a name it never uses.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import nbpk

NUMPY_MODULES = {"inertial", "recorder"}

#: Every numpy-free module and the ``nbpk`` modules that importing it loads.
NUMPY_FREE_CLOSURES = {
    "wire": {"wire"},
    "fragment": {"fragment", "wire"},
    "channel": {"channel", "wire"},
    "robotsim": {"robotsim", "channel", "fragment", "wire"},
    "bridge": {"bridge", "channel", "fragment", "wire"},
    "bench": {"bench", "bridge", "channel", "fragment", "robotsim", "wire"},
}


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


@pytest.mark.parametrize("module", sorted(NUMPY_FREE_CLOSURES))
def test_module_loads_only_its_closure(module):
    """The robot and bridge sides import without numpy, and loading a module
    does not drag in the rest of the package."""
    code = (
        "import importlib, json, sys\n"
        f"sys.path.insert(0, {str(Path(nbpk.__file__).parent.parent)!r})\n"
        f"importlib.import_module('nbpk.{module}')\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    loaded = json.loads(out)
    assert {name[len("nbpk."):] for name in loaded if name.startswith("nbpk.")} \
        == NUMPY_FREE_CLOSURES[module]
    assert "numpy" not in loaded


ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_seq(node: ast.expr) -> bool:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name == "seq" or name.endswith("_seq")


def _is_constant(node: ast.expr) -> bool:
    return all(isinstance(n, (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop))
               for n in ast.walk(node))


def test_only_wire_orders_seqs():
    """Whether a seq is newer is ``wire.SeqOrder``'s decision (RFC 1982 order
    with a restart window), so no other module compares a seq with <, <=, >
    or >=. Checking a seq against constant bounds is validation, not order."""
    offenders = []
    for path in sorted(Path(nbpk.__file__).parent.glob("*.py")):
        if path.stem == "wire":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if (isinstance(op, ORDERING) and (_is_seq(left) or _is_seq(right))
                        and not (_is_constant(left) or _is_constant(right))):
                    offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert offenders == []


REPO = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.parent.name}/{path.name}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    """No module of the package, the tests or the demos imports a name it never
    reads (pyflakes' F401, without pyflakes). A name read only inside a string
    annotation counts as unused."""
    paths = [*Path(nbpk.__file__).parent.glob("*.py"), *(REPO / "tests").glob("*.py"),
             *(REPO / "demos").glob("*.py")]
    assert len(paths) > 20
    assert [hit for path in sorted(paths) for hit in _unused_imports(path)] == []
