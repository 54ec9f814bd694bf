"""Rules of the package's shape, read from its source with ``ast``.

It runs on the standard library plus numpy, numpy stays at the edges, and
only ``wire`` orders seqs.
"""

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
