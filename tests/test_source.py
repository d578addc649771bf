import ast
from pathlib import Path

import torsioncosets


def test_library_has_no_assert_statements():
    # internal invariants raise explicit exceptions, so they still hold
    # under `python -O`, which strips assert statements
    found = []
    for path in sorted(Path(torsioncosets.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_oracle_imports_nothing_from_the_library_but_arith():
    # the oracle is the independent completeness reference: it must not
    # share code with the solver it checks
    path = Path(torsioncosets.__file__).parent / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module != "arith":
                found.append(f"{node.lineno}: {'.' * node.level}"
                             f"{node.module or ''}")
            elif not node.level and (node.module or "").startswith(
                    "torsioncosets") and node.module != "torsioncosets.arith":
                found.append(f"{node.lineno}: {node.module}")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: {alias.name}" for alias in node.names
                      if alias.name.startswith("torsioncosets")
                      and alias.name != "torsioncosets.arith"]
    assert found == []
