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


def _package_imports(tree):
    # (line, bound name) of every name imported from the package itself
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("torsioncosets")):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_package_imports_are_used():
    # a name imported from the package and never used is dead code left
    # behind by a refactor; __init__.py re-exports and is exempt
    found = []
    for path in sorted(Path(torsioncosets.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line}: {name}"
                  for line, name in _package_imports(tree) if name not in used]
    assert found == []


def test_public_names_resolve():
    missing = [name for name in torsioncosets.__all__
               if not hasattr(torsioncosets, name)]
    assert missing == []
    assert len(set(torsioncosets.__all__)) == len(torsioncosets.__all__)


def test_private_helpers_are_referenced():
    # a top-level private function or class that nothing in the package
    # names outside its own definition is dead code left by a refactor
    defs, bodies = [], []
    for path in sorted(Path(torsioncosets.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    names.add(sub.name)
            bodies.append((node, names))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_"):
                defs.append((f"{path.name}:{node.lineno}", node))
    found = [f"{where}: {node.name}" for where, node in defs
             if not any(node.name in names for other, names in bodies
                        if other is not node)]
    assert found == []
