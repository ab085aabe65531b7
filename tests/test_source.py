"""Checks on the source text of `src/atugv` and `tests`, made with `ast`
since no linter is a test dependency."""
import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "atugv"


def test_no_unused_top_level_import():
    # A module-level import that its module never reads is dead code. Only a
    # line marked `# noqa: F401` is exempt: the two re-imports that
    # bench/tracing.py wraps from outside.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert unused == []


def test_every_top_level_definition_has_a_reader():
    # A top-level function or class that nothing in the package reads is
    # dead code. A read is a loaded name, an attribute or a relative
    # `from ... import`. The names that bench/tracing.py wraps from outside
    # (its `WRAPPED` table) are exempt.
    table = next(
        node.value
        for node in ast.parse((ROOT / "bench" / "tracing.py").read_text()).body
        if isinstance(node, ast.Assign) and [target.id for target in node.targets] == ["WRAPPED"]
    )
    wrapped = {ast.literal_eval(row.elts[1]) for row in table.elts}
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level > 0:
                read.update(alias.name for alias in node.names)
    unread = [
        f"{name}:{node.lineno}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read | wrapped
    ]
    assert unread == []
