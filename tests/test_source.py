"""Checks on the source text of `src/atugv`, made with `ast` since no linter
is a test dependency."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "atugv"


def test_no_unused_top_level_import():
    # A module-level import that its module never reads is dead code. Only a
    # line marked `# noqa: F401` is exempt: the two re-imports that
    # bench/tracing.py wraps from outside.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
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
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []
