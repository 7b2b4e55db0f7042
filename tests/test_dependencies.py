"""The runtime dependency stays numpy only: every absolute import in the
package names a standard-library module or numpy.  The modules are parsed,
not imported, so a stray import of a locally installed package still fails."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liftchroma"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    offending = [
        f"{path.name}: {name}"
        for path in modules
        for name in _absolute_imports(path)
        if name.split(".")[0] not in ALLOWED
    ]
    assert offending == []
