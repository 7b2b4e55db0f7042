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


# Public names with no caller in the package or the benchmark that stay on
# purpose: each backs an acceptance criterion or states a paper formula.
TEST_ONLY_ALLOWED = {
    "gamma_b_component",  # criterion 2: tau of K_{k,k} minus a matching
    "brute_force_walk_count",  # criterion 3: the c_j walk-count oracle
    "h_dk",  # criterion 5: det(-H|_V) = h(d, k)^{(k-1)^2}
    "B_spectrum_check",  # criterion 9: the spectrum of B
    "joint_ratio_estimate",  # criterion 1: E[Y Z_3]/E[Y] by enumeration
    "joint_moment_prediction",  # the limit lambda_j (1 + delta_j) of E[Y Z_j]/E[Y]
    "expected_Y_exact_extended",  # E[Y] under the quotas of n not divisible by k
}
BENCHMARK = PACKAGE.parents[1] / "perfbench" / "run.py"


def _references(nodes) -> set[str]:
    """Every identifier the nodes use: names, attributes, imported names and
    string constants (the benchmark names the functions it wraps in strings)."""
    out = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _public_definitions(tree: ast.Module):
    """(name, defining statement) for each public top-level def, class or
    assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def test_no_test_only_public_names():
    # a public name used by no other statement of its module, no other
    # package module, the benchmark or __all__ has only tests as callers,
    # and belongs next to them
    paths = [*sorted(PACKAGE.glob("*.py")), BENCHMARK]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    unused = []
    for path, tree in trees.items():
        if path == BENCHMARK:
            continue
        elsewhere = _references(t for p, t in trees.items() if p != path)
        for name, node in _public_definitions(tree):
            own = _references(other for other in tree.body if other is not node)
            if name not in own | elsewhere | TEST_ONLY_ALLOWED:
                unused.append(f"{path.stem}.{name}")
    assert not unused, "public names only tests use: " + ", ".join(unused)
