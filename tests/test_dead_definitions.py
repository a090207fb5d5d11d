"""Every module-level function and class of the package has a use.

A definition is alive when the package refers to it by name (a load of
the name, or an attribute of that name), when its module lists it in
``__all__``, or when ``perfbench/spans.py``'s ``TRACED`` table names it;
that table is read the way ``test_tracer_names.py`` reads it, without
importing ``perfbench``.  The sources are parsed, not imported, so a
helper that a refactor leaves behind fails here rather than lingering.
"""

import ast
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ckstates"
SPANS = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))


def _module_all(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_module_level_definition_is_used():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    traced = {attr for _, attr, _, _ in SPANS["TRACED"]}
    unused = [
        f"{module}.{node.name}"
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in referenced | _module_all(tree) | traced
    ]
    assert unused == []
