"""The closed-form layer stands alone.

``modes``, ``states`` and ``observables`` hold the paper's formulas and
nothing else: they import nothing from the oracle or the CLI, and none of
their functions takes a fault-injection switch.  The validation suite's
negative control lives in the oracle, which alone knows how it breaks a
state.  The sources are parsed, not imported.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

CLOSED_FORM = ("modes", "states", "observables")

# Parameter names of a test hook, such as a flip_b_sign switch.
FAULT_HOOK = re.compile(r"flip|fault|inject|perturb|corrupt|negative", re.IGNORECASE)


def _tree(module: str) -> ast.Module:
    path = Path(importlib.import_module(f"ckstates.{module}").__file__)
    return ast.parse(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", CLOSED_FORM)
def test_closed_forms_import_no_oracle_or_cli(module):
    imported = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported += [base] + [f"{base}.{alias.name}" for alias in node.names]
    assert [name for name in imported if {"oracle", "cli"} & set(name.split("."))] == []


@pytest.mark.parametrize("module", CLOSED_FORM)
def test_closed_forms_take_no_fault_injection_parameter(module):
    hooks = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
            names += [arg.arg for arg in (a.vararg, a.kwarg) if arg is not None]
            hooks += [
                f"{getattr(node, 'name', 'lambda')}({name})"
                for name in names
                if FAULT_HOOK.search(name)
            ]
    assert hooks == []
