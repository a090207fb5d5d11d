"""The names the benchmark tracer wraps must exist in the package.

``perfbench/spans.py`` replaces each ``(module, attribute)`` of its
``TRACED`` table with a timing wrapper; a missing name would crash a
traced benchmark run instead of failing here.  The file is read, not
imported, so nothing is written under ``perfbench/``.
"""

import importlib
import inspect
import runpy
from pathlib import Path

SPANS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))


def test_every_traced_name_exists():
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in SPANS["TRACED"]
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def test_cn_counter_reads_the_propagator_signature():
    oracle = importlib.import_module("ckstates.oracle")
    propagator = inspect.signature(oracle.crank_nicolson_evolve).parameters
    assert list(propagator) == list(inspect.signature(SPANS["_cn_counts"]).parameters)
