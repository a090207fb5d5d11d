"""Spans around the package's public functions, recorded from outside.

The tracer replaces a function with a timing wrapper in the namespace of
each module that calls it (``ckstates.observables.mode_u_rphi``,
``ckstates.cli.uncertainty_product``, ...), so calls are caught where
they happen without touching the package.  A span's name is the layer
that defines the function; scipy entry points are named as the oracle
sees them (``oracle.simpson``, ``oracle.solve_banded``).

Self time is a span's duration minus the whole time spent in its direct
children's wrappers, from wrapper entry to the last bookkeeping step, so
a parent is not charged for its children's instrumentation.  Per-name aggregates (calls, total, self, and the point and step
counts read from the call's arguments) cover every call; the span log
itself keeps the first ``SPAN_CAP`` spans of a run, as
(index, name, start, end, parent, op), and is written out at the end.
"""

import functools
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# About 40 bytes of memory per span held.
SPAN_CAP = 200_000


def _grid_points(params, psi, grid, **kwargs):
    return {"points": grid.n_points}


def _cn_counts(params, psi0, grid, t0, t1, n_steps):
    # Computed, not measured: each step's banded solve reads the three
    # complex128 bands and the right-hand side and writes the solution.
    return {
        "points": grid.n_points,
        "steps": n_steps,
        "bytes_computed": 5 * 16 * grid.n_points * n_steps,
    }


def _sample_points(params, spec, t, q, **kwargs):
    return {"points": int(np.size(q))}


def _simpson_points(y, *args, **kwargs):
    return {"points": int(np.shape(y)[-1])}


# (caller module, attribute, span name, counter of the call's arguments).
# A function is wrapped in every module that calls it by a global name.
TRACED = (
    ("ckstates.oracle", "validate", "oracle.validate", None),
    ("ckstates.oracle", "crank_nicolson_evolve", "oracle.crank_nicolson_evolve", _cn_counts),
    ("ckstates.oracle", "solve_banded", "oracle.solve_banded", None),
    ("ckstates.oracle", "moments", "oracle.moments", _grid_points),
    ("ckstates.oracle", "simpson", "oracle.simpson", _simpson_points),
    ("ckstates.oracle", "schrodinger_residual", "oracle.schrodinger_residual", None),
    ("ckstates.oracle", "apply_annihilation", "oracle.apply_annihilation", None),
    ("ckstates.oracle", "apply_creation", "oracle.apply_creation", None),
    ("ckstates.oracle", "make_grid", "oracle.make_grid", None),
    ("ckstates.cli", "make_grid", "oracle.make_grid", None),
    ("ckstates.oracle", "eval_number_state", "states.eval_number_state", _sample_points),
    ("ckstates.cli", "eval_number_state", "states.eval_number_state", _sample_points),
    ("ckstates.oracle", "eval_coherent_state", "states.eval_coherent_state", _sample_points),
    ("ckstates.cli", "eval_coherent_state", "states.eval_coherent_state", _sample_points),
    ("ckstates.states", "hermite", "states.hermite", None),
    ("ckstates.oracle", "hermite", "states.hermite", None),
    ("ckstates.states", "gauss_coeffs", "states.gauss_coeffs", None),
    ("ckstates.oracle", "gauss_coeffs", "states.gauss_coeffs", None),
    ("ckstates.oracle", "coherent_trajectory", "states.coherent_trajectory", None),
    ("ckstates.cli", "coherent_trajectory", "states.coherent_trajectory", None),
    ("ckstates.states", "mode_u_rphi", "modes.mode_u_rphi", None),
    ("ckstates.observables", "mode_u_rphi", "modes.mode_u_rphi", None),
    ("ckstates.oracle", "mode_u_rphi", "modes.mode_u_rphi", None),
    ("ckstates.oracle", "uncertainty_product", "observables.uncertainty_product", None),
    ("ckstates.cli", "uncertainty_product", "observables.uncertainty_product", None),
    ("ckstates.oracle", "hamiltonian_expectation", "observables.hamiltonian_expectation", None),
    ("ckstates.cli", "hamiltonian_expectation", "observables.hamiltonian_expectation", None),
    ("ckstates.observables", "sigma0", "observables.sigma0", None),
    ("ckstates.oracle", "sigma0", "observables.sigma0", None),
    ("ckstates.cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans while installed; ``op`` tags spans with the current op."""

    LOG_FIELDS = (("index", "q"), ("name", "i"), ("start", "d"), ("end", "d"),
                  ("parent", "q"), ("op", "i"))

    def __init__(self):
        self.names = sorted({name for _, _, name, _ in TRACED})
        # Per span name: [calls, total s, self s], and argument-derived counts.
        self.stats = {name: [0, 0.0, 0.0] for name in self.names}
        self.counts = {name: defaultdict(int) for name in self.names}
        self.op = -1
        self._stack = []  # [span index, child time] per open span
        self._next = 0
        self._log = {key: array(code) for key, code in self.LOG_FIELDS}
        self._saved = []

    def _wrap(self, name: str, fn, counter):
        name_id = self.names.index(name)
        stats, counts, stack = self.stats[name], self.counts[name], self._stack
        appends = [self._log[key].append for key, _ in self.LOG_FIELDS]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            index = self._next
            self._next += 1
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if counter is not None:
                    for key, value in counter(*args, **kwargs).items():
                        counts[key] += value
                if index < SPAN_CAP:
                    for append, value in zip(
                        appends, (index, name_id, start, end, parent, self.op)
                    ):
                        append(value)
                if stack:
                    stack[-1][1] += perf_counter() - entered

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @property
    def spans_recorded(self) -> int:
        return self._next

    def write_spans(self, path) -> None:
        """Write the span log as CSV in span-index order; times in s."""
        cols = {key: self._log[key].tolist() for key, _ in self.LOG_FIELDS}
        order = sorted(range(len(cols["index"])), key=cols["index"].__getitem__)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_s,end_s,parent,op\n")
            for j in order:
                handle.write(
                    f"{cols['index'][j]},{self.names[cols['name'][j]]},"
                    f"{cols['start'][j]!r},{cols['end'][j]!r},"
                    f"{cols['parent'][j]},{cols['op'][j]}\n"
                )
