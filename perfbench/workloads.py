"""Seeded inputs, timed operations and output checks of the two workloads.

Every input is derived from (workload, seed, op index) alone, so one seed
fixes the whole op sequence and the program sees only the generated
inputs.  The output checks recompute what each output must be from those
inputs with formulas written out here, independently of the package's
closed forms; nothing is compared against stored bytes.

Physics draws, shared by all workloads: m0, omega0 and hbar log-uniform
in [0.5, 2], damping gamma/(2 omega0) uniform in [0, 0.975], squeeze
magnitude r = 0 with probability 1/4 (the pseudo-stationary family the
paper is about) and otherwise uniform in [0, 1.5], phase phi and time t
uniform in [0, 3], number index n in [0, 8], coherent displacements in
[-2, 2].  Strong damping is where the oracle reports red entries; the
draws are never narrowed to avoid it.
"""

import importlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE = {"m0": 1.0, "gamma": 1.2, "omega0": 1.0, "hbar": 1.0}
MAX_DAMPING = 0.975

# Tolerance every report entry must carry: the package defaults.  A change
# that loosened one would turn red entries green, so it fails the check.
TOLERANCES = {
    "wronskian": 1e-12,
    "normalization": 1e-10,
    "moments_product": 1e-8,
    "energy_closed_form": 1e-7,
    "residual": 1e-5,
    "ladder_vacuum": 1e-6,
    "ladder_step": 1e-5,
    "ladder_bogoliubov": 1e-6,
    "cn_fidelity": 1e-6,
    "cn_norm_drift": 1e-8,
    "sim_wave": 1e-9,
    "coherent_moments": 1e-8,
    "coherent_uncertainty": 1e-9,
    "time_average_lower_bound": 1e-9,
    "time_average_closed_form_gap": math.inf,
}

# Entry kinds whose pass rule is measured < tolerance; only these have a
# meaningful margin measured/tolerance.  time_average_lower_bound passes on
# measured >= -slack and the closed-form gap has an infinite tolerance.
MARGIN_KINDS = tuple(
    k for k in TOLERANCES
    if k not in ("time_average_lower_bound", "time_average_closed_form_gap")
)

# The 14 check kinds a schedule can name (cn_fidelity also emits the
# cn_norm_drift entry).
CHECK_KINDS = tuple(k for k in TOLERANCES if k != "cn_norm_drift")

# Entries per kind in the default 88-entry schedule.
DEFAULT_SCHEDULE_COUNTS = Counter({
    "wronskian": 9,
    "normalization": 4,
    "moments_product": 36,
    "energy_closed_form": 10,
    "residual": 5,
    "ladder_vacuum": 2,
    "ladder_step": 4,
    "ladder_bogoliubov": 1,
    "cn_fidelity": 1,
    "cn_norm_drift": 1,
    "sim_wave": 3,
    "coherent_moments": 2,
    "coherent_uncertainty": 3,
    "time_average_lower_bound": 4,
    "time_average_closed_form_gap": 3,
})

TABLE_ROWS = 20000
GRID_POINTS = 65537

# One cycle of cli_tables ops: every (command, state kind) pair in both
# formats, shuffled per cycle, so every run sees the same mix.
CLI_MIX = tuple(
    (command, kind, fmt)
    for command, kind in (
        ("uncertainty", "number"),
        ("trajectory", "coherent"),
        ("hamiltonian", "number"),
        ("hamiltonian", "coherent"),
        ("wavefunction", "number"),
        ("wavefunction", "coherent"),
    )
    for fmt in ("csv", "json")
)

CLI_COLUMNS = {
    "uncertainty": (
        ("t", "dq", "dp", "product", "bound", "ratio"),
        ("time", "length", "momentum", "action", "action", "1"),
    ),
    "trajectory": (
        ("t", "qc", "pc", "energy"),
        ("time", "length", "momentum", "energy"),
    ),
    "hamiltonian": (("t", "energy"), ("time", "energy")),
    "wavefunction": (
        ("q", "re_psi", "im_psi", "density"),
        ("length", "1/sqrt(length)", "1/sqrt(length)", "1/length"),
    ),
}


@dataclass
class Outcome:
    """What the benchmark learned from one op's output.

    ``problems`` lists output-check failures (wrong output: the benchmark
    fails); ``red`` marks a report with a failing entry (a measured
    physics result, counted in fail_frac).
    """

    rows: int = 0
    red: bool = False
    problems: list = field(default_factory=list)
    margins: dict = field(default_factory=dict)
    bytes_out: int = 0


def _rng(workload: str, seed: int, *key) -> random.Random:
    return random.Random(":".join(str(k) for k in (workload, seed, *key)))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _draw_physics(rng: random.Random) -> dict:
    omega0 = _log_uniform(rng, 0.5, 2.0)
    return {
        "m0": _log_uniform(rng, 0.5, 2.0),
        "omega0": omega0,
        "hbar": _log_uniform(rng, 0.5, 2.0),
        "gamma": 2.0 * omega0 * rng.uniform(0.0, MAX_DAMPING),
    }


def _draw_r(rng: random.Random) -> float:
    return 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 1.5)


def _omega(phys: dict) -> float:
    return math.sqrt(phys["omega0"] ** 2 - phys["gamma"] ** 2 / 4.0)


def _sigma0(phys: dict) -> float:
    return 1.0 / math.sqrt(1.0 - phys["gamma"] ** 2 / (4.0 * phys["omega0"] ** 2))


def _close(got, want, rel: float, scale=None) -> bool:
    """Elementwise |got - want| <= rel * scale, scale defaulting to |want|."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    scale = np.abs(want) if scale is None else np.asarray(scale, dtype=float)
    return bool(np.all(np.abs(got - want) <= rel * scale + 1e-300))


# -- validation reports ------------------------------------------------------


def _entry_passes(name: str, measured: float, tol: float, args: tuple) -> bool:
    if name == "time_average_lower_bound":
        r = args[1]
        return abs(measured) <= tol if r == 0.0 else measured >= -tol
    if name == "time_average_closed_form_gap":
        return True
    return measured < tol


def check_report(report, phys: dict) -> Outcome:
    """Check a default-schedule ValidationReport against the schedule's
    entry counts and the pass rules."""
    out = Outcome(rows=len(report.entries))
    got = Counter(e.check_name for e in report.entries)
    if got != DEFAULT_SCHEDULE_COUNTS:
        out.problems.append(
            f"entries {dict(got)} do not match the schedule {dict(DEFAULT_SCHEDULE_COUNTS)}"
        )
    keys = [(e.check_name, tuple(str(v) for v in e.parameter_tuple)) for e in report.entries]
    if keys != sorted(keys):
        out.problems.append("report entries are not sorted")
    expect_params = dict(phys, omega=_omega(phys))
    if set(report.params) != set(expect_params) or not all(
        _close(report.params[k], v, 1e-15) for k, v in expect_params.items()
    ):
        out.problems.append(f"report params {report.params} != {expect_params}")
    for e in report.entries:
        label = f"{e.check_name}{e.parameter_tuple}"
        if e.skipped:
            # The only admissible skip: the special squeeze is undefined at gamma = 0.
            if not (e.check_name == "sim_wave" and phys["gamma"] == 0.0):
                out.problems.append(f"{label} skipped: {e.reason}")
            continue
        if math.isnan(e.measured):
            # A runner raised; the report records it as a failed entry.
            if e.passed:
                out.problems.append(f"{label} passed with no measurement")
            out.red = True
            continue
        if e.tolerance != TOLERANCES[e.check_name]:
            out.problems.append(f"{label} tolerance {e.tolerance} != {TOLERANCES[e.check_name]}")
        if e.passed != _entry_passes(e.check_name, e.measured, e.tolerance, e.parameter_tuple):
            out.problems.append(f"{label} pass flag {e.passed} contradicts measured {e.measured}")
        if not e.passed:
            out.red = True
        if e.check_name in MARGIN_KINDS and math.isfinite(e.measured):
            margin = e.measured / e.tolerance
            out.margins[e.check_name] = max(margin, out.margins.get(e.check_name, -math.inf))
    return out


class ValidateWorkload:
    """Each op is one default-schedule ``validate(params)`` call.

    Op 0 is the reference point gamma = 1.2, omega0 = m0 = hbar = 1, which
    must pass all 88 entries; later ops are drawn.
    """

    name = "validate"
    cycle = 1
    # Ops whose checks a traced run times one by one: the reference op's 88.
    check_timing_ops = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        # Imported here, not at module level, so each workload's set-up loads
        # only what its ops use.
        self.oracle = importlib.import_module("ckstates.oracle")
        self.modes = importlib.import_module("ckstates.modes")

    def op_input(self, i: int):
        phys = REFERENCE if i == 0 else _draw_physics(_rng(self.name, self.seed, i))
        return i, phys, self.modes.make_params(**phys)

    def run(self, inp):
        return self.oracle.validate(inp[2])

    def check(self, inp, report) -> Outcome:
        i, phys, _ = inp
        out = check_report(report, phys)
        if i == 0 and report.summary["passed"] != 88:
            out.problems.append(
                f"reference point passed {report.summary['passed']}/88 entries"
            )
        return out

    def schedules(self, inp):
        """One-check schedules covering this op, for per-kind timing."""
        params = inp[2]
        return [(params, (c,)) for c in self.oracle.default_schedule(params)]

    def close(self) -> None:
        pass


# -- CLI tables --------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    command: str
    kind: str
    fmt: str
    phys: dict
    r: float
    phi: float
    n: int
    qc: float
    pc: float
    t0: float
    argv: tuple


class CliTablesWorkload:
    """Each op is one in-process ``ckstates.cli.main(argv)`` call writing a
    table to a file; see CLI_MIX for the commands covered."""

    name = "cli_tables"
    # Runs end on whole cycles, so every run has the same mix of commands;
    # op latencies differ sixfold between commands.
    cycle = len(CLI_MIX)
    check_timing_ops = 0

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.cli = importlib.import_module("ckstates.cli")
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out_path = out_dir / f"cli-table-{seed}.out"

    def op_input(self, i: int) -> CliOp:
        cycle, pos = divmod(i, len(CLI_MIX))
        order = list(CLI_MIX)
        _rng(self.name, self.seed, "cycle", cycle).shuffle(order)
        command, kind, fmt = order[pos]
        rng = _rng(self.name, self.seed, i)
        phys = _draw_physics(rng)
        r, phi, t0 = _draw_r(rng), rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
        n, qc, pc = rng.randint(0, 8), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        argv = [command]
        for key in ("gamma", "omega0", "m0", "hbar"):
            argv += [f"--{key}", repr(phys[key])]
        argv += ["--r", repr(r), "--phi", repr(phi), "--t0", repr(t0), "--format", fmt]
        if kind == "coherent":
            argv += ["--qc", repr(qc), "--pc", repr(pc)]
        elif command != "trajectory":
            argv += ["--n", str(n)]
        if command == "wavefunction":
            argv += ["--grid-points", str(GRID_POINTS)]
        else:
            argv += ["--nt", str(TABLE_ROWS)]
        argv += ["--out", str(self.out_path)]
        return CliOp(command, kind, fmt, phys, r, phi, n, qc, pc, t0, tuple(argv))

    def run(self, op: CliOp) -> int:
        return self.cli.main(list(op.argv))

    def check(self, op: CliOp, code: int) -> Outcome:
        out = Outcome()
        if code != 0:
            out.problems.append(f"exit code {code} for {' '.join(op.argv)}")
            return out
        columns, units = CLI_COLUMNS[op.command]
        try:
            data = _parse_table(self.out_path, op.fmt, columns, units)
        except (OSError, ValueError) as exc:
            out.problems.append(f"{op.command} {op.kind} {op.fmt}: {exc}")
            return out
        out.rows = data.shape[0]
        out.bytes_out = self.out_path.stat().st_size
        checker = _check_wavefunction if op.command == "wavefunction" else _check_time_table
        out.problems.extend(f"{op.command} {op.kind} {op.fmt}: {p}" for p in checker(op, data))
        return out

    def close(self) -> None:
        self.out_path.unlink(missing_ok=True)


def _parse_table(path: Path, fmt: str, columns: tuple, units: tuple) -> np.ndarray:
    """Read a CLI table into a (rows, columns) array, checking its header.

    Rows are read one at a time so the check holds far less memory than
    the program that wrote the table.
    """
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if fmt == "csv":
            want = ",".join(f"{c} [{u}]" for c, u in zip(columns, units))
            if header != want:
                raise ValueError(f"header {header!r} != {want!r}")
            return np.loadtxt(handle, delimiter=",", ndmin=2)
        meta = json.loads(header)
        if meta != {"columns": list(columns), "units": list(units)}:
            raise ValueError(f"header {meta} does not name {columns} in {units}")
        rows = []
        for line in handle:
            row = json.loads(line)
            if list(row) != list(columns):
                raise ValueError(f"row {row} does not carry the columns {columns} in order")
            rows.append(np.array([row[c] for c in columns], dtype=float))
    return np.array(rows).reshape(-1, len(columns))


def _expected_times(op: CliOp) -> np.ndarray:
    return np.linspace(op.t0, op.t0 + 2.0 * math.pi / _omega(op.phys), TABLE_ROWS)


def _fluctuation_energy(op: CliOp, n: int, t: np.ndarray) -> np.ndarray:
    """<H> of the n-th squeezed state: (hbar omega/2) sigma0^2
    [cosh 2r + sinh 2r (gamma/2 omega0) sin(2 omega t + phi + theta/2)] (2n+1),
    with sin(theta/2) = gamma/(2 omega0)."""
    p, omega = op.phys, _omega(op.phys)
    s = p["gamma"] / (2.0 * p["omega0"])
    modulation = math.cosh(2 * op.r) + math.sinh(2 * op.r) * s * np.sin(
        2.0 * omega * t + op.phi + math.asin(s)
    )
    return 0.5 * p["hbar"] * omega * _sigma0(p) ** 2 * modulation * (2 * n + 1)


def _classical_path(op: CliOp, t: np.ndarray):
    """Damped classical motion through (qc, pc) at t0, p = m0 e^{gamma t} dq/dt.

    Returns q, p and the envelopes of each, which scale the tolerances.
    """
    p_, omega = op.phys, _omega(op.phys)
    gamma, m0 = p_["gamma"], p_["m0"]
    v0 = op.pc * math.exp(-gamma * op.t0) / m0
    b = (v0 + 0.5 * gamma * op.qc) / omega
    c = (p_["omega0"] ** 2 * op.qc + 0.5 * gamma * v0) / omega
    dt = t - op.t0
    decay, cos, sin = np.exp(-0.5 * gamma * dt), np.cos(omega * dt), np.sin(omega * dt)
    weight = m0 * np.exp(gamma * t)
    q = decay * (op.qc * cos + b * sin)
    p = weight * decay * (v0 * cos - c * sin)
    return q, p, decay * math.hypot(op.qc, b), weight * decay * math.hypot(v0, c)


def _check_time_table(op: CliOp, data: np.ndarray) -> list:
    problems = []
    if data.shape[0] != TABLE_ROWS:
        return [f"{data.shape[0]} rows, expected {TABLE_ROWS}"]
    t = _expected_times(op)
    if not _close(data[:, 0], t, 1e-13, scale=np.abs(t) + 1.0):
        problems.append("time column is not the requested window")
    n = 0 if op.kind == "coherent" else op.n
    bound = 0.5 * op.phys["hbar"] * _sigma0(op.phys) * (2 * n + 1)
    if op.command == "uncertainty":
        _, dq, dp, product, bnd, ratio = data.T
        omega, s = _omega(op.phys), op.phys["gamma"] / (2.0 * op.phys["omega0"])
        arg = 2.0 * omega * t + op.phi
        c2, s2 = math.cosh(2 * op.r), math.sinh(2 * op.r)
        brackets = (c2 + s2 * np.cos(arg)) * (c2 - s2 * np.cos(arg + 2.0 * math.asin(s)))
        if not _close(product, dq * dp, 1e-14):
            problems.append("product != dq*dp")
        if not _close(ratio, product / bnd, 1e-14):
            problems.append("ratio != product/bound")
        if not _close(bnd, np.full_like(bnd, bound), 1e-12):
            problems.append("bound != (hbar/2) sigma0 (2n+1)")
        if not _close(product, bound * np.sqrt(brackets), 1e-9):
            problems.append("product departs from the bracket closed form")
        if op.r == 0.0 and not _close(product, np.full_like(product, bound), 1e-12):
            problems.append("product is not (hbar/2) sigma0 (2n+1) at r = 0")
        return problems
    energy = data[:, -1]
    if op.kind == "number":
        want = _fluctuation_energy(op, n, t)
        if not _close(energy, want, 1e-9):
            problems.append("energy departs from the closed form")
        const = op.phys["hbar"] * op.phys["omega0"] ** 2 / (2.0 * _omega(op.phys)) * (2 * n + 1)
        if op.r == 0.0 and not _close(energy, np.full_like(energy, const), 1e-12):
            problems.append("energy is not (hbar omega0^2/2 omega)(2n+1) at r = 0")
        return problems
    q, p, q_env, p_env = _classical_path(op, t)
    if op.command == "trajectory":
        if not _close(data[:, 1], q, 1e-9, scale=q_env):
            problems.append("qc departs from the damped classical path")
        if not _close(data[:, 2], p, 1e-9, scale=p_env):
            problems.append("pc departs from the damped classical path")
    m0, gamma, omega0 = op.phys["m0"], op.phys["gamma"], op.phys["omega0"]
    classical = np.exp(-gamma * t) * p**2 / (2.0 * m0) + 0.5 * m0 * omega0**2 * np.exp(gamma * t) * q**2
    quantum = _fluctuation_energy(op, 0, t)
    if not _close(energy, classical + quantum, 1e-9, scale=np.abs(classical) + np.abs(quantum)):
        problems.append("energy != classical energy + ground fluctuation energy")
    return problems


def _grid_size(requested: int) -> int:
    m = max(requested - 1, 512)
    return 2 ** math.ceil(math.log2(m)) + 1


def _simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson rule on an odd number of equally spaced samples."""
    w = np.ones(y.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float(np.dot(w, y) * dx / 3.0)


def _check_wavefunction(op: CliOp, data: np.ndarray) -> list:
    rows = _grid_size(GRID_POINTS)
    if data.shape[0] != rows:
        return [f"{data.shape[0]} rows, expected {rows}"]
    q, re, im, density = data.T
    dq = (q[-1] - q[0]) / (rows - 1)
    problems = []
    if not _close(np.diff(q), np.full(rows - 1, dq), 1e-9):
        problems.append("grid is not uniform")
    if not _close(density, re**2 + im**2, 1e-12, scale=np.max(density)):
        problems.append("density != re^2 + im^2")
    norm = _simpson(density, dq)
    if not abs(norm - 1.0) <= 1e-8:
        problems.append(f"density integrates to {norm!r}")
    # <q> at t0: the anchor qc for coherent states, 0 for number states.
    mean = _simpson(q * density, dq)
    want = op.qc if op.kind == "coherent" else 0.0
    if not abs(mean - want) <= 1e-8 * (q[-1] - q[0]):
        problems.append(f"<q> = {mean!r}, expected {want!r}")
    return problems


WORKLOADS = {
    w.name: w for w in (ValidateWorkload, CliTablesWorkload)
}
