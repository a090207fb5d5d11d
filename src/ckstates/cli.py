"""Command-line surface: tables of states and observables, and the
validation suite.

Output is deterministic: identical configuration produces byte-identical
tables.  Numbers are printed with 17 significant digits so downstream
diffs are exact; every table starts with a self-describing header naming
columns and units.  Exit codes: 0 success, 1 validation failure, 2 usage
error.
"""

import argparse
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cache

import numpy as np

from ._g17 import rows_text
from .modes import SqueezeParams, make_params
from .observables import hamiltonian_expectation, uncertainty_product
from .oracle import ToleranceConfig, make_grid, validate
from .states import StateSpec, coherent_trajectory, eval_coherent_state, eval_number_state

__all__ = ["RunConfig", "UsageError", "main"]

# Rows rendered per write: the text of a few thousand rows at a time
# instead of the whole table.
TABLE_CHUNK_ROWS = 4096


class UsageError(ValueError):
    """Invalid flag, config key, or flag combination; exits with code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration.

    Values are layered: documented defaults, then the optional config
    file, then command-line flags.  ``qc``/``pc`` left unset select the
    number-state kind where a choice is needed; ``t1`` left unset means
    one full mode period 2 pi / omega past ``t0``.  ``given`` records
    which keys were set explicitly by the user.
    """

    gamma: float = 1.2
    omega0: float = 1.0
    m0: float = 1.0
    hbar: float = 1.0
    r: float = 0.0
    phi: float = 0.0
    n: int = 0
    qc: float | None = None
    pc: float | None = None
    t0: float = 0.0
    t1: float | None = None
    nt: int = 64
    grid_points: int = 2049
    format: str = "csv"
    out: str | None = None
    tol_overrides: str | None = None
    flip_b_sign: bool = False
    given: frozenset = frozenset()


# The options every subcommand takes, as config key: (converter, help).  The
# flag is --key with "-" for "_"; RunConfig holds the defaults the help quotes.
_OPTIONS = {
    "gamma": (float, "damping rate"),
    "omega0": (float, "natural frequency"),
    "m0": (float, "mass scale"),
    "hbar": (float, "action scale"),
    "r": (float, "squeeze magnitude"),
    "phi": (float, "squeeze phase"),
    "n": (int, "number-state index"),
    "qc": (float, "coherent position at t0"),
    "pc": (float, "coherent momentum at t0"),
    "t0": (float, "window start"),
    "t1": (float, "window end (default t0 + 2 pi/omega)"),
    "nt": (int, "time samples"),
    "grid_points": (int, "position grid points, rounded up to 2^k + 1"),
    "format": (str, "output format"),
    "out": (str, "write output to PATH"),
}
_FLAG_EXTRAS = {"format": {"choices": ("csv", "json")}, "out": {"metavar": "PATH"}}


def _read_key_values(path: str) -> dict:
    """Parse a ``key = value`` text file; '#' starts a comment."""
    table = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep or not value.strip():
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                table[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return table


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        for key, text in _read_key_values(args.config).items():
            if key not in _OPTIONS:
                raise UsageError(f"unknown config key {key!r} in {args.config}")
            try:
                values[key] = _OPTIONS[key][0](text)
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
    for key in _OPTIONS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    if values.get("format", "csv") not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {values['format']!r}")
    if values.get("n", 0) < 0:
        raise UsageError(f"n must be nonnegative, got {values['n']}")
    if values.get("nt", 2) < 2:
        raise UsageError(f"nt must be at least 2, got {values['nt']}")
    return RunConfig(
        **values,
        tol_overrides=args.tol_overrides,
        flip_b_sign=getattr(args, "flip_b_sign", False),
        given=frozenset(values),
    )


def _read_tolerances(path: str | None) -> ToleranceConfig:
    if path is None:
        return ToleranceConfig()
    known = {f.name for f in fields(ToleranceConfig)}
    overrides = {}
    for key, text in _read_key_values(path).items():
        if key not in known:
            raise UsageError(f"unknown tolerance {key!r} in {path}")
        try:
            overrides[key] = float(text)
        except ValueError as exc:
            raise UsageError(f"tolerance {key!r}: {exc}") from exc
    return replace(ToleranceConfig(), **overrides)


@contextmanager
def _output(out: str | None):
    """Open the file ``out`` for writing, or take stdout, and yield its
    ``write``.

    The file is opened before the body runs, so an unwritable ``out``
    fails before any output is computed.  A file that cannot be opened or
    written is a usage error.
    """
    if not out:
        yield sys.stdout.write
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            yield handle.write
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _write_table(columns: tuple, units: tuple, data: tuple, cfg: RunConfig) -> None:
    """Write the header and one CSV or JSON line per row of the equal-length
    float arrays ``data``, one per column.

    Values are printed as ``'%.17g' %`` prints them, by the vectorized
    renderer in ``_g17``, ``TABLE_CHUNK_ROWS`` rows at a time, so the text
    of the whole table is never held at once.  Every column is computed
    before the call, so an error leaves no partial output.
    """
    if cfg.format == "csv":
        header = ",".join(f"{c} [{u}]" for c, u in zip(columns, units))
        literals = ["", *[","] * (len(columns) - 1), "\n"]
    else:
        header = json.dumps({"columns": list(columns), "units": list(units)})
        keys = [f"{json.dumps(c)}: " for c in columns]
        literals = ["{" + keys[0], *(", " + key for key in keys[1:]), "}\n"]
    with _output(cfg.out) as write:
        write(header + "\n")
        for start in range(0, len(data[0]), TABLE_CHUNK_ROWS):
            write(rows_text(literals, [col[start : start + TABLE_CHUNK_ROWS] for col in data]))


def _params_squeeze(cfg: RunConfig):
    params = make_params(cfg.m0, cfg.gamma, cfg.omega0, cfg.hbar)
    return params, SqueezeParams(r=cfg.r, phi=cfg.phi)


def _time_samples(cfg: RunConfig, omega: float) -> np.ndarray:
    t1 = cfg.t1 if cfg.t1 is not None else cfg.t0 + 2.0 * math.pi / omega
    if not t1 > cfg.t0:
        raise UsageError(f"need t1 > t0, got t0={cfg.t0}, t1={t1}")
    return np.linspace(cfg.t0, t1, cfg.nt)


def cmd_uncertainty(cfg: RunConfig) -> int:
    """Rows (t, dq, dp, product, bound, ratio) over the time window."""
    params, squeeze = _params_squeeze(cfg)
    t = _time_samples(cfg, params.omega)
    rec = uncertainty_product(params, cfg.n, squeeze, t)
    _write_table(
        ("t", "dq", "dp", "product", "bound", "ratio"),
        ("time", "length", "momentum", "action", "action", "1"),
        (t, rec.dq, rec.dp, rec.product, np.full(t.shape, rec.bound), rec.product / rec.bound),
        cfg,
    )
    return 0


def cmd_wavefunction(cfg: RunConfig) -> int:
    """Rows (q, Re psi, Im psi, |psi|^2) at t = t0 on the oracle grid.

    The state is coherent when qc or pc is supplied, otherwise the n-th
    number state.
    """
    params, squeeze = _params_squeeze(cfg)
    if cfg.qc is not None or cfg.pc is not None:
        spec = StateSpec.coherent(cfg.qc or 0.0, cfg.pc or 0.0, squeeze)
    else:
        spec = StateSpec.number(cfg.n, squeeze)
    grid = make_grid(params, spec, cfg.t0, n_points=cfg.grid_points)
    q = grid.points()
    if spec.kind == "coherent":
        psi = eval_coherent_state(params, spec, cfg.t0, q)
    else:
        psi = eval_number_state(params, spec, cfg.t0, q)
    _write_table(
        ("q", "re_psi", "im_psi", "density"),
        ("length", "1/sqrt(length)", "1/sqrt(length)", "1/length"),
        (q, psi.real, psi.imag, np.abs(psi) ** 2),
        cfg,
    )
    return 0


def _coherent_energy(params, squeeze, cfg: RunConfig, t: np.ndarray):
    """Path (q_c, p_c) of the coherent state through (qc, pc) at t0, and its
    energy: the classical energy plus the ground-state fluctuation energy."""
    q_c, p_c, classical = coherent_trajectory(params, cfg.qc or 0.0, cfg.pc or 0.0, cfg.t0, t)
    return q_c, p_c, classical + hamiltonian_expectation(params, 0, squeeze, t)


def cmd_trajectory(cfg: RunConfig) -> int:
    """Rows (t, q_c, p_c, energy) along the damped classical trajectory.

    The coherent state is anchored so its expectations pass through
    (qc, pc) at t0; the energy column adds the Gaussian fluctuation
    energy to the classical part.
    """
    if "n" in cfg.given:
        raise UsageError("trajectory is defined for coherent states; drop --n")
    params, squeeze = _params_squeeze(cfg)
    t = _time_samples(cfg, params.omega)
    _write_table(
        ("t", "qc", "pc", "energy"),
        ("time", "length", "momentum", "energy"),
        (t, *_coherent_energy(params, squeeze, cfg, t)),
        cfg,
    )
    return 0


def cmd_hamiltonian(cfg: RunConfig) -> int:
    """Rows (t, energy) over the time window.

    Number states use the closed form directly; with qc or pc supplied
    the classical energy of the anchored trajectory is added to the
    ground-state fluctuation energy.
    """
    params, squeeze = _params_squeeze(cfg)
    t = _time_samples(cfg, params.omega)
    if cfg.qc is not None or cfg.pc is not None:
        energy = _coherent_energy(params, squeeze, cfg, t)[2]
    else:
        energy = hamiltonian_expectation(params, cfg.n, squeeze, t)
    _write_table(("t", "energy"), ("time", "energy"), (t, energy), cfg)
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    """Run the validation suite; exit 0 iff every non-skipped check passes."""
    params, _ = _params_squeeze(cfg)
    tolerances = _read_tolerances(cfg.tol_overrides)
    with _output(cfg.out) as write:
        report = validate(params, tolerances=tolerances, flip_b_sign=cfg.flip_b_sign)
        write((report.to_json() if cfg.format == "json" else report.to_table()) + "\n")
    return 0 if report.all_passed else 1


_COMMANDS = {
    "uncertainty": cmd_uncertainty,
    "wavefunction": cmd_wavefunction,
    "trajectory": cmd_trajectory,
    "hamiltonian": cmd_hamiltonian,
    "validate": cmd_validate,
}


class _Parser(argparse.ArgumentParser):
    """Reads "-1.2e-38" or "-2e+3" after a flag as a negative number.

    argparse's own pattern (Python 3.10 to 3.13) has no exponent, so it
    takes such a value for a flag and the command ends in a usage error.
    Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused."""
    common = _Parser(add_help=False)
    for key, (conv, text) in _OPTIONS.items():
        default = getattr(RunConfig, key)
        if default is not None:
            text += f" (default {str(default).removesuffix('.0')})"
        flag = "--" + key.replace("_", "-")
        common.add_argument(flag, type=conv, help=text, **_FLAG_EXTRAS.get(key, {}))
    common.add_argument(
        "--config", metavar="PATH", help="key = value file layered under flags"
    )
    common.add_argument(
        "--tol-overrides",
        dest="tol_overrides",
        metavar="PATH",
        help="key = value file of validation tolerance overrides",
    )
    parser = _Parser(
        prog="ckstates",
        description=(
            "Exact Gaussian states of the damped (Caldirola-Kanai) harmonic "
            "oscillator: tables, sweeps, and an independent validation suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("uncertainty", "uncertainty product over time"),
        ("wavefunction", "wave function samples at t0"),
        ("trajectory", "coherent phase-space trajectory"),
        ("hamiltonian", "energy expectation over time"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
    val = sub.add_parser("validate", parents=[common], help="run the validation suite")
    val.add_argument("--flip-b-sign", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _resolve_config(args)
        # A float leaving the double range raises instead of printing inf or nan.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command](cfg)
    except ValueError as exc:
        # UsageError and NotUnderdampedError are ValueErrors too.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, MemoryError) as exc:
        # e.g. s = e^{gamma t/2} out of range, or a table too large to allocate.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream reader (e.g. head) closed the pipe; park stdout on
        # devnull so the interpreter's final flush stays quiet.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # no real descriptor to repair (captured stdout)
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
