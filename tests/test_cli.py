"""Command-line interface: subcommands, config layering, formats, exit codes."""

import contextlib
import io
import json
import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ckstates.cli import RunConfig, _build_parser, _write_table, main
from ckstates.modes import SqueezeParams, make_params
from ckstates.observables import uncertainty_product


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def csv_rows(out):
    lines = out.strip().splitlines()
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    return lines[0], rows


# ---------------------------------------------------------------- uncertainty


def test_uncertainty_defaults(capsys):
    rc, out, _ = run_cli(["uncertainty"], capsys)
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == (
        "t [time],dq [length],dp [momentum],product [action],"
        "bound [action],ratio [1]"
    )
    assert len(rows) == 64
    for row in rows:
        assert row[3] == pytest.approx(0.625, rel=1e-12)  # product
        assert row[5] == pytest.approx(1.0, rel=1e-12)  # ratio
    assert rows[0][0] == 0.0  # window starts at t0 = 0


def test_uncertainty_undamped_squeezed_band(capsys):
    rc, out, _ = run_cli(["uncertainty", "--gamma", "0", "--r", "1"], capsys)
    assert rc == 0
    _, rows = csv_rows(out)
    for row in rows:
        assert row[4] == pytest.approx(0.5, rel=1e-12)  # undamped bound
        assert 0.5 * (1.0 - 1e-12) <= row[3] <= 0.5 * math.cosh(2.0) * (1.0 + 1e-12)


def test_uncertainty_number_state_scaling(capsys):
    rc, out, _ = run_cli(["uncertainty", "--n", "2", "--nt", "2"], capsys)
    assert rc == 0
    _, rows = csv_rows(out)
    assert rows[0][3] == pytest.approx(5.0 * 0.625, rel=1e-12)


@pytest.mark.parametrize("omega0, gamma", [("1", "1.9999999999"), ("1.3", "2.5999999999")])
def test_uncertainty_near_critical_damping_prints_the_exact_bound(omega0, gamma, capsys):
    rc, out, err = run_cli(
        ["uncertainty", "--omega0", omega0, "--gamma", gamma, "--nt", "2", "--t1", "1"], capsys
    )
    assert rc == 0 and err == ""
    _, rows = csv_rows(out)
    assert len(rows) == 2 and all(math.isfinite(v) for row in rows for v in row)
    with mpmath.workdps(50):
        k = mpmath.mpf(float(gamma)) / (2 * mpmath.mpf(float(omega0)))
        exact = float(0.5 / mpmath.sqrt(1 - k**2))
    for row in rows:
        assert abs(row[4] - exact) <= 4 * math.ulp(exact)  # bound
    # The product and ratio columns are not checked: dq and dp still carry
    # the cancellation in omega = sqrt(omega0^2 - gamma^2/4), and at r = 0
    # the ratio reads 0.99999999998750 at gamma = 1.9999999999, where the
    # exact value is 1.


def test_uncertainty_respects_window_flags(capsys):
    rc, out, _ = run_cli(
        ["uncertainty", "--t0", "0.5", "--t1", "1.5", "--nt", "3"], capsys
    )
    assert rc == 0
    _, rows = csv_rows(out)
    assert [row[0] for row in rows] == [0.5, 1.0, 1.5]


# ---------------------------------------------------------------- wavefunction


def test_wavefunction_ground_state_peak(capsys):
    rc, out, _ = run_cli(["wavefunction"], capsys)
    assert rc == 0
    _, rows = csv_rows(out)
    assert len(rows) == 2049
    peak = max(rows, key=lambda row: row[3])
    assert peak[0] == 0.0
    assert peak[3] == pytest.approx(math.sqrt(0.8 / math.pi), rel=1e-12)


def test_wavefunction_first_excited_node(capsys):
    rc, out, _ = run_cli(["wavefunction", "--n", "1"], capsys)
    assert rc == 0
    _, rows = csv_rows(out)
    center = min(rows, key=lambda row: abs(row[0]))
    assert center[0] == 0.0
    assert center[3] < 1e-30  # node at the origin


def test_wavefunction_is_continuous_in_t0(capsys):
    # The principal value of -arg(v) jumps by 2 pi between these times,
    # which flips the sign of e^{-i Theta/2}; the state itself moves by
    # O(1e-3) of its peak, the grid scaling with it.
    tables = []
    for t0 in ("3.926", "3.927"):
        rc, out, _ = run_cli(["wavefunction", "--t0", t0], capsys)
        assert rc == 0
        rows = np.array(csv_rows(out)[1])
        tables.append(rows[:, 1] + 1j * rows[:, 2])
    before, after = tables
    assert np.max(np.abs(after - before)) < 1e-2 * np.max(np.abs(before))
    assert np.sign(after[1024].imag) == np.sign(before[1024].imag)


def test_wavefunction_coherent_centering(capsys):
    rc, out, _ = run_cli(["wavefunction", "--qc", "2"], capsys)
    assert rc == 0
    _, rows = csv_rows(out)
    peak = max(rows, key=lambda row: row[3])
    assert peak[0] == pytest.approx(2.0, abs=1e-12)


def test_wavefunction_grid_clamping(capsys):
    rc, out, _ = run_cli(["wavefunction", "--grid-points", "600"], capsys)
    assert rc == 0
    _, rows = csv_rows(out)
    assert len(rows) == 1025


@pytest.mark.parametrize(
    "physics, qc, pc",
    [
        # A |q_c| is about 3e169: (A (q - q_c))^2 overflows at the origin.
        (("0.07991649356653331", "2.743126661491609", "1.7620647951763575", "9819.113021645418"),
         "-1.2417072772832722", "1.8918607183672496"),
        # A |q_c| is about 2e268, within a factor 1e41 of the largest double.
        (("0.8672669739482599", "2.0329284226104516", "2.63640083082865", "1426.724877675293"),
         "1.1001539653596404", "1.367417548763985"),
    ],
)
def test_coherent_wavefunction_narrower_than_its_offset(physics, qc, pc, capsys):
    # The Gaussian is 0 far from q_c and every sample is finite.
    gamma, r, phi, t0 = physics
    rc, out, err = run_cli(
        ["wavefunction", "--gamma", gamma, "--r", r, "--phi", phi, "--t0", t0,
         f"--qc={qc}", "--pc", pc],
        capsys,
    )
    assert rc == 0 and err == ""
    _, rows = csv_rows(out)
    assert all(math.isfinite(x) for row in rows for x in row)
    peak = max(range(len(rows)), key=lambda i: rows[i][3])
    assert peak == min(range(len(rows)), key=lambda i: abs(rows[i][0] - float(qc)))
    assert rows[peak][3] > 0.0


# ---------------------------------------------------------------- trajectory


def test_trajectory_damped_envelope(capsys):
    rc, out, _ = run_cli(["trajectory", "--qc", "1", "--pc", "0.5"], capsys)
    assert rc == 0
    _, rows = csv_rows(out)
    params = make_params(1.0, 1.2, 1.0, 1.0)
    period = 2.0 * math.pi / params.omega
    shrink = math.exp(-params.gamma * period / 2.0)
    assert rows[-1][0] == pytest.approx(period, rel=1e-12)
    assert rows[-1][1] == pytest.approx(shrink * rows[0][1], rel=1e-10)
    assert rows[0][1] == pytest.approx(1.0, abs=1e-12)


# Anchors where e^{gamma t0} is e^{-36}, e^{-60}, e^{36} and e^{231}.  A path
# through the coherent eigenvalue misses p_c in the last two, since there
# Re(alpha w) cancels m|w|^2|q_c| down to p_c; the real map gives the
# anchor back bit for bit.
_FAR_ANCHORS = [
    pytest.param("--t0=-30 --qc=1 --pc=-1 --nt=3", id="-30"),
    pytest.param("--t0=-50 --qc=1 --pc=-1 --nt=3", id="-50"),
    pytest.param(
        "--gamma=1.1876101027754842 --omega0=1.1015355655430816 --m0=1.4459579161401226 "
        "--hbar=1.6704174541434653 --t0=30.31951331002506 --qc=-1.5607335631030184 "
        "--pc=0.52160343231224 --nt=5",
        id="30.3",
    ),
    pytest.param(
        "--gamma=4.04154531100717 --omega0=2.6995163687758326 --m0=0.6304713511087927 "
        "--hbar=0.6693831342543691 --t0=57.09495706449228 --qc=0.028346833144979655 "
        "--pc=1.1831109585044137 --nt=3",
        id="57.1",
    ),
]


@pytest.mark.parametrize("flags", _FAR_ANCHORS)
def test_trajectory_starts_at_its_anchor_far_before_the_origin(flags, capsys):
    values = dict(flag.split("=") for flag in flags.split())
    rc, out, err = run_cli(["trajectory", *flags.split()], capsys)
    assert rc == 0 and err == ""
    _, rows = csv_rows(out)
    assert rows[0][1:3] == (float(values["--qc"]), float(values["--pc"]))


def test_trajectory_undamped_orbit_closes(capsys):
    rc, out, _ = run_cli(["trajectory", "--gamma", "0", "--qc", "1.3"], capsys)
    assert rc == 0
    _, rows = csv_rows(out)
    assert rows[-1][1] == pytest.approx(rows[0][1], abs=1e-9)
    assert rows[-1][2] == pytest.approx(rows[0][2], abs=1e-9)


def test_trajectory_rejects_number_state(capsys):
    rc, _, err = run_cli(["trajectory", "--qc", "1", "--n", "1"], capsys)
    assert rc == 2
    assert "coherent" in err


# ---------------------------------------------------------------- hamiltonian


def test_hamiltonian_reference_constant(capsys):
    rc, out, _ = run_cli(["hamiltonian", "--nt", "8"], capsys)
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == "t [time],energy [energy]"
    for row in rows:
        assert row[1] == pytest.approx(0.625, rel=1e-12)


def test_hamiltonian_undamped_ground_energy(capsys):
    rc, out, _ = run_cli(["hamiltonian", "--gamma", "0", "--nt", "4"], capsys)
    assert rc == 0
    _, rows = csv_rows(out)
    for row in rows:
        assert row[1] == pytest.approx(0.5, rel=1e-12)


def test_hamiltonian_coherent_adds_classical_part(capsys):
    rc, out, _ = run_cli(["hamiltonian", "--qc", "1", "--nt", "2"], capsys)
    assert rc == 0
    _, rows = csv_rows(out)
    assert rows[0][1] == pytest.approx(0.5 + 0.625, rel=1e-12)


# ---------------------------------------------------------------- config and formats


def test_config_file_layering(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# reference sweep\ngamma = 0.8\nr = 0.5\nnt = 2\n", encoding="utf-8"
    )
    rc, out, _ = run_cli(
        ["uncertainty", "--config", str(config), "--gamma", "0.4"], capsys
    )
    assert rc == 0
    _, rows = csv_rows(out)
    # flag wins over file for gamma; r and nt come from the file
    params = make_params(1.0, 0.4, 1.0, 1.0)
    expected = uncertainty_product(params, 0, SqueezeParams(0.5, 0.0), 0.0)
    assert len(rows) == 2
    assert rows[0][3] == pytest.approx(expected.product, rel=1e-12)


def test_config_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("wobble = 3\n", encoding="utf-8")
    rc, _, err = run_cli(["uncertainty", "--config", str(config)], capsys)
    assert rc == 2
    assert "unknown config key" in err


def test_config_rejects_malformed_line(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("gamma\n", encoding="utf-8")
    rc, _, err = run_cli(["uncertainty", "--config", str(config)], capsys)
    assert rc == 2


def test_json_format(capsys):
    rc, out, _ = run_cli(["uncertainty", "--nt", "2", "--format", "json"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    meta = json.loads(lines[0])
    assert meta["columns"] == ["t", "dq", "dp", "product", "bound", "ratio"]
    assert meta["units"] == ["time", "length", "momentum", "action", "action", "1"]
    row = json.loads(lines[1])
    assert row["product"] == pytest.approx(0.625, rel=1e-12)


def test_out_writes_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "table.csv"
    rc, out, _ = run_cli(
        ["uncertainty", "--nt", "2", "--out", str(target)], capsys
    )
    assert rc == 0
    assert out == ""
    lines = target.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("t [time]")
    assert len(lines) == 3


@pytest.mark.parametrize("command", [["uncertainty", "--nt", "2"], ["validate"]])
def test_unwritable_out_exits_2(command, tmp_path, capsys, monkeypatch):
    # A missing directory and a directory itself: one error line, exit 2,
    # before the validation suite runs.
    def unreached(*args, **kwargs):
        raise AssertionError("validate ran before --out was opened")

    monkeypatch.setattr("ckstates.cli.validate", unreached)
    for target in (tmp_path / "missing" / "x", tmp_path):
        rc, out, err = run_cli(command + ["--out", str(target)], capsys)
        assert rc == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: [Errno ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["uncertainty", "--r", "0.7", "--phi", "2.2", "--n", "3"],
        ["trajectory", "--qc", "1", "--pc", "-0.5", "--r", "0.3"],
        ["hamiltonian", "--qc", "0.4", "--r", "0.9"],
        ["hamiltonian", "--n", "2", "--r", "0.9"],
    ],
    ids=["uncertainty", "trajectory", "hamiltonian-coherent", "hamiltonian-number"],
)
def test_out_file_equals_stdout(argv, fmt, tmp_path, capsys):
    # 5000 rows span two chunks of the table writer.
    argv = argv + ["--nt", "5000", "--format", fmt]
    target = tmp_path / "table.out"
    rc, stdout, _ = run_cli(argv, capsys)
    assert rc == 0
    rc, out, _ = run_cli(argv + ["--out", str(target)], capsys)
    assert rc == 0 and out == ""
    assert target.read_bytes() == stdout.encode("utf-8")
    rows = stdout.splitlines()[1:]
    assert len(rows) == 5000
    if fmt == "csv":
        ts = [float(row.split(",")[0]) for row in rows]
    else:
        ts = [json.loads(row)["t"] for row in rows]
    period = 2.0 * math.pi / make_params(1.0, 1.2, 1.0, 1.0).omega
    assert ts == pytest.approx([period * k / 4999 for k in range(5000)], abs=1e-12)


@pytest.mark.parametrize("value", ["-1.175494351e-38", "-2e+3"])
def test_negative_exponent_flag_value_after_a_space(value, capsys):
    argv = ["trajectory", "--qc", "0", "--nt", "3"]
    rc, spaced, err = run_cli(argv + ["--pc", value], capsys)
    assert rc == 0 and err == ""
    rc, joined, _ = run_cli(argv + [f"--pc={value}"], capsys)
    assert rc == 0 and spaced == joined
    _, rows = csv_rows(spaced)
    assert rows[0][2] == pytest.approx(float(value), rel=1e-12)


def _printf_table(columns, data, fmt):
    """The table text of the ``%`` row template, the renderer's reference."""
    if fmt == "csv":
        row = ",".join(["%.17g"] * len(columns)) + "\n"
    else:
        row = "{" + ", ".join(f"{json.dumps(c)}: %.17g" for c in columns) + "}\n"
    return "".join(map(row.__mod__, zip(*(col.tolist() for col in data))))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [1, 2, 4095, 4096, 4097, 65537])
def test_table_text_equals_the_printf_template(n, fmt, tmp_path, capsys):
    rng = np.random.default_rng(n)
    columns, units = ("t", "qc", "pc", "energy"), ("time", "length", "momentum", "energy")
    data = (
        np.linspace(-3.0, 50.0, n),
        rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n),
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        np.round(rng.standard_normal(n), 4),
    )
    # Zeros and values printed by '%' itself, in the middle of the second
    # chunk where there is one.
    odd = [0.0, -0.0, 1e15 + 0.25, 1e-300, -1e300, 5e-324, math.inf, -math.inf, math.nan]
    k = min(len(odd), n)
    at = min(4096 + 2048, n - k)
    data[3][at : at + k] = odd[:k]
    # Fallback values in different columns of one row: the first and the
    # last row, which at n = 4097 is a chunk of its own.
    for row, values in ((0, (math.inf, 1e15 + 0.25, -1e-300)), (n - 1, (1e-300, -math.inf, 2.5))):
        for column, value in zip(data, values):
            column[row] = value
    _write_table(columns, units, data, RunConfig(format=fmt))
    stdout = capsys.readouterr().out
    assert stdout.split("\n", 1)[1] == _printf_table(columns, data, fmt)
    target = tmp_path / "table.out"
    _write_table(columns, units, data, RunConfig(format=fmt, out=str(target)))
    assert target.read_bytes() == stdout.encode("ascii")


def test_repeat_runs_are_byte_identical(capsys):
    argv = ["uncertainty", "--r", "0.7", "--phi", "2.2", "--nt", "16"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


# ---------------------------------------------------------------- validate


def test_validate_default_point_passes(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(
        ["validate", "--format", "json", "--out", str(target)], capsys
    )
    assert rc == 0
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["total"] == len(payload["entries"])
    assert all(e["pass"] or e["skipped"] for e in payload["entries"])


def test_validate_tolerance_override_forces_failure(tmp_path, capsys):
    overrides = tmp_path / "tol.cfg"
    overrides.write_text("wronskian = 1e-300\n", encoding="utf-8")
    rc, out, _ = run_cli(["validate", "--tol-overrides", str(overrides)], capsys)
    assert rc == 1
    assert "failed" in out


def test_validate_rejects_unknown_tolerance(tmp_path, capsys):
    overrides = tmp_path / "tol.cfg"
    overrides.write_text("no_such = 1\n", encoding="utf-8")
    rc, _, err = run_cli(["validate", "--tol-overrides", str(overrides)], capsys)
    assert rc == 2
    assert "unknown tolerance" in err


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_validate_rejects_a_tolerance_that_no_measurement_can_meet(value, tmp_path, capsys):
    # A nan or negative tolerance would fail every entry it judges, whatever
    # was measured; the run stops before the suite, with one line.
    overrides = tmp_path / "tol.cfg"
    overrides.write_text(f"residual = {value}\n", encoding="utf-8")
    rc, out, err = run_cli(["validate", "--tol-overrides", str(overrides)], capsys)
    assert rc == 2
    assert out == ""
    assert err == f"error: tolerance residual must be >= 0, got {float(value)!r}\n"


# ---------------------------------------------------------------- exit codes


def test_overdamped_parameters_exit_2(capsys):
    rc, _, err = run_cli(["uncertainty", "--gamma", "2.5"], capsys)
    assert rc == 2
    assert "error:" in err


def test_bad_window_exits_2(capsys):
    rc, _, err = run_cli(["uncertainty", "--t0", "1", "--t1", "0.5"], capsys)
    assert rc == 2


def test_bad_nt_exits_2(capsys):
    rc, _, err = run_cli(["uncertainty", "--nt", "1"], capsys)
    assert rc == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--r", "nan"), ("--gamma", "nan"), ("--m0", "inf"), ("--omega0", "inf"),
     ("--qc", "nan"), ("--pc", "nan"), ("--pc", "inf")],
)
def test_non_finite_parameter_exits_2(flag, value, capsys):
    anchor = flag in ("--qc", "--pc")
    for command in ("trajectory", "hamiltonian", "wavefunction") if anchor else ("uncertainty",):
        rc, out, err = run_cli([command, flag, value, "--nt", "2"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_arithmetic_overflow_exits_2(capsys):
    # s = e^{gamma t/2} overflows a double at gamma = 1.2, t = 1200, and is
    # subnormal at t = -1200, where dq would overflow and dp print 0.  A
    # coherent energy's square overflows from |q_c| or |p_c| of about 1e154.
    # A is subnormal at t0 = -8846 here, and the grid width, about 20/A, overflows.
    far_back = ["--gamma=0.15959587833633063", "--r=16.889372953810675",
                "--phi=5.356785801894256", "--t0=-8846.357477648922"]
    cases = [
        (["wavefunction", *far_back, "--n=1"], "grid width leaves the double range"),
        (["wavefunction", *far_back, "--qc=1"], "grid width leaves the double range"),
        (["uncertainty", "--t0", "1200", "--nt", "2"], "OverflowError"),
        (["uncertainty", "--t0", "-1200", "--nt", "2"], "underflows"),
        (["hamiltonian", "--qc", "1e156", "--nt", "2"], "overflow encountered in square"),
        (["hamiltonian", "--pc", "1e156", "--nt", "2"], "overflow encountered in square"),
    ]
    for argv, reason in cases:
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert reason in err


@pytest.mark.parametrize(
    "command", ["uncertainty", "wavefunction", "trajectory", "hamiltonian", "validate"]
)
def test_subnormal_omega_squared_exits_2(command, capsys):
    # omega0^2 = 1e-320 is subnormal; hamiltonian printed a value 4e-6 off
    # with exit 0 before the parameters refused it.
    argv = [command, "--omega0", "1e-160", "--gamma", "1e-160", "--nt", "2"]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: omega0^2 - gamma^2/4") and err.count("\n") == 1


@pytest.mark.parametrize("t0", ["600", "-600", "-1000"])
def test_far_times_keep_the_product(t0, capsys):
    # e^{gamma t0} leaves the double range here, s = e^{gamma t0/2} does not.
    rc, out, err = run_cli(["uncertainty", "--t0", t0, "--nt", "2"], capsys)
    assert rc == 0 and err == ""
    for line in out.splitlines()[1:]:
        t, dq, dp, product, bound, ratio = map(float, line.split(","))
        assert abs(product - 0.625) <= 4 * math.ulp(0.625)
        assert all(map(math.isfinite, (dq, dp))) and dq > 0.0 and dp > 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["uncertainty", "--nt", "1000000000000000"],
        ["wavefunction", "--grid-points", "1000000000000000"],
    ],
)
def test_allocation_failure_exits_2(argv, capsys):
    # 8 PB per column: refused at allocation, before any memory is touched.
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: MemoryError") and err.count("\n") == 1


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@given(
    command=st.sampled_from(["uncertainty", "wavefunction", "trajectory", "hamiltonian"]),
    t0=st.floats(-1e4, 1e4),
    r=st.floats(0.0, 20.0),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    damping=st.floats(0.0, 0.99),
    n=st.integers(0, 8),
    point=st.none() | st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    spaced=st.booleans(),
    physics=st.just(None),
)
@example("trajectory", -30.0, 0.0, 0.0, 0.6, 0, (1.0, -1.0), True, None)
@example("trajectory", -50.0, 0.0, 0.0, 0.6, 0, (1.0, -1.0), False, None)
@example("uncertainty", 600.0, 0.0, 0.0, 0.6, 0, None, False, None)
@example("uncertainty", -600.0, 0.0, 0.0, 0.6, 0, None, True, None)
@example("wavefunction", -590.0, 0.0, 0.0, 0.6, 0, None, True, None)
@example(
    "wavefunction", 544.369653836779, 0.36012404277654764, 4.278141394781542,
    1.8342697425750452 / 2.0, 0, None, False, None,
)
@example(
    "trajectory", 393.84215968797685, 4.783355054177183, 3.784176256731654,
    1.7969854201884365 / 2.0, 0, (0.7713718408841093, 0.6609449339366158), True, None,
)
@example(
    "wavefunction", 9819.113021645418, 2.743126661491609, 1.7620647951763575,
    0.07991649356653331 / 2.0, 0, (-1.2417072772832722, 1.8918607183672496), True, None,
)
@example("uncertainty", 0.0, 0.0, 0.0, 0.6, 0, (0.0, -1.175494351e-38), True, None)
@example(  # the anchors of test_trajectory_starts_at_its_anchor_far_before_the_origin
    "trajectory", 30.31951331002506, 0.0, 0.0, 0.5390702488076116, 0,
    (-1.5607335631030184, 0.52160343231224), True,
    (1.1015355655430816, 1.4459579161401226, 1.6704174541434653),
)
@example(
    "trajectory", 57.09495706449228, 0.0, 0.0, 0.7485684024283055, 0,
    (0.028346833144979655, 1.1831109585044137), False,
    (2.6995163687758326, 0.6304713511087927, 0.6693831342543691),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_table_commands_at_the_domain_edge(
    command, t0, r, phi, damping, n, point, spaced, physics
):
    # Every input gives finite rows and a quiet stderr, or exit code 2 and
    # one error line; RuntimeWarnings are errors under the test settings.
    # A trajectory that exits 0 starts at its anchor.  Flags are passed as
    # "--flag value" or "--flag=value"; physics is (omega0, m0, hbar), or
    # None for the defaults 1, and gamma is 2 damping omega0.
    omega0, m0, hbar = physics or (1.0, 1.0, 1.0)
    flags = [("--gamma", 2.0 * damping * omega0), ("--r", r), ("--phi", phi), ("--t0", t0)]
    if physics is not None:
        flags += [("--omega0", omega0), ("--m0", m0), ("--hbar", hbar)]
    if point is None and command == "trajectory":
        point = (0.0, 0.0)
    if point is not None:
        flags += [("--qc", point[0]), ("--pc", point[1])]
    else:
        flags.append(("--n", n))
    argv = [command]
    for flag, value in flags:
        argv += [flag, repr(value)] if spaced else [f"{flag}={value!r}"]
    rc, out, err = _run_quiet(argv)
    if rc == 0:
        assert err == ""
        _, rows = csv_rows(out)
        assert rows and all(math.isfinite(x) for row in rows for x in row)
        if command == "trajectory":
            assert rows[0][1:3] == point
    else:
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_unknown_flag_exits_2(capsys):
    rc, _, _ = run_cli(["uncertainty", "--frequency", "3"], capsys)
    assert rc == 2


def test_parser_is_reused_across_calls(capsys):
    sequence = [
        ["--help"],
        ["uncertainty", "--frequency", "3"],
        ["uncertainty", "--r", "0.3", "--nt", "5"],
        ["trajectory", "--qc", "1", "--pc=-2e-3", "--nt", "4", "--format", "json"],
    ]
    _build_parser.cache_clear()
    reused = [run_cli(argv, capsys) for argv in sequence]
    assert _build_parser.cache_info().misses == 1
    assert [rc for rc, _, _ in reused] == [0, 2, 0, 0]
    for argv, result in zip(sequence, reused):
        _build_parser.cache_clear()
        assert run_cli(argv, capsys) == result


def test_help_exits_0(capsys):
    rc, out, _ = run_cli(["--help"], capsys)
    assert rc == 0
    assert "validate" in out


def test_closed_stdout_pipe_is_quiet(monkeypatch, capsys):
    # Piping into a pager that exits early must not raise.
    def broken(_text):
        raise BrokenPipeError

    monkeypatch.setattr("sys.stdout.write", broken)
    assert main(["uncertainty", "--nt", "2"]) == 0
    # So must --out naming a pipe whose reader has gone.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        assert main(["uncertainty", "--nt", "2", "--out", f"/dev/fd/{write_end}"]) == 0
    finally:
        os.close(write_end)
