"""ckstates benchmark: one closed-loop client, one single-threaded process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {validate,cli_tables}
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout; nothing is
installed.  BLAS and OpenMP pools are pinned to one thread.  Ops run
back to back for S seconds of wall time; each op's latency covers the
package call only, and its output is checked right after, outside the
timed region.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
Times are CPU seconds of the benchmark process (user + system,
``time.process_time``): the program runs single-threaded and waits on
nothing, so on an unshared core its CPU time is its latency, and CPU time
leaves out the time the operating system or a shared host's hypervisor
gives the core to others.  How much one CPU second does still drifts with
the neighbours' load, so op costs are gated in reference-kernel runs
(see reference.py): each op's CPU time divided by the kernel's, timed in
blocks right before and after the op.  ``cycle_ref_p50`` is the median
cost of one cycle of the workload's op mix (validate: one call;
cli_tables: the twelve table commands); ``ops_per_kref`` and
``rows_per_ref`` are ops per thousand and rows per one reference run of
op cost.  Rows are table rows for cli_tables and report entries (the
rows of the validate report) for validate.  ``setup_s`` is the median
over fresh interpreters of the CPU time from process launch to "package
imported, first inputs built".  Printed and recorded beside them, not
gated: the reference run's median CPU time ``ref_cpu_s``, the same
figures in CPU seconds (``cycle_cpu_p50_s``, ``op_cpu_p50_s``,
``rows_per_cpu_s``), ``op_cpu_p90_s`` (only when a
run has at least 100 ops, so that ten samples lie beyond it), and the
wall-clock ``op_wall_p50_s``, ``ops_per_wall_s`` and ``setup_wall_s``.

``--trace 1`` reports the per-layer metrics: the run spends S/2 seconds
untraced and S/2 seconds on the same op sequence with spans recorded
around the package's public functions (see spans.py); per-layer values
are per traced op; span times are wall-clock.  ``trace.overhead_s`` is
traced minus untraced median op CPU time.  ``oracle.check.<kind>.s`` is
the mean wall time of one-check ``validate`` calls made afterwards with
tracing off; ``worst_margin`` is the largest measured/tolerance over the
untraced half's report entries of a kind, and ``fail_frac`` is that
half's too, since the traced half replays the same inputs.  ``import.*``
come from ``python -X importtime -c "import ckstates"``.
Layers or checks a workload never reaches read 0.

Every run prints a human-readable summary (each metric with its unit and
sample count, plus fail_frac and the red and failed op counts), then one
JSON line: {"correct", "attempted", "failed", "metrics"}.  ``failed``
counts ops that raised, exited nonzero or failed their output check; a
report with a failing entry is a measured result, counted in fail_frac.
The full run record (commit or source digest, interpreter and library
versions, cores, thread settings, seed, sample counts) is written to
``perfbench/out/<workload>-seed<N>-trace<T>.json``, and the span log of
a traced run to ``perfbench/out/spans-<workload>.csv``.

Exit status: 0 when every output check passed, 1 when one failed (the
result line is still printed, with correct = false), 2 when the
benchmark cannot run at all, e.g. without the package sources.
"""

import os

# One single-threaded client: pin every BLAS/OpenMP pool before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
# Printed and recorded by every untraced run, but not gated.
UNGATED = {
    "ref_cpu_s": "s", "cycle_cpu_p50_s": "s", "op_cpu_p50_s": "s", "op_cpu_p90_s": "s",
    "rows_per_cpu_s": "1/s",
    "op_wall_p50_s": "s", "ops_per_wall_s": "1/s", "setup_wall_s": "s",
}
# Reference-kernel blocks (see reference.py): one before the first op, to
# warm up, and after each op one taking at least this share of its CPU time.
REF_WARMUP_S = 0.1
REF_SHARE = 0.03
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def _median_n(values):
    return statistics.median(values), len(values)


def _percentile(values, p):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# -- fresh-interpreter probes ------------------------------------------------


def setup_times(workload: str, seed: int) -> tuple:
    """CPU and wall seconds of each fresh-interpreter set-up probe."""
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(OUT)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        probe_cpu, ready = (float(x) for x in proc.stdout.split()[-2:])
        cpu.append(probe_cpu)
        wall.append(ready - start)
    return cpu, wall


IMPORT_MODULES = {
    "import.ckstates_s": "ckstates",
    "import.scipy.integrate_s": "scipy.integrate",
    "import.scipy.linalg_s": "scipy.linalg",
    "import.numpy_s": "numpy",
}


def import_breakdown() -> dict:
    """Cumulative import time of each module at its first import, from
    ``-X importtime``, median over fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ckstates"
    samples = {metric: [] for metric in IMPORT_MODULES}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"import probe failed:\n{proc.stderr}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) * 1e-6)
        for metric, module in IMPORT_MODULES.items():
            samples[metric].append(cumulative.get(module, 0.0))
    return {metric: _median_n(values) for metric, values in samples.items()}


# -- the closed loop ---------------------------------------------------------


def run_ops(workload, seconds: float, tracer=None) -> tuple:
    """Run ops 0, 1, ... back to back until ``seconds`` of wall time pass
    and the last cycle of the workload's op mix is complete.  A block of
    reference-kernel runs precedes op 0 and follows every op.

    Returns one (CPU seconds, wall seconds, outcome, error) per op
    attempted, and the mean CPU seconds of one reference run in each block,
    so that op i lies between blocks i and i + 1.
    """
    from workloads import Outcome

    ops, refs = [], [reference.block(REF_WARMUP_S)]
    start = time.perf_counter()
    i = 0
    while i % workload.cycle or time.perf_counter() - start < seconds:
        inp = workload.op_input(i)
        if tracer is not None:
            tracer.op = i
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = workload.run(inp)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            cpu, wall = time.process_time() - c0, time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            ops.append((cpu, wall, Outcome(), f"op {i}: {type(exc).__name__}: {exc}"))
        else:
            cpu, wall = time.process_time() - c0, time.perf_counter() - t0
            ops.append((cpu, wall, workload.check(inp, result), None))
        refs.append(reference.block(REF_SHARE * cpu))
        i += 1
    return ops, refs


def time_checks(workload) -> dict:
    """Seconds of each one-check validate call over the workload's first
    ``check_timing_ops`` ops, per check kind."""
    per_kind = {}
    for i in range(workload.check_timing_ops):
        for params, schedule in workload.schedules(workload.op_input(i)):
            t0 = time.perf_counter()
            workload.oracle.validate(params, schedule=schedule)
            per_kind.setdefault(schedule[0].name, []).append(time.perf_counter() - t0)
    return per_kind


def outcome_counts(ops) -> dict:
    failed = sum(1 for _, _, out, err in ops if err or out.problems)
    red = sum(1 for _, _, out, err in ops if not (err or out.problems) and out.red)
    return {"attempted": len(ops), "failed": failed, "red": red,
            "fail_frac": (failed + red) / len(ops)}


def end_to_end(ops, refs: list, setup: tuple, cycle: int) -> dict:
    cpu = [c for c, _, _, _ in ops]
    wall = [w for _, w, _, _ in ops]
    rows = sum(out.rows for _, _, out, _ in ops)
    n = len(ops)
    # Each op's CPU time in reference runs, timed in the blocks around it.
    cost = [c / ((refs[k] + refs[k + 1]) / 2.0) for k, c in enumerate(cpu)]
    # Runs end on whole cycles of the op mix.  A cycle's total is steadier
    # than single-op figures when op costs differ by command.
    cycles = [sum(cost[k:k + cycle]) for k in range(0, n, cycle)]
    cycles_s = [sum(cpu[k:k + cycle]) for k in range(0, n, cycle)]
    return {
        "setup_s": _median_n(setup[0]),
        "setup_wall_s": _median_n(setup[1]),
        "cycle_ref_p50": _median_n(cycles),
        "ops_per_kref": (1000.0 * n / sum(cost), n),
        "rows_per_ref": (rows / sum(cost), n),
        "ref_cpu_s": _median_n(refs),
        "cycle_cpu_p50_s": _median_n(cycles_s),
        "op_cpu_p50_s": (statistics.median(cpu), n),
        "op_cpu_p90_s": (_percentile(cpu, 90), n),
        "rows_per_cpu_s": (rows / sum(cpu), n),
        "op_wall_p50_s": (statistics.median(wall), n),
        "ops_per_wall_s": (n / sum(wall), n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def per_layer(untraced, traced, tracer, check_times) -> dict:
    from workloads import CHECK_KINDS, MARGIN_KINDS

    n = len(traced)
    values = {}
    for span in tracer.names:
        calls, _, self_s = tracer.stats[span]
        values[f"{span}.calls"] = (calls / n, n)
        values[f"{span}.self_s"] = (self_s / n, n)
        for key in ("points", "steps", "bytes_computed"):
            values[f"{span}.{key}"] = (tracer.counts[span][key] / n, n)
    values["cli.bytes_out"] = (sum(out.bytes_out for _, _, out, _ in traced) / n, n)
    values.update(import_breakdown())
    for kind in CHECK_KINDS:
        times = check_times.get(kind, [])
        values[f"oracle.check.{kind}.s"] = (statistics.fmean(times) if times else 0.0, len(times))
    # The traced half replays the untraced half's inputs, so accuracy
    # figures come from the untraced half alone, one sample per input.
    for kind in MARGIN_KINDS:
        margins = [out.margins[kind] for _, _, out, _ in untraced if kind in out.margins]
        values[f"oracle.check.{kind}.worst_margin"] = (max(margins, default=0.0), len(margins))
    p50_traced = statistics.median(cpu for cpu, _, _, _ in traced)
    p50_untraced = statistics.median(cpu for cpu, _, _, _ in untraced)
    values["trace.overhead_s"] = (p50_traced - p50_untraced, len(untraced) + len(traced))
    values["fail_frac"] = (outcome_counts(untraced)["fail_frac"], len(untraced))
    return values


# -- run record --------------------------------------------------------------


def run_record(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    workloads_spec = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads_spec:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads_spec)}")
    if not (SRC / "ckstates" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    setup = None if args.trace else setup_times(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    import ckstates

    if not Path(ckstates.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"ckstates imported from {ckstates.__file__}, not {SRC}")
    try:
        if args.trace:
            from spans import SPAN_CAP, Tracer

            untraced, _ = run_ops(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = run_ops(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            check_times = time_checks(workload)
            ops = untraced + traced
            values = per_layer(untraced, traced, tracer, check_times)
            tracer.write_spans(OUT / f"spans-{args.workload}.csv")
            extra = {"spans_recorded": tracer.spans_recorded, "spans_kept": min(tracer.spans_recorded, SPAN_CAP)}
        else:
            ops, refs = run_ops(workload, args.seconds)
            values = end_to_end(ops, refs, setup, workload.cycle)
            extra = {key: values[key][0] for key in UNGATED}
    finally:
        workload.close()

    counts = outcome_counts(ops)
    problems = [p for _, _, out, _ in ops for p in out.problems]
    errors = [err for _, _, _, err in ops if err]
    metrics, samples = {}, {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']!r} is not produced by this benchmark")
        value, n = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        samples[m["name"]] = n
    record = dict(run_record(args), why=workloads_spec[args.workload], outcome=counts,
                  metrics={k: dict(v, n=samples[k]) for k, v in metrics.items()},
                  **extra,
                  op_cpu_s=[cpu for cpu, _, _, _ in ops],
                  op_wall_s=[wall for _, wall, _, _ in ops],
                  red_ops=[i for i, (_, _, out, _) in enumerate(ops) if out.red],
                  problems=problems[:50], errors=errors[:50])
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{args.workload:<11} {name:<48} {metric['value']:>14.6g} {metric['unit']:<10} n={samples[name]}")
    if not args.trace:
        # Not gated.  A tail percentile is reported only with at least ten
        # samples beyond it.
        for key, unit in UNGATED.items():
            value, n = values[key]
            shown = f"{'-':>14} {unit:<10} n={n} < 100" if key == "op_cpu_p90_s" and n < 100 \
                else f"{value:>14.6g} {unit:<10} n={n}"
            print(f"{args.workload:<11} {key:<48} {shown}")
    print(f"{args.workload:<11} ops attempted {counts['attempted']}, red {counts['red']}, "
          f"failed {counts['failed']}, fail_frac {counts['fail_frac']:.6g}")
    for line in (problems + errors)[:10]:
        print(f"output check failed: {line}", file=sys.stderr)
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
