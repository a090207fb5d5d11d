"""Byte-identity corpus of the ``ckstates`` command line.

Runs a fixed, seeded list of commands through ``ckstates.cli.main`` in one
process and writes, for the k-th command, its stdout, stderr and exit code
to ``OUT/k.out``, ``OUT/k.err`` and ``OUT/k.rc`` (k zero-padded to three
digits), and the argv lists to ``OUT/manifest.json``.  Compare two trees
with

    PYTHONPATH=TREE_A/src python tools/corpus.py A
    PYTHONPATH=TREE_B/src python tools/corpus.py B
    python tools/corpus.py compare A B

``compare`` prints one line per differing file and exits 1 if any differs.
For a ``validate --format json`` output the line names the entry kinds
whose bytes changed, followed by a line for each entry whose pass flag
flipped; any other differing file is printed by name alone.

The list holds

* the six table kinds (``uncertainty``, number and coherent
  ``wavefunction``, ``trajectory``, number and coherent ``hamiltonian``),
  in CSV and JSON, at the defaults and at eight seeded points covering
  gamma/(2 omega0) up to 0.974, r up to 1.5, n up to 2, t0 from -20 to 10
  and ``--grid-points`` 600, 4097 and 16385;
* usage errors: malformed, unknown and unconvertible ``key = value``
  files, refused tolerances, ``--tol-overrides`` given to a table
  command, ``trajectory --n 1``, overdamped parameters and ``--nt 1``;
* ``--help`` at the top level and for each subcommand, at 80 columns;
* ``validate --format json`` at gamma in {0, 0.4, 1.2, 1.9, 1.95}, at 20
  seeded draws in the benchmark's ranges (m0, omega0 and hbar
  log-uniform in [0.5, 2], gamma/(2 omega0) uniform in [0, 0.975]) and at
  ``--m0 1e200``, ``--hbar 1e50``, ``--hbar 1e-50`` and ``--hbar 1e308``,
  each plain and under ``--flip-b-sign``;
* the number and coherent ``wavefunction`` at ``--hbar 1e308``, where
  2 hbar overflows;
* ``hamiltonian --hbar 1e308 --omega0 1e10 --nt 2`` in CSV and JSON,
  whose energies, about 6.25e317, leave the double range.

The input files go to ``OUT/inputs`` and the commands run with ``OUT`` as
the working directory, so error messages that quote a path read the same
for every ``OUT``.  Outputs are not checked in: ``np.cos`` and ``np.sin``
may round differently on another machine.  The 194 commands take about
4 s and write about 24 MB on a 2-vCPU x86-64 VM.
"""

import contextlib
import io
import json
import math
import os
import random
import sys
from pathlib import Path

TABLE_KINDS = (
    ("uncertainty",),
    ("wavefunction",),
    ("wavefunction", "--qc", "0.7", "--pc", "-1.3"),
    ("trajectory", "--qc", "0.7", "--pc", "-1.3"),
    ("hamiltonian",),
    ("hamiltonian", "--qc", "0.7", "--pc", "-1.3"),
)

INPUTS = {
    "config_malformed.cfg": "gamma\n",
    "config_unknown.cfg": "wobble = 3\n",
    "config_abc.cfg": "gamma = abc\n",
    "config_sweep.cfg": "# reference sweep\ngamma = 0.8\nr = 0.5\nnt = 5\n",
    "tol_unknown.cfg": "no_such = 1\n",
    "tol_abc.cfg": "residual = abc\n",
    "tol_nan.cfg": "residual = nan\n",
    "tol_negative.cfg": "residual = -1\n",
    "tol_tight.cfg": "wronskian = 1e-300\n",
}


def _flags(**values) -> list:
    return [f"--{key.replace('_', '-')}={value!r}" for key, value in values.items()]


def _log_uniform(rng: random.Random) -> float:
    """A unit scale drawn log-uniform in [0.5, 2], as the benchmark draws them."""
    return math.exp(rng.uniform(math.log(0.5), math.log(2.0)))


def _table_points() -> list:
    """Eight points whose k, r, t0 and n sweep their ranges in a seeded order."""
    rng = random.Random(2801)
    ks = [0.974 * i / 7 for i in range(8)]
    rs = [1.5 * i / 7 for i in range(8)]
    t0s = [-20.0 + 30.0 * i / 7 for i in range(8)]
    for column in (rs, t0s):
        rng.shuffle(column)
    points = []
    for i in range(8):
        omega0 = _log_uniform(rng)
        flags = _flags(
            omega0=omega0,
            m0=_log_uniform(rng),
            hbar=_log_uniform(rng),
            gamma=2.0 * omega0 * ks[i],
            r=rs[i],
            phi=rng.uniform(0.0, 2.0 * math.pi),
            t0=t0s[i],
            nt=97,
            grid_points=(600, 4097, 16385)[i // 3],
        )
        points.append((flags, i % 3))
    return points


def _validate_points() -> list:
    points = [_flags(gamma=gamma) for gamma in (0.0, 0.4, 1.2, 1.9, 1.95)]
    rng = random.Random(2802)
    for _ in range(20):
        omega0 = _log_uniform(rng)
        points.append(_flags(
            omega0=omega0,
            m0=_log_uniform(rng),
            hbar=_log_uniform(rng),
            gamma=2.0 * omega0 * rng.uniform(0.0, 0.975),
        ))
    points += [["--m0", "1e200"], ["--hbar", "1e50"], ["--hbar", "1e-50"], ["--hbar", "1e308"]]
    return points


def commands() -> list:
    """The corpus's argv lists, in order."""
    argvs = []
    for fmt in ("csv", "json"):
        for kind in TABLE_KINDS:
            argvs.append([*kind, "--format", fmt])
            for flags, n in _table_points():
                n_flag = ["--n", str(n)] if len(kind) == 1 else []
                argvs.append([*kind, *flags, *n_flag, "--format", fmt])
    for name in ("config_malformed", "config_unknown", "config_abc", "config_sweep"):
        argvs.append(["uncertainty", "--config", f"inputs/{name}.cfg"])
    argvs.append(["uncertainty", "--config", "inputs/missing.cfg"])
    for name in ("tol_unknown", "tol_abc", "tol_nan", "tol_negative", "tol_tight"):
        argvs.append(["validate", "--tol-overrides", f"inputs/{name}.cfg"])
    for kind in ("uncertainty", "wavefunction", "trajectory", "hamiltonian"):
        argvs.append([kind, "--nt", "2", "--tol-overrides", "inputs/tol_tight.cfg"])
    argvs += [
        ["trajectory", "--n", "1"],
        ["uncertainty", "--gamma", "2.5"],
        ["uncertainty", "--nt", "1"],
        ["uncertainty", "--frequency", "3"],
        ["--help"],
    ]
    for kind in ("uncertainty", "wavefunction", "trajectory", "hamiltonian", "validate"):
        argvs.append([kind, "--help"])
    for flags in _validate_points():
        argvs.append(["validate", *flags, "--format", "json"])
        argvs.append(["validate", *flags, "--format", "json", "--flip-b-sign"])
    argvs.append(["wavefunction", "--hbar", "1e308"])
    argvs.append(["wavefunction", "--hbar", "1e308", "--qc", "0.7", "--pc", "-1.3"])
    for fmt in ("csv", "json"):
        argvs.append(["hamiltonian", "--hbar", "1e308", "--omega0", "1e10", "--nt", "2",
                      "--format", fmt])
    return argvs


def main(out: str) -> None:
    root = Path(out).resolve()
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    for name, text in INPUTS.items():
        (root / "inputs" / name).write_text(text, encoding="utf-8")
    os.chdir(root)
    # argparse wraps help text to the terminal width.
    os.environ["COLUMNS"] = "80"
    from ckstates.cli import main as cli_main

    argvs = commands()
    for k, argv in enumerate(argvs):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli_main(argv)
        (root / f"{k:03d}.out").write_text(stdout.getvalue(), encoding="utf-8")
        (root / f"{k:03d}.err").write_text(stderr.getvalue(), encoding="utf-8")
        (root / f"{k:03d}.rc").write_text(f"{rc}\n", encoding="utf-8")
    manifest = json.dumps(argvs, indent=1) + "\n"
    (root / "manifest.json").write_text(manifest, encoding="utf-8")


def _entries(path: Path):
    """The entries of the validate JSON report in ``path``, or None if it
    holds no report (a run that failed before printing one)."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))["entries"]
    except ValueError:
        return None


def compare(a: str, b: str) -> int:
    """Print how the corpus outputs in directories ``a`` and ``b`` differ;
    return 1 if any file differs, else 0."""
    root_a, root_b = Path(a), Path(b)
    argvs = json.loads((root_a / "manifest.json").read_text(encoding="utf-8"))
    names = sorted({p.name for root in (root_a, root_b) for p in root.iterdir() if p.is_file()})
    differ = 0
    for name in names:
        path_a, path_b = root_a / name, root_b / name
        both = path_a.is_file() and path_b.is_file()
        if both and path_a.read_bytes() == path_b.read_bytes():
            continue
        differ = 1
        k, _, suffix = name.partition(".")
        argv = argvs[int(k)] if k.isdigit() and int(k) < len(argvs) else []
        is_report = both and suffix == "out" and argv[:1] == ["validate"] and "json" in argv
        entries_a, entries_b = (_entries(p) if is_report else None for p in (path_a, path_b))
        if entries_a is None or entries_b is None:
            print(name)
            continue
        kinds = sorted({x["check_name"] for x, y in zip(entries_a, entries_b) if x != y})
        if len(entries_a) != len(entries_b):
            kinds.append(f"entry count {len(entries_a)} -> {len(entries_b)}")
        print(f"{name} {' '.join(argv)}: {', '.join(kinds)}")
        for x, y in zip(entries_a, entries_b):
            if x["pass"] != y["pass"]:
                flip = f"{x['pass']} -> {y['pass']}"
                print(f"  pass {flip}: {x['check_name']} {x['parameter_tuple']}")
    return differ


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        raise SystemExit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        raise SystemExit(
            "usage: PYTHONPATH=TREE/src python tools/corpus.py OUT\n"
            "       python tools/corpus.py compare OUT_A OUT_B"
        )
    main(sys.argv[1])
