"""Where the coherent energy's square leaves the double range."""

import math

from ckstates.cli import main

# sqrt(DBL_MAX) = 1.3407807929942596e154: its square is still finite, the
# square of the next double up overflows.
EDGE = math.sqrt(1.7976931348623157e308)


def run_anchor(flag, value, capsys):
    # A window of 1e-300 keeps both rows at the anchor (qc, pc) itself.
    rc = main(["hamiltonian", f"{flag}={value!r}", "--t1", "1e-300", "--nt", "2"])
    out, err = capsys.readouterr()
    return rc, out, err


def test_overflow_threshold(capsys):
    below = [1.34e154, EDGE, math.nextafter(EDGE, 0.0), 1.3e154]
    for flag in ("--qc", "--pc"):
        for v in below + [-v for v in below]:
            rc, out, err = run_anchor(flag, v, capsys)
            assert rc == 0 and err == ""
            energies = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
            assert len(energies) == 2
            assert all(math.isfinite(h) and h >= 0.5 * v * v for h in energies)
        for big in (1.35e154, math.nextafter(EDGE, math.inf), 1e200, math.inf):
            for v in (big, -big):
                rc, out, err = run_anchor(flag, v, capsys)
                assert rc == 2
                assert out == ""
                assert err.startswith("error:") and err.count("\n") == 1
                if math.isfinite(v):
                    assert "overflow encountered in square" in err
