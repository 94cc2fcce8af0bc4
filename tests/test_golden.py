"""Golden reports: every command at its defaults, plus four `iterate`
variants, reproduces its committed report.csv cell by cell.

Integers and strings (empty cells included) must match exactly, floats to
1e-12 relative.  The error cells of the oracle commands hold roundoff, so
they are checked against the tolerance of their own command instead.

An intended output change regenerates the files it moves in the same
change, with `PYTHONPATH=src python tests/test_golden.py CASE ...`, which
rewrites only the named cases (the keys of CASES); with no argument it
rewrites all of them.  The diff then shows the moved cells.  Name the
cases: a full rewrite can also move last-digit cells of files the change
does not touch.
"""

import math
from pathlib import Path

import pytest

from ibodylab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "eigen-check": ["eigen-check"],
    "radon-oracle": ["radon-oracle"],
    "ellipsoid-check": ["ellipsoid-check"],
    "iterate": ["iterate"],
    "multiplier-bound": ["multiplier-bound"],
    "smoothing-gain": ["smoothing-gain"],
    "cap-scaling": ["cap-scaling"],
    "iterate-s2": ["iterate", "--representation", "s2"],
    "iterate-geometric-d5": ["iterate", "--method", "geometric", "--dim", "5"],
    "iterate-raw-power": ["iterate", "--mode", "raw"],
    "iterate-uncorrected": ["iterate", "--mode", "uncorrected"],
}

ERROR_TOLERANCES = {
    "abs_error": cli.EIGEN_TOL,
    "max_coeff_error": cli.ORACLE_TOL,
    "rel_sup_error": cli.ELLIPSOID_TOL,
}


def _run(argv, out_dir: Path) -> str:
    code = cli.main(argv + ["--out", str(out_dir)])
    assert code == 0
    return (out_dir / "report.csv").read_text()


def _cell_matches(column: str, got: str, want: str) -> bool:
    try:
        return int(got) == int(want)
    except ValueError:
        pass
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if column in ERROR_TOLERANCES:
        return 0.0 <= g <= ERROR_TOLERANCES[column]
    return math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path, capsys):
    got = _run(CASES[case], tmp_path).splitlines()
    capsys.readouterr()
    want = (GOLDEN / f"{case}.csv").read_text().splitlines()
    assert got[0] == want[0], "header changed"
    assert len(got) == len(want), "row count changed"
    header = want[0].split(",")
    moved = [
        (i, col, g, w)
        for i, (grow, wrow) in enumerate(zip(got[1:], want[1:]), start=1)
        for col, g, w in zip(header, grow.split(","), wrow.split(","), strict=True)
        if not _cell_matches(col, g, w)
    ]
    assert not moved, f"cells moved (row, column, got, golden): {moved}"


if __name__ == "__main__":
    import sys
    import tempfile

    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases {unknown}; the cases are {sorted(CASES)}")
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{name}.csv").write_text(_run(CASES[name], Path(tmp)))
