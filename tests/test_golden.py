"""CLI output frozen byte for byte.

Each report case runs ``lospa-eval compute`` on committed truth/estimate
files and compares the report with one frozen before the array-based core
replaced the per-target objects (cases 1 and 2) or before the report
became per-step columns (case 3).  Positions are distinct and displacements
irregular, so no two pairings tie and the optimal permutation is unique.

The demo case compares the whole stdout of ``lospa-eval demo`` with a copy
frozen before the demo read its values from its evaluation reports.
"""

from pathlib import Path

import pytest

from lospa.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    # 2-D CSV, one swapped pair at k=3, labelled penalty on, LSAP solver.
    (
        "truth_2d.csv", "est_2d.csv",
        ["--p", "2", "--alpha", "0.5", "--metric", "euclidean", "--backend", "optimal"],
        "report_2d_euclidean_optimal.json",
    ),
    # 3-D JSON, swaps at k=5 and k=6, q-norm base metric, enumeration solver.
    (
        "truth_3d.json", "est_3d.json",
        ["--p", "1", "--alpha", "0.5", "--metric", "pnorm:1", "--backend", "brute"],
        "report_3d_pnorm1_brute.json",
    ),
    # 2 targets at negative, non-consecutive k, one exact match (prints 0),
    # displacements near 1e-6 (exponent-form floats), a swap at k=0; alpha=0
    # echoes as 0 and one solve serves both columns.
    (
        "truth_2t_neg.csv", "est_2t_neg.csv",
        ["--p", "1.5", "--alpha", "0", "--metric", "pnorm:3", "--backend", "optimal"],
        "report_2t_pnorm3_alpha0.json",
    ),
]


@pytest.mark.parametrize("truth, est, args, expected", CASES, ids=[c[3] for c in CASES])
def test_report_bytes(truth, est, args, expected, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["compute", "--truth", str(GOLDEN / truth), "--est", str(GOLDEN / est), *args,
         "--out", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == (GOLDEN / expected).read_bytes()


def test_demo_bytes(capsysbinary):
    assert main(["demo"]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / "demo.txt").read_bytes()
