"""The lospa-eval command line: compute, demo, version, exit codes."""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lospa.cli
from lospa import SolverBackend, __version__, run_demo, solve_stack
from lospa.cli import main
from lospa.constants import ABS_TOL_TRIANGLE

from helpers import ESTIMATE_POINTS, TRUTH_POINTS, csv_text, json_doc, source_tree_env


@pytest.fixture
def traj_files(tmp_path):
    truth = tmp_path / "truth.csv"
    est = tmp_path / "est.csv"
    steps_truth = [(k, [[x] for x in TRUTH_POINTS]) for k in range(3)]
    steps_est = [(k, [[x] for x in ESTIMATE_POINTS[k]]) for k in range(3)]
    truth.write_text(csv_text(steps_truth, t=3, nx=1))
    est.write_text(csv_text(steps_est, t=3, nx=1))
    return truth, est


def run_compute(truth, est, *extra):
    return main(
        [
            "compute",
            "--truth", str(truth),
            "--est", str(est),
            "--p", "2",
            "--alpha", "1",
            "--metric", "euclidean",
            *extra,
        ]
    )


class TestCompute:
    def test_stdout_report(self, traj_files, capsys):
        truth, est = traj_files
        assert run_compute(truth, est) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params_echo"]["alpha"] == 1.0
        assert doc["per_step"][0]["lospa"] == pytest.approx(0.1, abs=1e-9)
        assert doc["per_step"][2]["lospa"] == pytest.approx(1.0049876, abs=1e-6)
        assert doc["per_step"][2]["ospa"] == pytest.approx(0.1, abs=1e-9)

    def test_out_file_and_determinism(self, traj_files, tmp_path):
        truth, est = traj_files
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_compute(truth, est, "--out", str(out1)) == 0
        assert run_compute(truth, est, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_inputs(self, tmp_path, capsys):
        steps_truth = [(0, [[x] for x in TRUTH_POINTS])]
        steps_est = [(0, [[x] for x in ESTIMATE_POINTS[1]])]
        truth = tmp_path / "truth.json"
        est = tmp_path / "est.json"
        truth.write_text(json.dumps(json_doc(steps_truth, t=3, nx=1)))
        est.write_text(json.dumps(json_doc(steps_est, t=3, nx=1)))
        assert run_compute(truth, est) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["per_step"][0]["lospa"] == pytest.approx(0.8225975, abs=1e-6)

    def test_format_flag_overrides_extension(self, traj_files, tmp_path, capsys):
        truth, est = traj_files
        renamed = tmp_path / "estimate.dat"
        renamed.write_text(est.read_text())
        assert run_compute(truth, renamed, "--format", "csv") == 0
        assert json.loads(capsys.readouterr().out)["per_step"]

    def test_unknown_extension_without_format(self, traj_files, tmp_path, capsys):
        truth, est = traj_files
        renamed = tmp_path / "estimate.dat"
        renamed.write_text(est.read_text())
        assert run_compute(truth, renamed) == 2
        assert "--format" in capsys.readouterr().err

    def test_shape_flags_for_bare_headers(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        est = tmp_path / "est.csv"
        truth.write_text("k,a,b,c\n0,-10,0,10\n")
        est.write_text("k,a,b,c\n0,-10.1,0.1,10.1\n")
        code = run_compute(truth, est, "--t", "3", "--nx", "1")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["per_step"][0]["lospa"] == pytest.approx(0.1, abs=1e-9)

    def test_brute_backend(self, traj_files, capsys):
        truth, est = traj_files
        assert run_compute(truth, est, "--backend", "brute") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["backend"] == "brute"
        assert doc["per_step"][1]["lospa"] == pytest.approx(0.8225975, abs=1e-6)

    def test_pnorm_metric(self, traj_files, capsys):
        truth, est = traj_files
        assert run_compute(truth, est, "--metric", "pnorm:1") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params_echo"]["base_metric"] == "pnorm:1"


class TestComputeErrors:
    def test_missing_file(self, traj_files, capsys):
        truth, _ = traj_files
        assert run_compute(truth, "no_such_file.csv") == 2
        assert "error" in capsys.readouterr().err

    def test_nan_input(self, traj_files, tmp_path, capsys):
        truth, _ = traj_files
        bad = tmp_path / "bad.csv"
        bad.write_text("# t=3 nx=1\nk,x_1_1,x_2_1,x_3_1\n0,-10,nan,10\n")
        assert run_compute(truth, bad) == 2
        assert "line 3" in capsys.readouterr().err

    def test_timestep_mismatch(self, traj_files, tmp_path, capsys):
        truth, est = traj_files
        short = tmp_path / "short.csv"
        short.write_text(
            csv_text([(0, [[x] for x in ESTIMATE_POINTS[0]])], t=3, nx=1)
        )
        assert run_compute(truth, short) == 2

    def test_bad_parameters(self, traj_files, capsys):
        truth, est = traj_files
        assert main(
            ["compute", "--truth", str(truth), "--est", str(est),
             "--p", "0.5", "--alpha", "1", "--metric", "euclidean"]
        ) == 2
        assert main(
            ["compute", "--truth", str(truth), "--est", str(est),
             "--p", "2", "--alpha", "-1", "--metric", "euclidean"]
        ) == 2
        assert main(
            ["compute", "--truth", str(truth), "--est", str(est),
             "--p", "2", "--alpha", "1", "--metric", "taxicab"]
        ) == 2
        assert "taxicab" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha, scale", [("1e200", 1.0), ("1", 1e200)], ids=["alpha", "coords"])
    def test_overflow_is_one_line_exit_2(self, tmp_path, capsys, alpha, scale):
        truth = tmp_path / "truth.csv"
        est = tmp_path / "est.csv"
        truth.write_text(csv_text([(0, [[0.0], [scale]])], t=2, nx=1))
        est.write_text(csv_text([(0, [[scale], [0.0]])], t=2, nx=1))
        code = main(
            ["compute", "--truth", str(truth), "--est", str(est),
             "--p", "2", "--alpha", alpha, "--metric", "euclidean"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert "overflow" in err and "NaN" not in err

    def test_overflow_of_the_labelled_sum_alone_is_one_line_exit_2(self, tmp_path, capsys):
        # b**p = 1.69e308 is finite; b**p + alpha**p = 2.69e308 is not.
        states = tmp_path / "states.csv"
        states.write_text(csv_text([(0, [[0.0], [1.3e154]])], t=2, nx=1))
        code = main(
            ["compute", "--truth", str(states), "--est", str(states),
             "--p", "2", "--alpha", "1e154", "--metric", "euclidean"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("lospa-eval: error: ") and err.count("\n") == 1
        assert "overflow" in err

    @pytest.mark.parametrize("backend", ["optimal", "brute"])
    def test_overflowing_total_is_one_line_exit_2(self, tmp_path, capsys, backend):
        # Every cost, 1.69e308, is finite; a total of two is not.
        truth, est = tmp_path / "truth.csv", tmp_path / "est.csv"
        truth.write_text(csv_text([(0, [[0.0], [0.0]])], t=2, nx=1))
        est.write_text(csv_text([(0, [[1.3e154], [1.3e154]])], t=2, nx=1))
        code = main(
            ["compute", "--truth", str(truth), "--est", str(est), "--p", "2",
             "--alpha", "0.5", "--metric", "euclidean", "--backend", backend]
        )
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == (
            "lospa-eval: error: the total cost of an optimal pairing overflows the float64 range\n"
        )

    def test_header_names_contradicting_the_sidecar(self, traj_files, tmp_path, capsys):
        truth, _ = traj_files
        bad = tmp_path / "bad.csv"
        bad.write_text("# t=3 nx=1\nk,x_1_1,x_1_2,x_1_3\n0,-10,0,10\n")
        assert run_compute(truth, bad) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "line 2: header names give t=1 nx=3, but the declared shape is t=3 nx=1" in err

    def test_shape_flags_far_larger_than_the_file(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        one.write_text(json.dumps(json_doc([(0, [[1.0]])], t=1, nx=1)))
        assert run_compute(one, one, "--t", "100000", "--nx", "100000") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "steps[0]" in err and "(100000, 100000)" in err

    @pytest.mark.parametrize(
        "name, text, flags, where",
        [
            ("long_cell.csv", "# t=1 nx=1\nk,x_1_1\n0," + "9" * 131073 + "\n", [], "line 3"),
            ("long_name.csv", "k," + "y" * 131073 + "\n0,1.0\n", [], "line 1"),
            ("open_quote.csv", '# t=1 nx=1\nk,x_1_1\n0,"1.0\n', [], "line 3"),
            ("quoted_cell.csv", '# t=1 nx=1\nk,x_1_1\n0,"1.5"\n', [], "line 3"),
            ("quoted_header.csv", '"k","x_1_1"\n0,1.5\n', [], "line 1"),
            ("deep.json", '{"t": 1, "nx": 1, "steps": [{"k": 0, "targets": '
             + "[" * 1000 + "]" * 1000 + "}]}", [], "deep.json"),
            ("long_index.csv", "k,x_" + "9" * 4301 + "_1\n0,1.0\n", [], "line 1"),
            ("long_sidecar.csv", "# t=" + "9" * 4301 + " nx=1\nk,x_1_1\n0,1.0\n", [],
             "line 1"),
            ("big_k.csv", f"# t=1 nx=1\nk,x_1_1\n{10**30},1.0\n", [], "line 3"),
            ("big_k.json", f'{{"t": 1, "nx": 1, "steps": [{{"k": {10**30}, "targets": [[1.0]]}}]}}',
             [], "steps[0]"),
            ("long_k.csv", "# t=1 nx=1\nk,x_1_1\n" + "1" * 4301 + ",1.0\n", [],
             "line 3: a number of 4301 digits is too large"),
            ("long_k.json", '{"t": 1, "nx": 1, "steps": [{"k": ' + "1" * 4301
             + ', "targets": [[1.0]]}]}', [], "steps[0]: time index: a number of 4301 digits"),
            ("t0.csv", "# t=0 nx=1\nk,x_1_1\n0,1.0\n", [],
             "t0.csv: t and nx must be >= 1, got t=0 nx=1"),
            ("ok.csv", "# t=1 nx=1\nk,x_1_1\n0,1.0\n", ["--nx", "0"],
             "ok.csv: t and nx must be >= 1, got t=1 nx=0"),
            ("abc.csv", "k,a,b,c\n0,1,2,3\n", ["--t", "2", "--nx", "1"],
             "line 1: header has 4 columns, expected 1 + t*nx = 3 for t=2 nx=1"),
            ("t0.json", '{"t": 0, "nx": 1, "steps": [{"k": 0, "targets": [[1.0]]}]}', [],
             "t0.json: t and nx must be >= 1, got t=0 nx=1"),
            ("ok.json", '{"t": 1, "nx": 1, "steps": [{"k": 0, "targets": [[1.0]]}]}',
             ["--t", "0"], "ok.json: t and nx must be >= 1, got t=0 nx=1"),
            ("no_k.json", '{"t": 1, "nx": 1, "steps": [{"targets": [[1.0]]}]}', [],
             "steps[0]: expected an object with 'k' and 'targets'"),
            ("step_5.json", '{"t": 1, "nx": 1, "steps": [5]}', [],
             "steps[0]: expected an object with 'k' and 'targets'"),
        ],
        ids=["cell_131073_chars", "header_name_131073_chars", "unterminated_quote",
             "quoted_number", "quoted_header", "json_1000_deep", "header_index_4301_digits",
             "sidecar_t_4301_digits", "csv_k_1e30", "json_k_1e30", "csv_k_4301_digits",
             "json_k_4301_digits", "csv_sidecar_t_0", "csv_flag_nx_0",
             "csv_header_wider_than_flags", "json_t_0", "json_flag_t_0", "json_step_without_k",
             "json_step_not_an_object"],
    )
    def test_malformed_input_is_one_line_exit_2(self, traj_files, tmp_path, capsys,
                                                name, text, flags, where):
        # The bad file is loaded first, so shape flags reach it before the good one.
        _, est = traj_files
        bad = tmp_path / name
        bad.write_text(text)
        assert run_compute(bad, est, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("lospa-eval: error: ") and err.count("\n") == 1
        assert str(bad) in err and where in err

    @pytest.mark.parametrize(
        "name, text",
        [("long_k.csv", "# t=1 nx=1\nk,x_1_1\n1.5" + "x" * 100_000 + ",1.0\n"),
         ("long_k.json", '{"t": 1, "nx": 1, "steps": [{"k": "' + "x" * 100_000
          + '", "targets": [[1.0]]}]}')],
        ids=["csv", "json"],
    )
    def test_long_bad_time_index_is_echoed_cut(self, traj_files, tmp_path, capsys, name, text):
        truth, _ = traj_files
        bad = tmp_path / name
        bad.write_text(text)
        assert run_compute(truth, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith("lospa-eval: error: ") and err.count("\n") == 1
        assert len(err.encode()) < 1024 and "xxx…" in err

    # int() and float() read '1_0' as 10 and non-ASCII digits as digits.
    @pytest.mark.parametrize(
        "flag, value",
        [("--p", "1_0"), ("--p", "\u0662"), ("--alpha", "0_5"), ("--alpha", "\uff10.5"),
         ("--metric", "pnorm:2_0"), ("--metric", "pnorm:\u0662"), ("--t", "1_0"),
         ("--t", "\u0663"), ("--nx", "1_0"), ("--nx", "\u0661")],
        ids=["p_underscore", "p_arabic_indic", "alpha_underscore", "alpha_fullwidth",
             "metric_underscore", "metric_arabic_indic", "t_underscore", "t_arabic_indic",
             "nx_underscore", "nx_arabic_indic"],
    )
    def test_numeric_flag_must_be_plain_ascii(self, traj_files, capsys, flag, value):
        truth, est = traj_files
        assert run_compute(truth, est, flag, value) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"lospa-eval: error: {flag}: ") and err.count("\n") == 1

    def test_missing_required_flag_is_usage_error(self, traj_files):
        truth, _ = traj_files
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--truth", str(truth)])
        assert exc.value.code == 2


class TestDemoCommand:
    def test_exit_zero_and_all_cells(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        # All six scenario values appear alongside their expected numbers.
        for value in ("0.1290994", "0.8225975", "0.1414213", "1.0049875"):
            assert value in out

    def test_gate_failure_exits_3(self, monkeypatch, capsys):
        # One cell's computed value moved past the gate's tolerance.
        demo = run_demo()
        cells = list(demo.cells)
        cells[4] = dataclasses.replace(cells[4], computed=cells[4].computed + 2 * ABS_TOL_TRIANGLE)
        failing = dataclasses.replace(demo, cells=tuple(cells))
        monkeypatch.setattr(lospa.cli, "run_demo", lambda: failing)
        assert main(["demo"]) == 3
        out = capsys.readouterr().out
        rows = out.splitlines()[3:9]  # one per cell, after the truth line, a blank and the header
        assert [row.split()[-1] for row in rows] == ["ok"] * 4 + ["MISMATCH", "ok"]
        assert out.endswith("demo gate: FAIL\n")


class TestVersionCommand:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == f"lospa {__version__}"


def console_script(name):
    """Command and environment that run a declared console script.

    The installed script when it is on PATH; otherwise the ``module:func``
    target that pyproject.toml declares for it, called in a fresh interpreter
    with the source tree on the path.
    """
    installed = shutil.which(name)
    if installed:
        return [installed], None
    root = Path(__file__).resolve().parents[1]
    declared = re.search(
        rf'^{re.escape(name)}\s*=\s*"([\w.]+):(\w+)"\s*$',
        (root / "pyproject.toml").read_text(),
        re.MULTILINE,
    )
    assert declared, f"{name} is not declared in pyproject.toml"
    module, func = declared.groups()
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code], source_tree_env()


class TestInstalledEntryPoints:
    def test_console_script_demo(self):
        cmd, env = console_script("lospa-eval")
        proc = subprocess.run(
            [*cmd, "demo"], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lospa", "version"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("lospa ")

    def test_console_script_compute_deterministic(self, traj_files, tmp_path):
        truth, est = traj_files
        cmd, env = console_script("lospa-eval")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    *cmd, "compute",
                    "--truth", str(truth),
                    "--est", str(est),
                    "--p", "2", "--alpha", "0.1", "--metric", "euclidean",
                    "--out", str(out),
                ],
                capture_output=True,
                text=True,
                timeout=60,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# Defines scipy_modules(): the names of the scipy modules loaded so far,
# those in sys.modules and the LSAP extension that assignment._lsap_module()
# keeps out of it.
_SCIPY_MODULES = """\
import sys
from lospa import assignment

def scipy_modules():
    names = {m for m in sys.modules if m.partition(".")[0] == "scipy"}
    if assignment._lsap_module.cache_info().currsize:
        names.add(assignment._lsap_module().__name__)
    return sorted(names)
"""

# Runs the CLI in a fresh interpreter, then prints, as the last line of
# stdout, the scipy modules loaded by then.
_MAIN_THEN_SCIPY_MODULES = _SCIPY_MODULES + """\
import json
from lospa.cli import main
code = main(sys.argv[1:])
print(json.dumps(scipy_modules()))
sys.exit(code)
"""


# A PathFinder that finds no LSAP extension once, as on a scipy whose layout
# has none; the import system's own later lookups see the real one.
_LSAP_WITHOUT_THE_EXTENSION = """\
import importlib.machinery, json, sys
import numpy as np
from lospa import assignment
PathFinder = importlib.machinery.PathFinder
real, missed = PathFinder.find_spec.__func__, []

def find_spec(cls, name, path=None, target=None):
    if name == "scipy.optimize._lsap" and not missed:
        missed.append(name)
        return None
    return real(cls, name, path, target)

PathFinder.find_spec = classmethod(find_spec)
module = assignment._lsap_module()
stack = np.array(json.loads(sys.argv[1]))
result = module.__name__, [module.linear_sum_assignment(C)[1].tolist() for C in stack]
"""

_LOAD_THEN_IMPORT_SCIPY_OPTIMIZE = """\
lsap = assignment._lsap_module()
before = scipy_modules()
import scipy.optimize._lsap
result = before, [
    scipy.optimize.linear_sum_assignment is assignment._lsap_module().linear_sum_assignment,
    scipy.optimize._lsap.linear_sum_assignment is lsap.linear_sum_assignment,
]
"""


def run_script(code, *argv):
    """``result`` of a script run in a fresh interpreter, and the scipy modules it loaded."""
    tail = "import json\nprint(json.dumps([result, scipy_modules()]))\n"
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_MODULES + code + tail, *map(str, argv)],
        capture_output=True, text=True, timeout=60, env=source_tree_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_fresh(*argv):
    """Exit status, stderr and imported scipy modules of one fresh CLI run."""
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_THEN_SCIPY_MODULES, *map(str, argv)],
        capture_output=True, text=True, timeout=60, env=source_tree_env(),
    )
    return proc.returncode, proc.stderr, json.loads(proc.stdout.splitlines()[-1])


def write_trajectories(tmp_path, estimate, t, nx, T=40, seed=0, collide=False):
    """Truth and estimate CSV files; the estimate is "near" or "random".

    A near estimate is the truth plus noise of 0.1 on targets hundreds of
    units apart, with one pair swapped at every third step, so every
    optimal pairing is certified by its row minima.  With ``collide``, a
    near estimate 2 of the first step sits on truth 3 instead: two rows
    then claim one column, and the certificate fails.
    """
    rng = np.random.default_rng(seed)
    truth = rng.uniform(0.0, 1000.0, size=(T, t, nx))
    if estimate == "near":
        est = truth + rng.normal(0.0, 0.1, size=truth.shape)
        est[::3, [0, 1]] = est[::3, [1, 0]]
        if collide:
            est[0, 2] = truth[0, 3] + rng.normal(0.0, 0.1, size=nx)
    else:
        est = rng.uniform(0.0, 1000.0, size=truth.shape)
    paths = tmp_path / "truth.csv", tmp_path / "est.csv"
    for path, states in zip(paths, (truth, est)):
        path.write_text(csv_text(list(enumerate(states.tolist())), t=t, nx=nx))
    return paths


def compute_args(truth, est, out, metric="euclidean", backend="optimal", p="2", alpha="1"):
    return [
        "compute", "--truth", truth, "--est", est, "--out", out, "--p", p,
        "--alpha", alpha, "--metric", metric, "--backend", backend,
    ]


class TestScipyOnDemand:
    """scipy is imported only for LSAP; costs are built by numpy at every q.

    LSAP solves every matrix that fails the row-minimum certificate, and
    loads scipy's LSAP extension module alone, not the ``scipy.optimize``
    package.
    """

    def test_version_and_demo(self):
        for command in ("version", "demo"):
            assert run_fresh(command) == (0, "", [])

    def test_near_correct_t5(self, tmp_path):
        truth, est = write_trajectories(tmp_path, "near", t=5, nx=2)
        assert run_fresh(*compute_args(truth, est, tmp_path / "r.json")) == (0, "", [])

    @pytest.mark.parametrize("metric", ["pnorm:3", "pnorm:1.5"])
    @pytest.mark.parametrize(
        "estimate, loaded", [("near", []), ("random", ["scipy.optimize._lsap"])]
    )
    def test_any_q_loads_what_euclidean_loads(self, tmp_path, metric, estimate, loaded):
        truth, est = write_trajectories(tmp_path, estimate, t=5, nx=2)
        args = compute_args(truth, est, tmp_path / "r.json", metric=metric)
        assert run_fresh(*args) == (0, "", loaded)

    def test_brute_pnorm1_t8(self, tmp_path):
        truth, est = write_trajectories(tmp_path, "near", t=8, nx=3)
        args = compute_args(
            truth, est, tmp_path / "r.json", metric="pnorm:1", backend="brute", p="1",
            alpha="0.5",
        )
        assert run_fresh(*args) == (0, "", [])

    def test_brute_random_t5(self, tmp_path):
        # The enumeration's bound is a greedy pairing, not an LSAP solve.
        truth, est = write_trajectories(tmp_path, "random", t=5, nx=2)
        args = compute_args(truth, est, tmp_path / "r.json", backend="brute")
        assert run_fresh(*args) == (0, "", [])

    def test_random_t5_reaches_lsap_and_matches_brute(self, tmp_path):
        truth, est = write_trajectories(tmp_path, "random", t=5, nx=2)
        optimal, brute = tmp_path / "optimal.json", tmp_path / "brute.json"
        code, err, modules = run_fresh(*compute_args(truth, est, optimal))
        assert (code, err) == (0, "")
        assert modules == ["scipy.optimize._lsap"]
        assert main(compute_args(str(truth), str(est), str(brute), backend="brute")) == 0
        doc, ref = json.loads(optimal.read_text()), json.loads(brute.read_text())
        assert (doc.pop("backend"), ref.pop("backend")) == ("optimal", "brute")
        assert doc == ref

    @pytest.mark.parametrize("t", [5, 512])
    @pytest.mark.parametrize("estimate", ["near", "random"])
    def test_one_collision_loads_only_the_lsap_extension(self, tmp_path, estimate, t):
        truth, est = write_trajectories(tmp_path, estimate, t=t, nx=2, T=4, collide=True)
        code, err, modules = run_fresh(*compute_args(truth, est, tmp_path / "r.json"))
        assert (code, err) == (0, "")
        assert modules == ["scipy.optimize._lsap"]

    def test_without_the_extension_the_package_gives_the_same_pairings(self):
        stack = np.random.default_rng(76).uniform(0.0, 5.0, size=(3, 6, 6))
        stack_arg = json.dumps(stack.tolist())
        (module, perms), modules = run_script(_LSAP_WITHOUT_THE_EXTENSION, stack_arg)
        assert module == "scipy.optimize" and "scipy.optimize" in modules
        assert perms == solve_stack(stack, SolverBackend.OPTIMAL)[0].tolist()

    def test_a_later_scipy_optimize_import_reuses_the_extension(self):
        (before, same), modules = run_script(_LOAD_THEN_IMPORT_SCIPY_OPTIMIZE)
        assert before == ["scipy.optimize._lsap"]
        assert same == [True, True] and "scipy.optimize" in modules

    def test_overflow_prints_only_the_error_line(self, tmp_path):
        truth, est = tmp_path / "truth.csv", tmp_path / "est.csv"
        truth.write_text(csv_text([(0, [[0.0], [1e200]])], t=2, nx=1))
        est.write_text(csv_text([(0, [[1e200], [0.0]])], t=2, nx=1))
        code, err, _ = run_fresh(*compute_args(truth, est, tmp_path / "r.json"))
        assert code == 2
        assert err.startswith("lospa-eval: error: ") and err.count("\n") == 1
        assert "overflow" in err and "(p=2, alpha=1)" in err
