"""The lospa-eval command line: compute, demo, version, exit codes."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lospa import __version__
from lospa.cli import main

from helpers import ESTIMATE_POINTS, TRUTH_POINTS, csv_text, json_doc


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

    def test_shape_flags_far_larger_than_the_file(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        one.write_text(json.dumps(json_doc([(0, [[1.0]])], t=1, nx=1)))
        assert run_compute(one, one, "--t", "100000", "--nx", "100000") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "steps[0]" in err and "(100000, 100000)" in err

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


class TestVersionCommand:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == f"lospa {__version__}"


def source_tree_env():
    """Environment whose PYTHONPATH puts this checkout's ``src`` first."""
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


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


# Runs the CLI in a fresh interpreter, then prints, as the last line of
# stdout, the scipy modules imported by then.
_MAIN_THEN_SCIPY_MODULES = """\
import json, sys
from lospa.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
sys.exit(code)
"""


def run_fresh(*argv):
    """Exit status, stderr and imported scipy modules of one fresh CLI run."""
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_THEN_SCIPY_MODULES, *map(str, argv)],
        capture_output=True, text=True, timeout=60, env=source_tree_env(),
    )
    return proc.returncode, proc.stderr, json.loads(proc.stdout.splitlines()[-1])


def write_trajectories(tmp_path, estimate, t, nx, T=40, seed=0):
    """Truth and estimate CSV files; the estimate is "near" or "random".

    A near estimate is the truth plus noise of 0.1 on targets hundreds of
    units apart, with one pair swapped at every third step, so every
    optimal pairing is certified by its row minima.
    """
    rng = np.random.default_rng(seed)
    truth = rng.uniform(0.0, 1000.0, size=(T, t, nx))
    if estimate == "near":
        est = truth + rng.normal(0.0, 0.1, size=truth.shape)
        est[::3, [0, 1]] = est[::3, [1, 0]]
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
    """scipy is imported only for cdist or for a matrix that fails the certificate."""

    def test_version_and_demo(self):
        for command in ("version", "demo"):
            assert run_fresh(command) == (0, "", [])

    def test_near_correct_t5(self, tmp_path):
        truth, est = write_trajectories(tmp_path, "near", t=5, nx=2)
        assert run_fresh(*compute_args(truth, est, tmp_path / "r.json")) == (0, "", [])

    def test_brute_pnorm1_t8(self, tmp_path):
        truth, est = write_trajectories(tmp_path, "near", t=8, nx=3)
        args = compute_args(
            truth, est, tmp_path / "r.json", metric="pnorm:1", backend="brute", p="1",
            alpha="0.5",
        )
        assert run_fresh(*args) == (0, "", [])

    def test_random_t5_reaches_lsap_and_matches_brute(self, tmp_path):
        truth, est = write_trajectories(tmp_path, "random", t=5, nx=2)
        optimal, brute = tmp_path / "optimal.json", tmp_path / "brute.json"
        code, err, modules = run_fresh(*compute_args(truth, est, optimal))
        assert (code, err) == (0, "")
        assert "scipy.optimize" in modules
        assert main(compute_args(str(truth), str(est), str(brute), backend="brute")) == 0
        doc, ref = json.loads(optimal.read_text()), json.loads(brute.read_text())
        assert (doc.pop("backend"), ref.pop("backend")) == ("optimal", "brute")
        assert doc == ref

    def test_overflow_prints_only_the_error_line(self, tmp_path):
        truth, est = tmp_path / "truth.csv", tmp_path / "est.csv"
        truth.write_text(csv_text([(0, [[0.0], [1e200]])], t=2, nx=1))
        est.write_text(csv_text([(0, [[1e200], [0.0]])], t=2, nx=1))
        code, err, _ = run_fresh(*compute_args(truth, est, tmp_path / "r.json"))
        assert code == 2
        assert err.startswith("lospa-eval: error: ") and err.count("\n") == 1
        assert "overflow" in err and "(p=2, alpha=1)" in err
