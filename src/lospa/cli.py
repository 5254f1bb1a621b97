"""Command-line interface: ``lospa-eval compute|demo|version``.

Exit codes: 0 on success, 2 on any input problem (unreadable or malformed
files, shape mismatches, bad parameter values), 3 when the built-in demo
does not reproduce its expected values.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .assignment import SolverBackend
from .core import LospaParams, _plain_number, parse_base_metric
from .errors import LospaError
from .evaluate import evaluate, run_demo
from .trajectory import load_trajectory

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_DEMO_GATE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lospa-eval",
        description=(
            "Labelled multitarget distance (LOSPA) between trajectory files, "
            "per timestep, for a fixed known number of targets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="evaluate an estimate file against a truth file"
    )
    compute.add_argument("--truth", required=True, help="ground-truth trajectory file")
    compute.add_argument("--est", required=True, help="estimated trajectory file")
    compute.add_argument("--p", required=True, help="order exponent, 1 <= p")
    compute.add_argument(
        "--alpha", required=True,
        help="labelling penalty; 0 gives the unlabelled (OSPA) distance",
    )
    compute.add_argument(
        "--metric", required=True,
        help="base metric: 'euclidean' or 'pnorm:<q>' with q >= 1",
    )
    compute.add_argument(
        "--backend", choices=[b.value for b in SolverBackend], default="optimal",
        help="assignment solver (default: optimal)",
    )
    compute.add_argument(
        "--format", choices=["csv", "json"],
        help="input format for both files (default: inferred from each extension)",
    )
    compute.add_argument("--out", help="write the report here instead of stdout")
    compute.add_argument("--t", help="target count, when the files do not declare it")
    compute.add_argument("--nx", help="per-target dimension, when the files do not declare it")

    sub.add_parser("demo", help="run the built-in 3-target example and check it")
    sub.add_parser("version", help="print the package version")
    return parser


def _infer_format(path: str) -> str:
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".json":
        return "json"
    raise LospaError(
        f"cannot infer format of {path!r} from its extension; pass --format"
    )


def _flag(args: argparse.Namespace, name: str, parse):
    """``parse`` of flag ``--name``'s text (None if absent); a ValueError names the flag."""
    text = getattr(args, name)
    try:
        return None if text is None else parse(text)
    except ValueError as exc:
        raise ValueError(f"--{name}: {exc}") from None


def _run_compute(args: argparse.Namespace) -> int:
    params = LospaParams(
        p=_flag(args, "p", _plain_number),
        alpha=_flag(args, "alpha", _plain_number),
        base_metric=_flag(args, "metric", parse_base_metric),
    )
    backend = SolverBackend(args.backend)
    t, nx = (_flag(args, name, lambda text: _plain_number(text, int)) for name in ("t", "nx"))
    truth = load_trajectory(args.truth, args.format or _infer_format(args.truth), t=t, nx=nx)
    estimate = load_trajectory(args.est, args.format or _infer_format(args.est), t=t, nx=nx)
    report = evaluate(truth, estimate, params, backend=backend)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def _run_demo() -> int:
    demo = run_demo()
    sys.stdout.write(demo.render())
    return _EXIT_OK if demo.passed else _EXIT_DEMO_GATE


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compute":
            return _run_compute(args)
        if args.command == "demo":
            return _run_demo()
        if args.command == "version":
            print(f"lospa {__version__}")
            return _EXIT_OK
    except (LospaError, ValueError, OSError) as exc:
        print(f"lospa-eval: error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
