"""Trajectory files: a fixed set of targets observed over discrete time.

Two on-disk layouts are supported, both with the target count t and the
per-target dimension n_x constant across every timestep:

* CSV — header ``k,x_1_1,...,x_1_nx,x_2_1,...,x_t_nx`` and one row per
  timestep.  t and n_x are declared either by a sidecar comment line
  ``# t=<int> nx=<int>`` (at most one, anywhere before the first data row;
  any other comment starting ``# t=`` is an error),
  by explicit arguments, or, failing both, are inferred from the
  ``x_<target>_<component>`` header names.  Explicit arguments win over the
  sidecar, which wins over inference.  The header and rows are split on
  commas, with no quoting.  Data rows hold plain ASCII numbers: no ``_``
  digit separators and no non-ASCII digits.
* JSON — ``{"t": int, "nx": int, "steps": [{"k": int, "targets": [[...]]}]}``.

Parsing is strict: malformed records name their line or record number, NaN
or infinite cells are rejected, and any drift in t or n_x is an error
(the metric is only defined for a fixed, known number of targets).  Both
formats are UTF-8, and a leading byte order mark is ignored.  JSON
integers are never coerced from floats, booleans or strings, target entries
must be JSON numbers (not booleans, strings or null), and a repeated object
key is an error.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _as_int
from .errors import InconsistentShape, NonFiniteValue, ParseError

__all__ = ["Trajectory", "load_trajectory"]

_SIDECAR_RE = re.compile(r"^#\s*t\s*=\s*(\d+)\s+nx\s*=\s*(\d+)\s*$", re.ASCII)
# A comment that starts like the sidecar must be one.
_SIDECAR_START_RE = re.compile(r"^#\s*t\s*=", re.ASCII)
_COLUMN_RE = re.compile(r"^x_(\d+)_(\d+)$", re.ASCII)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A fixed set of targets observed at strictly increasing time indices.

    Args:
        time_indices: (T,) integers, strictly increasing, T >= 1.
        states: (T, t, n_x) finite reals; ``states[i]`` is the multitarget
            state at time ``time_indices[i]``.  Both arrays are copied and
            made read-only.
    """

    time_indices: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        ks = np.array(self.time_indices)
        if ks.ndim != 1 or ks.size < 1:
            raise ValueError("a trajectory needs a 1-D vector of at least one time index")
        if ks.dtype.kind not in "iu" or not np.can_cast(ks.dtype, np.int64):
            raise ValueError(f"time indices must be 64-bit integers, got {ks.dtype} values")
        ks = ks.astype(np.int64)
        try:
            states = np.array(self.states, dtype=float)
        except ValueError:
            raise InconsistentShape("states do not form a (T, t, n_x) array") from None
        if states.ndim != 3 or states.shape[0] != ks.size or 0 in states.shape:
            raise InconsistentShape(
                f"states have shape {states.shape}; expected ({ks.size}, t, n_x) "
                f"with t, n_x >= 1"
            )
        if not np.all(np.isfinite(states)):
            raise NonFiniteValue("trajectory states contain NaN or infinity")
        back = np.flatnonzero(np.diff(ks) <= 0)
        if back.size:
            i = back[0]
            raise ValueError(
                f"time indices must be strictly increasing, got {ks[i]} followed by {ks[i + 1]}"
            )
        for arr in (ks, states):
            arr.setflags(write=False)
        object.__setattr__(self, "time_indices", ks)
        object.__setattr__(self, "states", states)

    @property
    def num_targets(self) -> int:
        return self.states.shape[1]

    @property
    def state_dim(self) -> int:
        return self.states.shape[2]

    def __len__(self) -> int:
        return self.states.shape[0]


def _trajectory(path: Path, ks: list[int], states: np.ndarray, records: list[str]) -> Trajectory:
    """Validate parsed arrays; errors name the file and the offending record."""
    try:
        return Trajectory(ks, states)
    except NonFiniteValue:
        i = int(np.flatnonzero(~np.isfinite(states).all(axis=(1, 2)))[0])
        raise NonFiniteValue(f"NaN or infinity in {path}: {records[i]}") from None
    except ValueError as exc:  # such as a time index outside int64
        out = [r for k, r in zip(ks, records) if not -(2**63) <= k < 2**63]
        why = f"{out[0]}: time index outside the int64 range" if out else exc
        raise ParseError(f"{path}: {why}") from None


def _digits(text: str, where: str) -> int:
    """``int(text)`` of ASCII digits; more digits than int() reads is a ParseError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{where}: a number of {len(text)} digits is too large") from None


def _infer_shape_from_header(names: list[str], where: str) -> tuple[int, int]:
    """Recover (t, n_x) from ``x_<target>_<component>`` column names.

    ``where`` names the file and the header line in error messages.
    """
    hint = "(declare them via '# t=.. nx=..' or flags)"
    if not names:
        raise ParseError(f"{where}: cannot infer t and nx: the header has no target columns {hint}")
    pairs = []
    for name in names:
        m = _COLUMN_RE.match(name.strip())
        if m is None:
            raise ParseError(
                f"{where}: cannot infer t and nx: column {name!r} is not of the form "
                f"'x_<target>_<component>' {hint}"
            )
        pairs.append((_digits(m.group(1), where), _digits(m.group(2), where)))
    t = max(i for i, _ in pairs)
    nx = max(j for _, j in pairs)
    # Counts first: t * nx may be far more columns than the header holds.
    expected = t * nx == len(pairs) and [(i, j) for i in range(1, t + 1) for j in range(1, nx + 1)]
    if pairs != expected:
        raise ParseError(
            f"{where}: header names do not enumerate x_1_1..x_{t}_{nx} in order"
        )
    return t, nx


@contextmanager
def _open_utf8(path: Path):
    """``path`` opened as text; bytes that are not UTF-8 raise a ParseError naming it.

    A leading byte order mark is skipped, as RFC 8259 allows a reader to do.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_csv(path: Path, t: int | None, nx: int | None) -> Trajectory:
    sidecar: tuple[int, int] | None = None
    rows: list[tuple[int, list[str]]] = []  # (1-based line number, fields)
    with _open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                if _SIDECAR_START_RE.match(text):
                    m = _SIDECAR_RE.match(text)
                    if m is None:
                        raise ParseError(
                            f"{path}: line {lineno}: malformed '# t=.. nx=..' line {text!r}"
                        )
                    if sidecar is not None or len(rows) > 1:
                        raise ParseError(
                            f"{path}: line {lineno}: the '# t=.. nx=..' line may appear "
                            f"only once, before the first data row"
                        )
                    where = f"{path}: line {lineno}"
                    sidecar = (_digits(m.group(1), where), _digits(m.group(2), where))
                continue
            # int() and float() would read '1_0' as 10 and non-ASCII digits too.
            if rows and ("_" in line or not line.isascii()):
                raise ParseError(
                    f"{path}: line {lineno}: data rows may hold only plain ASCII numbers"
                )
            rows.append((lineno, text.split(",")))

    if not rows:
        raise ParseError(f"{path}: no header row found")
    header_line, header = rows[0]
    data = rows[1:]
    if not header or header[0].strip() != "k":
        raise ParseError(f"{path}: line {header_line}: first header column must be 'k'")

    if t is None and sidecar is not None:
        t = sidecar[0]
    if nx is None and sidecar is not None:
        nx = sidecar[1]
    if t is None or nx is None:
        inf_t, inf_nx = _infer_shape_from_header(header[1:], f"{path}: line {header_line}")
        t = inf_t if t is None else t
        nx = inf_nx if nx is None else nx
    if t < 1 or nx < 1:
        raise ParseError(f"{path}: t and nx must be >= 1, got t={t} nx={nx}")
    if len(header) != 1 + t * nx:
        raise ParseError(
            f"{path}: line {header_line}: header has {len(header)} columns, "
            f"expected 1 + t*nx = {1 + t * nx} for t={t} nx={nx}"
        )

    if not data:
        raise ParseError(f"{path}: no data rows")
    ks = []
    values = np.empty((len(data), t * nx))
    for i, (lineno, fields) in enumerate(data):
        if len(fields) != 1 + t * nx:
            raise InconsistentShape(
                f"{path}: line {lineno}: row has {len(fields)} columns, "
                f"expected {1 + t * nx} (t={t} targets of dimension {nx})"
            )
        try:
            ks.append(int(fields[0]))
        except ValueError:
            where, cell = f"{path}: line {lineno}", fields[0].strip()
            if cell.isdigit() or cell[:1] in ("+", "-") and cell[1:].isdigit():
                _digits(cell.lstrip("+-"), where)  # raises past the digits int() reads
            raise ParseError(f"{where}: time index {fields[0]!r} is not an integer") from None
        try:
            values[i] = [float(v) for v in fields[1:]]
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric state value") from None
    return _trajectory(
        path, ks, values.reshape(-1, t, nx), [f"line {lineno}" for lineno, _ in data]
    )


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


class _LongInt:
    """A JSON integer with more digits than int() reads; no float holds it either."""

    def __init__(self, text: str):
        self.digits = text.removeprefix("-")


def _json_int(text: str) -> int | _LongInt:
    try:
        return int(text)
    except ValueError:
        return _LongInt(text)


def _require_int(value, where: str) -> int:
    if isinstance(value, _LongInt):
        _digits(value.digits, where)  # raises
    try:
        return _as_int(value, where)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _load_json(path: Path, t: int | None, nx: int | None) -> Trajectory:
    with _open_utf8(path) as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys, parse_int=_json_int)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
        except UnicodeDecodeError:
            raise  # a ValueError, named by _open_utf8
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None
        except RecursionError:
            raise ParseError(f"{path}: nested too deeply") from None

    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("t", "nx", "steps"):
        if key not in doc:
            raise ParseError(f"{path}: missing key {key!r}")
    # Explicit arguments override the declared shape, mirroring the CSV rules;
    # the declared values must be integers all the same.
    declared_t = _require_int(doc["t"], f"{path}: 't'")
    declared_nx = _require_int(doc["nx"], f"{path}: 'nx'")
    t = declared_t if t is None else t
    nx = declared_nx if nx is None else nx
    if t < 1 or nx < 1:
        raise ParseError(f"{path}: t and nx must be >= 1, got t={t} nx={nx}")
    if not isinstance(doc["steps"], list) or not doc["steps"]:
        raise ParseError(f"{path}: 'steps' must be a non-empty array")

    # Stacked only after every step has shown its shape, so that a t or nx
    # far larger than the file holds is a shape error, not an allocation.
    ks, states = [], []
    for i, step in enumerate(doc["steps"]):
        where = f"{path}: steps[{i}]"
        if not isinstance(step, dict) or "k" not in step or "targets" not in step:
            raise ParseError(f"{where}: expected an object with 'k' and 'targets'")
        ks.append(_require_int(step["k"], f"{where}: time index"))
        try:
            targets = np.array(step["targets"], dtype=float)
        except (TypeError, ValueError, OverflowError):  # a _LongInt is a TypeError
            raise ParseError(f"{where}: 'targets' is not a rectangular array of reals") from None
        if targets.shape != (t, nx):
            raise InconsistentShape(
                f"{where}: targets have shape {targets.shape}, expected ({t}, {nx})"
            )
        # np.array would read true as 1.0 and "2.5" as 2.5.
        bad = [v for row in step["targets"] for v in row if type(v) not in (int, float)]
        if bad:
            raise ParseError(f"{where}: target entry {bad[0]!r} is not a JSON number")
        states.append(targets)
    return _trajectory(path, ks, np.array(states), [f"steps[{i}]" for i in range(len(ks))])


def load_trajectory(
    path: str | Path,
    format: str,
    t: int | None = None,
    nx: int | None = None,
) -> Trajectory:
    """Read a trajectory file.

    Args:
        path: file to read.
        format: ``"csv"`` or ``"json"``.
        t: target count, overriding whatever the file declares.
        nx: per-target dimension, overriding whatever the file declares.

    Raises:
        ParseError: malformed file; the message names the line or record.
        InconsistentShape: t or n_x varies across timesteps.
        NonFiniteValue: a NaN or infinite state value.
    """
    path = Path(path)
    if format == "csv":
        return _load_csv(path, t, nx)
    if format == "json":
        return _load_json(path, t, nx)
    raise ValueError(f"unknown trajectory format {format!r}; expected 'csv' or 'json'")
