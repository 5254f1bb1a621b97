"""Trajectory files: a fixed set of targets observed over discrete time.

Two on-disk layouts are supported, both with the target count t and the
per-target dimension n_x constant across every timestep:

* CSV — header ``k,x_1_1,...,x_1_nx,x_2_1,...,x_t_nx`` and one row per
  timestep.  t and n_x are declared either by a sidecar comment line
  ``# t=<int> nx=<int>`` (at most one, anywhere before the first data row;
  any other comment starting ``# t=`` is an error),
  by explicit arguments, or, failing both, are inferred from the
  ``x_<target>_<component>`` header names.  Explicit arguments win over the
  sidecar, which wins over inference; header names all of that form must
  give the same shape as what is declared.  The header and rows are split on
  commas, with no quoting.  Data rows hold plain ASCII numbers: no ``_``
  digit separators, no non-ASCII digits and no ASCII separator characters
  (``\x1c``-``\x1f``).
* JSON — ``{"t": int, "nx": int, "steps": [{"k": int, "targets": [[...]]}]}``.
  Other keys, of the document or of a step, are ignored.

Parsing is strict: malformed records name their line or record number, NaN
or infinite cells are rejected, and any drift in t or n_x is an error
(the metric is only defined for a fixed, known number of targets).  Both
formats are UTF-8, and a leading byte order mark is ignored.  JSON
integers are never coerced from floats, booleans or strings, target entries
must be JSON numbers (not booleans, strings or null), and a repeated object
key is an error.  A cell or value echoed in an error message is cut to 40
characters.

Each rule is checked once.  One ``np.loadtxt`` call parses every CSV data
row, the time index by numpy's int64 parser, never through a float, once
the rows are plain: ASCII, with no ``_``, comment or ASCII separator, where
it reads exactly what ``int()`` (within int64) and ``float()`` read, to the
same bits.  A comment after the header, a whitespace-only line or a
non-ASCII character sends a file through a line scan first.  Rows that are
not plain or are refused are read by ``int()`` and ``float()`` only to
name the first bad line.  JSON steps are stacked by one ``np.array`` call,
and only when that fails does a per-step loop name the first bad step.
Time order is checked by :class:`Trajectory`, whose errors the loaders name.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, NoReturn

import numpy as np

from .core import _as_int, _as_real, _echo, _time_order
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
        ks = np.asarray(self.time_indices)
        if ks.ndim != 1 or ks.size < 1:
            raise ValueError("a trajectory needs a 1-D vector of at least one time index")
        ks, back = _time_order(ks, "time indices")
        try:
            states = np.asarray(self.states)
        except ValueError:
            raise InconsistentShape("states do not form a (T, t, n_x) array") from None
        states = _as_real(states)
        if states.ndim != 3 or states.shape[0] != ks.size or 0 in states.shape:
            raise InconsistentShape(
                f"states have shape {states.shape}; expected ({ks.size}, t, n_x) "
                f"with t, n_x >= 1"
            )
        if not np.all(np.isfinite(states)):
            raise NonFiniteValue("trajectory states contain NaN or infinity")
        if back is not None:
            a, b = ks[back : back + 2]
            raise ValueError(f"time indices must be strictly increasing, got {a} followed by {b}")
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


def _trajectory(
    path: Path, ks: list[int], states: np.ndarray, record: Callable[[int], str]
) -> Trajectory:
    """Validate parsed arrays; errors name the file and ``record(i)`` of step i."""
    try:
        return Trajectory(ks, states)
    except NonFiniteValue:
        i = int(np.flatnonzero(~np.isfinite(states).all(axis=(1, 2)))[0])
        raise NonFiniteValue(f"NaN or infinity in {path}: {record(i)}") from None
    except ValueError as exc:  # a time index outside int64, or one out of order
        out = next((i for i, k in enumerate(ks) if not -(2**63) <= k < 2**63), None)
        if out is not None:
            raise ParseError(f"{path}: {record(out)}: time index outside the int64 range") from None
        back = _time_order(ks, "time indices")[1]
        why = exc if back is None else f"{record(back + 1)}: {exc}"
        raise ParseError(f"{path}: {why}") from None


def _digits(text: str, where: str) -> int:
    """``int(text)`` of ASCII digits; more digits than int() reads is a ParseError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{where}: a number of {len(text)} digits is too large") from None


def _infer_shape_from_header(
    names: list[str], matches: list[re.Match | None], where: str
) -> tuple[int, int]:
    """Recover (t, n_x) from ``x_<target>_<component>`` column names.

    ``matches`` holds ``_COLUMN_RE``'s match of each stripped name.
    ``where`` names the file and the header line in error messages.
    """
    hint = "(declare them via '# t=.. nx=..' or flags)"
    if not names:
        raise ParseError(f"{where}: cannot infer t and nx: the header has no target columns {hint}")
    pairs = []
    for name, m in zip(names, matches):
        if m is None:
            raise ParseError(
                f"{where}: cannot infer t and nx: column {_echo(name)} is not of the form "
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


def _read_utf8(path: Path) -> str:
    """The text of ``path``; bytes that are not UTF-8 raise a ParseError naming it.

    A leading byte order mark is skipped, as RFC 8259 allows a reader to do,
    and "\\r\\n" and "\\r" are read as "\\n".
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


# np.loadtxt skips these ASCII separators around a number, as it does spaces;
# float() and int() refuse them.
_SEPARATORS = "\x1c\x1d\x1e\x1f"
# numpy before 2.4 reads a cell that int() refuses, such as "1.5", into an
# int64 column through a float, with only a DeprecationWarning.  There, a
# data line whose time index holds more than signs, digits and spaces is
# not plain.
_INT_VIA_FLOAT = np.lib.NumpyVersion(np.__version__) < "2.4.0"
_NOT_INT_RE = re.compile(r"\n[^,\n]*[^-+0-9 \t\x0b\x0c,\n]")


def _plain(text: str, start: int) -> bool:
    """Whether ``text`` is ASCII and the lines after ``text[start]``, a newline,
    hold no comment, ``_``, ASCII separator or, on numpy before 2.4, time index
    that int() refuses: lines that :func:`_parse_rows` reads as int() and float() do."""
    return (
        text.isascii()
        and all(text.find(c, start) < 0 for c in "#_" + _SEPARATORS)
        and not (_INT_VIA_FLOAT and _NOT_INT_RE.search(text, start))
    )


def _scan_lines(
    path: Path, lines: list[str], limit: int | None = None
) -> tuple[tuple[int, int] | None, list[int], list[str]]:
    """The sidecar, and the line numbers and stripped text of the header and data rows.

    Blank lines are skipped and comments checked against the sidecar rules,
    in file order; the scan stops once ``limit`` rows, the header included,
    are read.
    """
    sidecar: tuple[int, int] | None = None
    linenos: list[int] = []  # 1-based line numbers of the header and the data rows
    rows: list[str] = []  # their text, stripped
    for lineno, line in enumerate(lines, start=1):
        if len(rows) == limit:
            break
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            if _SIDECAR_START_RE.match(text):
                m = _SIDECAR_RE.match(text)
                if m is None:
                    raise ParseError(
                        f"{path}: line {lineno}: malformed '# t=.. nx=..' line {_echo(text)}"
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
        # Checked before strip(), which also drops non-ASCII spaces.
        if rows and ("_" in line or not line.isascii()):
            raise ParseError(
                f"{path}: line {lineno}: data rows may hold only plain ASCII numbers"
            )
        linenos.append(lineno)
        rows.append(text)
    if not rows:
        raise ParseError(f"{path}: no header row found")
    return sidecar, linenos, rows


def _csv_shape(
    path: Path, header_row: str, lineno: int, sidecar: tuple[int, int] | None,
    t: int | None, nx: int | None,
) -> tuple[int, int]:
    """(t, n_x) from the arguments, the sidecar and the header, checked against the header."""
    header = header_row.split(",")
    header_where = f"{path}: line {lineno}"
    if header[0].strip() != "k":
        raise ParseError(f"{header_where}: first header column must be 'k'")

    if t is None and sidecar is not None:
        t = sidecar[0]
    if nx is None and sidecar is not None:
        nx = sidecar[1]
    # x_<target>_<component> names state a shape, which must be the one in use.
    matches = [_COLUMN_RE.match(name.strip()) for name in header[1:]]
    named = len(header) > 1 and all(matches)
    if named or t is None or nx is None:
        shape = _infer_shape_from_header(header[1:], matches, header_where)
        t = shape[0] if t is None else t
        nx = shape[1] if nx is None else nx
    if t < 1 or nx < 1:
        raise ParseError(f"{path}: t and nx must be >= 1, got t={t} nx={nx}")
    if named and (t, nx) != shape:
        raise ParseError(
            f"{header_where}: header names give t={shape[0]} nx={shape[1]}, "
            f"but the declared shape is t={t} nx={nx}"
        )
    if len(header) != 1 + t * nx:
        raise ParseError(
            f"{header_where}: header has {len(header)} columns, "
            f"expected 1 + t*nx = {1 + t * nx} for t={t} nx={nx}"
        )
    return t, nx


def _load_csv(path: Path, t: int | None, nx: int | None) -> Trajectory:
    text = _read_utf8(path)
    lines = text.split("\n")
    sidecar, linenos, rows = _scan_lines(path, lines, limit=1)
    # Plain rows skip the line scan.  (The text's isascii() is a flag, not a scan.)
    end = sum(map(len, lines[: linenos[0]])) + linenos[0] - 1  # the header's newline
    bulk = _plain(text, end)
    del text  # the lines hold the one copy the parse needs
    if bulk:
        shape = _csv_shape(path, rows[0], linenos[0], sidecar, t, nx)
        traj = _parse_rows(lines[linenos[0] :], *shape)
        if traj is not None:
            return traj
    return _parse_lines(path, lines, t, nx)


def _parse_rows(body: list[str], t: int, nx: int) -> Trajectory | None:
    """The trajectory of the plain data lines ``body`` by the one np.loadtxt
    call, the time index by numpy's int64 parser, or None if they do not
    parse (a row of the wrong width included) or form a trajectory."""
    if not any(map(str.strip, body)):  # np.loadtxt warns on a text of no rows
        return None
    dtype = np.dtype([("k", np.int64), ("x", np.float64, (t * nx,))])
    try:
        rec = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        return Trajectory(rec["k"], rec["x"].reshape(-1, t, nx))
    except (ValueError, InconsistentShape, NonFiniteValue):
        return None


def _parse_lines(path: Path, lines: list[str], t: int | None, nx: int | None) -> Trajectory:
    """The trajectory of the data rows a line scan of ``lines`` keeps; errors name a line."""
    sidecar, linenos, rows = _scan_lines(path, lines)
    t, nx = _csv_shape(path, rows[0], linenos[0], sidecar, t, nx)
    data = rows[1:]
    if not data:
        raise ParseError(f"{path}: no data rows")
    traj = _parse_rows(data, t, nx) if _plain("\n".join(["", *data]), 0) else None
    if traj is None:
        _raise_row_error(path, data, linenos[1:], t, nx)
    return traj


def _raise_row_error(path: Path, rows: list[str], linenos: list[int], t: int, nx: int) -> NoReturn:
    """Raise the error of the first data row of the wrong width, or with a cell
    that int() or float() refuses, else :func:`_trajectory`'s of the rows they
    read.  Called on rows that are not plain or that ``_parse_rows`` refused."""
    ks, values = [], np.empty((len(rows), t * nx))
    for i, (lineno, row) in enumerate(zip(linenos, rows)):
        where = f"{path}: line {lineno}"
        fields = row.split(",")
        if len(fields) != 1 + t * nx:
            raise InconsistentShape(
                f"{where}: row has {len(fields)} columns, "
                f"expected {1 + t * nx} (t={t} targets of dimension {nx})"
            )
        try:
            ks.append(int(fields[0]))
        except ValueError:
            cell = fields[0].strip()
            if cell.isdigit() or cell[:1] in ("+", "-") and cell[1:].isdigit():
                _digits(cell.lstrip("+-"), where)  # raises past the digits int() reads
            raise ParseError(f"{where}: time index {_echo(fields[0])} is not an integer") from None
        try:
            values[i] = [float(v) for v in fields[1:]]
        except ValueError:
            raise ParseError(f"{where}: non-numeric state value") from None
    _trajectory(path, ks, values.reshape(-1, t, nx), lambda i: f"line {linenos[i]}")
    raise ParseError(f"{path}: data rows are not plain numbers")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):  # name the first repeat
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {_echo(key)}")
            seen.add(key)
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
    text = _read_utf8(path)
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
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

    steps = doc["steps"]
    # One pass over all steps; any doubt goes to the per-step checks.  The
    # stack holds only what the file holds, so a t or nx far larger than
    # that is a shape error, not an allocation.
    try:
        ks = [step["k"] for step in steps]
        targets = [step["targets"] for step in steps]
        states = np.array(targets, dtype=float)
        # np.array would read true as 1.0, "2.5" as 2.5 and null as NaN.
        ok = (
            set(map(type, ks)) <= {int}
            and states.shape == (len(steps), t, nx)
            and set(map(type, chain.from_iterable(chain.from_iterable(targets)))) <= {int, float}
        )
    except (KeyError, TypeError, ValueError, OverflowError):  # a _LongInt is a TypeError
        ok = False
    if not ok:
        _raise_step_error(path, steps, t, nx)
    return _trajectory(path, ks, states, lambda i: f"steps[{i}]")


def _raise_step_error(path: Path, steps: list, t: int, nx: int) -> NoReturn:
    """Raise the error of the first step that is not k and a (t, nx) array of numbers.

    Only called once the one-pass check in ``_load_json`` has failed: it
    names the step, and accepts nothing.
    """
    for i, step in enumerate(steps):
        where = f"{path}: steps[{i}]"
        if not isinstance(step, dict) or "k" not in step or "targets" not in step:
            raise ParseError(f"{where}: expected an object with 'k' and 'targets'")
        _require_int(step["k"], f"{where}: time index")
        try:
            targets = np.array(step["targets"], dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{where}: 'targets' is not a rectangular array of reals") from None
        if targets.shape != (t, nx):
            raise InconsistentShape(
                f"{where}: targets have shape {targets.shape}, expected ({t}, {nx})"
            )
        bad = [v for row in step["targets"] for v in row if type(v) not in (int, float)]
        if bad:
            raise ParseError(f"{where}: target entry {_echo(bad[0])} is not a JSON number")
    raise ParseError(f"{path}: 'steps' do not stack into a (T, t, nx) array")


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
