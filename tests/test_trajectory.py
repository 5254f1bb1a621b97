"""Trajectory file parsing: CSV and JSON layouts, strict validation."""

import json
import re
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from lospa import (
    InconsistentShape,
    LospaError,
    MultiTargetState,
    NonFiniteValue,
    ParseError,
    Trajectory,
    load_trajectory,
)
from lospa import trajectory

from helpers import csv_text, json_doc, mts

STEPS = [
    (0, [[-10.0], [0.0], [10.0]]),
    (1, [[-10.5], [0.5], [10.5]]),
]


class TestCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(csv_text(STEPS, t=3, nx=1))
        traj = load_trajectory(path, "csv")
        assert traj.num_targets == 3
        assert traj.state_dim == 1
        assert len(traj) == 2
        assert traj.time_indices.tolist() == [0, 1]
        assert MultiTargetState(traj.states[1]) == mts([-10.5, 0.5, 10.5])

    def test_header_inference_without_sidecar(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(csv_text(STEPS, t=3, nx=1, sidecar=False))
        traj = load_trajectory(path, "csv")
        assert traj.num_targets == 3
        assert traj.state_dim == 1

    def test_multidimensional_states(self, tmp_path):
        steps = [(2, [[1.0, 2.0], [3.0, 4.0]]), (5, [[5.0, 6.0], [7.0, 8.0]])]
        path = tmp_path / "traj.csv"
        path.write_text(csv_text(steps, t=2, nx=2))
        traj = load_trajectory(path, "csv")
        assert traj.num_targets == 2
        assert traj.state_dim == 2
        assert traj.time_indices.tolist() == [2, 5]
        assert traj.states.tolist() == [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]]

    def test_explicit_shape_beats_header_names(self, tmp_path):
        # Arbitrary column names are fine once the shape is given explicitly.
        text = "k,a,b,c\n0,1,2,3\n"
        path = tmp_path / "traj.csv"
        path.write_text(text)
        traj = load_trajectory(path, "csv", t=3, nx=1)
        assert traj.num_targets == 3
        with pytest.raises(ParseError):
            load_trajectory(path, "csv")  # no sidecar and names not inferrable

    @pytest.mark.parametrize(
        "sidecar, flags",
        [("# t=2 nx=3\n", {}), ("", {"t": 6, "nx": 1}), ("# t=3 nx=2\n", {"t": 2, "nx": 3})],
        ids=["sidecar", "flags", "flags_over_a_matching_sidecar"],
    )
    def test_header_names_contradicting_the_shape_rejected(self, tmp_path, sidecar, flags):
        # Read as declared, x_2_1 would land in target 1, or every column in a target of its own.
        path = tmp_path / "traj.csv"
        path.write_text(sidecar + "k,x_1_1,x_1_2,x_2_1,x_2_2,x_3_1,x_3_2\n0,1,2,3,4,5,6\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "csv", **flags)
        declared = "t=2 nx=3" if sidecar else "t=6 nx=1"
        assert f"line {2 if sidecar else 1}: header names give t=3 nx=2" in str(err.value)
        assert f"declared shape is {declared}" in str(err.value)

    def test_header_names_agreeing_with_the_shape_load(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("# t=3 nx=2\nk,x_1_1,x_1_2,x_2_1,x_2_2,x_3_1,x_3_2\n0,1,2,3,4,5,6\n")
        for flags in ({}, {"t": 3, "nx": 2}):
            traj = load_trajectory(path, "csv", **flags)
            assert traj.states[0].tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_sidecar_anywhere_before_data(self, tmp_path):
        text = "k,x_1_1\n# t=1 nx=1\n0,5.0\n"
        path = tmp_path / "traj.csv"
        path.write_text(text)
        # Comments are allowed between header and data as well.
        assert load_trajectory(path, "csv").num_targets == 1

    def test_sidecar_after_data_rejected(self, tmp_path):
        # Honoured, this line would turn two 1-D targets into one 2-D target.
        path = tmp_path / "traj.csv"
        path.write_text("k,x_1_1,x_2_1\n0,1.0,2.0\n# t=1 nx=2\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "csv")
        assert "line 3" in str(err.value)

    def test_second_sidecar_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("# t=1 nx=1\nk,x_1_1\n# t=1 nx=1\n0,1.0\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "csv")
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("line", ["# t=1, nx=2", "# t=1 nx=2 extra", "#t = one nx=2"])
    def test_malformed_sidecar_rejected(self, tmp_path, line):
        # Read as a plain comment, this line would leave two 1-D targets.
        path = tmp_path / "traj.csv"
        path.write_text(f"{line}\nk,x_1_1,x_2_1\n0,1.0,2.0\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "csv")
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize(
        "row",
        ["0,1_0", "0,1_0.5", "0,\u0663", "1_0,1.0", "0,1.0\u00a0"],
        ids=["underscore_int", "underscore_float", "arabic_indic_digit", "underscore_k",
             "non_ascii_space"],
    )
    def test_data_rows_hold_plain_ascii_numbers(self, tmp_path, row):
        path = tmp_path / "traj.csv"
        path.write_text(f"# t=1 nx=1\nk,x_1_1\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "csv")
        assert "line 3" in str(err.value)

    def test_header_names_use_ascii_digits(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("k,x_\u0661_1\n0,1.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_trajectory(path, "csv")

    def test_nan_cell_names_line(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("# t=3 nx=1\nk,x_1_1,x_2_1,x_3_1\n0,-10,nan,10\n")
        with pytest.raises(NonFiniteValue) as err:
            load_trajectory(path, "csv")
        assert "line 3" in str(err.value)

    def test_wrong_row_width_is_shape_error(self, tmp_path):
        # Second timestep holds only two targets.
        path = tmp_path / "traj.csv"
        path.write_text("# t=3 nx=1\nk,x_1_1,x_2_1,x_3_1\n0,-10,0,10\n1,-10,0\n")
        with pytest.raises(InconsistentShape) as err:
            load_trajectory(path, "csv")
        assert "line 4" in str(err.value)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("# t=1 nx=1\nk,x_1_1\n0,abc\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "csv")
        assert "line 3" in str(err.value)

    def test_bad_time_index(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("# t=1 nx=1\nk,x_1_1\nzero,1.0\n")
        with pytest.raises(ParseError):
            load_trajectory(path, "csv")

    def test_time_must_increase(self, tmp_path):
        # The error names the line of the first step not above the one before it.
        path = tmp_path / "dec.csv"
        path.write_text("# t=1 nx=1\nk,x_1_1\n0,1.0\n5,2.0\n3,3.0\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "csv")
        assert str(err.value) == (
            f"{path}: line 5: time indices must be strictly increasing, got 5 followed by 3"
        )

    def test_empty_and_headerless_files(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_trajectory(path, "csv")
        path.write_text("# t=1 nx=1\nk,x_1_1\n")
        with pytest.raises(ParseError):
            load_trajectory(path, "csv")
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ParseError):
            load_trajectory(path, "csv", t=1, nx=1)

    def test_header_width_must_match_shape(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("# t=3 nx=2\nk,x_1_1,x_2_1,x_3_1\n0,1,2,3\n")
        with pytest.raises(ParseError):
            load_trajectory(path, "csv")

    def test_header_without_target_columns(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("# no shape declared\nk\n0\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "csv")
        assert str(err.value).startswith(f"{path}: line 2: ")
        assert "no target columns" in str(err.value)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("k,x_" + "9" * 4301 + "_1\n0,1.0\n", "line 1"),
            ("k,x_1_" + "9" * 4301 + "\n0,1.0\n", "line 1"),
            ("# note\n# t=" + "9" * 4301 + " nx=1\nk,x_1_1\n0,1.0\n", "line 2"),
            ("# t=1 nx=" + "9" * 4301 + "\nk,x_1_1\n0,1.0\n", "line 1"),
        ],
        ids=["header_target", "header_component", "sidecar_t", "sidecar_nx"],
    )
    def test_numbers_past_the_int_digit_limit(self, tmp_path, text, line):
        # int() refuses more than 4,300 digits; the error must still name the line.
        path = tmp_path / "traj.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "csv")
        assert str(err.value).startswith(f"{path}: {line}: ")
        assert len(str(err.value)) < 200

    def test_header_inference_does_not_list_absent_columns(self, tmp_path):
        # x_200000_1 claims 200,000 targets, but the header has two columns.
        path = tmp_path / "traj.csv"
        path.write_text("k,x_1_1,x_200000_1\n0,1.0,2.0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                load_trajectory(path, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "line 1" in str(err.value)
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "rows, line",
        [(["0,1.0", str(10**30) + ",2.0"], "line 4"),
         (["-1,1.0", str(2**63) + ",2.0"], "line 4"),
         ([str(-(2**63) - 1) + ",1.0"], "line 3")],
        ids=["1e30", "2_pow_63_after_negative", "below_int64"],
    )
    def test_time_index_outside_int64_names_line(self, tmp_path, rows, line):
        path = tmp_path / "traj.csv"
        path.write_text("# t=1 nx=1\nk,x_1_1\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "csv")
        assert str(err.value) == f"{path}: {line}: time index outside the int64 range"

    @pytest.mark.parametrize(
        "k", ["1" * 4301, " -" + "9" * 4301 + " ", "+" + "9" * 4301, "--" + "9" * 4301],
        ids=["plain", "negative_padded", "plus_sign", "two_signs"],
    )
    def test_time_index_past_the_int_digit_limit(self, tmp_path, k):
        # int() refuses more than 4,300 digits: the error names the line, not the digits.
        # Two signs are refused for the signs, whatever the length; the cell is
        # echoed cut to 40 characters.
        path = tmp_path / "traj.csv"
        path.write_text(f"# t=1 nx=1\nk,x_1_1\n0,1.0\n{k},2.0\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "csv")
        if k.startswith("--"):
            cut = repr(k)[:40] + "…"
            assert str(err.value) == f"{path}: line 4: time index {cut} is not an integer"
        else:
            assert str(err.value) == f"{path}: line 4: a number of 4301 digits is too large"


    @pytest.mark.parametrize("where", ["before", "inside", "after"])
    @pytest.mark.parametrize("column", ["time_index", "state"])
    def test_each_ascii_character_is_read_as_int_and_float_read_it(
        self, tmp_path, column, where
    ):
        # A data line is stripped, then its time index goes through int() and
        # each state through float(): the bulk parse must accept exactly those
        # cells, with the same bits.  "\n" and "\r" end the line instead;
        # the line-ending tests cover them.
        path = tmp_path / "traj.csv"
        for c in map(chr, range(128)):
            if c in "\n\r":
                continue
            cell = {"before": c + "15", "inside": "1" + c + "5", "after": "15" + c}[where]
            row = f"{cell},2.5" if column == "time_index" else f"3,{cell}"
            path.unlink(missing_ok=True)  # a new file is cheaper to write than a rewritten one
            path.write_text(f"# t=1 nx=1\nk,x_1_1\n-100,1.0\n{row}\n")
            line = row.strip()
            fields = line.split(",")
            if line.startswith("#"):  # a comment line
                assert load_trajectory(path, "csv").time_indices.tolist() == [-100], repr(c)
                continue
            try:
                want = (int(fields[0]), float(fields[1])) if len(fields) == 2 else None
            except ValueError:
                want = None
            if want is None or "_" in row:
                with pytest.raises((ParseError, InconsistentShape), match="line 4: "):
                    load_trajectory(path, "csv")
                continue
            traj = load_trajectory(path, "csv")
            assert traj.time_indices.tolist() == [-100, want[0]], repr(c)
            assert traj.states[1, 0, 0].tobytes() == np.float64(want[1]).tobytes(), repr(c)

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_ascii_separators_are_not_numbers(self, tmp_path, sep):
        # np.loadtxt would skip them around a number, as it skips spaces.
        path = tmp_path / "traj.csv"
        path.write_text(f"# t=1 nx=1\nk,x_1_1\n0,{sep}1.5\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "csv")
        assert str(err.value) == f"{path}: line 3: non-numeric state value"

    @pytest.mark.parametrize(
        "rows, line",
        [(["0,1,2", "1,1,2", "2,1,2,3", "3,1,2"], "line 5"),
         (["0,1,2,3", "1,1,2,3"], "line 3")],
        ids=["later_row", "every_row"],
    )
    def test_extra_column_names_its_line(self, tmp_path, rows, line):
        path = tmp_path / "traj.csv"
        path.write_text("# t=2 nx=1\nk,x_1_1,x_2_1\n" + "\n".join(rows) + "\n")
        with pytest.raises(InconsistentShape) as err:
            load_trajectory(path, "csv")
        assert str(err.value) == (
            f"{path}: {line}: row has 4 columns, expected 3 (t=2 targets of dimension 1)"
        )

    def test_time_index_never_passes_through_a_float(self, tmp_path):
        ks = [-(2**63), 2**53 + 1, 2**63 - 1]
        path = tmp_path / "traj.csv"
        path.write_text(csv_text([(k, [[1.0]]) for k in ks], t=1, nx=1))
        assert load_trajectory(path, "csv").time_indices.tolist() == ks

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_endings_load_bit_identical(self, tmp_path, newline):
        steps = [(-3, [[0.1, -0.0], [5e-324, 1e300]]), (4, [[-2.5e-310, 7.0], [1 / 3, -1e-5]])]
        text = csv_text(steps, t=2, nx=2)
        lf, other = tmp_path / "lf.csv", tmp_path / "other.csv"
        lf.write_bytes(text.encode())
        other.write_bytes(text.replace("\n", newline).encode())
        want, got = load_trajectory(lf, "csv"), load_trajectory(other, "csv")
        assert got.time_indices.tolist() == want.time_indices.tolist() == [-3, 4]
        assert got.states.tobytes() == want.states.tobytes()
        assert want.states.tobytes() == np.array([points for _, points in steps]).tobytes()

    @pytest.mark.parametrize(
        "text, ks",
        [("# t=1 nx=1\nk,x_1_1\n7,0.5\n", [7]),
         ("# t=1 nx=1\nk,x_1_1\n7,0.5\n8,-1e-3", [7, 8]),
         ("# t=1 nx=1\nk,x_1_1\n7,0.5\n# note\n\n  \n8,-1e-3\n#\n9,2\n", [7, 8, 9])],
        ids=["one_data_row", "no_trailing_newline", "comments_between_rows"],
    )
    def test_short_and_interleaved_files_load(self, tmp_path, text, ks):
        path = tmp_path / "traj.csv"
        path.write_text(text)
        traj = load_trajectory(path, "csv")
        assert traj.time_indices.tolist() == ks
        assert traj.states.ravel().tolist() == [0.5, -1e-3, 2.0][: len(ks)]


class TestJson:
    def test_basic(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(json_doc(STEPS, t=3, nx=1)))
        traj = load_trajectory(path, "json")
        assert traj.num_targets == 3
        assert traj.state_dim == 1
        assert MultiTargetState(traj.states[0]) == mts([-10, 0, 10])

    def test_other_keys_are_ignored(self, tmp_path):
        plain, extra = tmp_path / "plain.json", tmp_path / "extra.json"
        doc = json_doc(STEPS, t=3, nx=1)
        plain.write_text(json.dumps(doc))
        doc["units"] = {"x": "m"}
        for step in doc["steps"]:
            step["note"] = [None, "seen", 1.5]
        extra.write_text(json.dumps(doc))
        want, got = load_trajectory(plain, "json"), load_trajectory(extra, "json")
        assert got.time_indices.tobytes() == want.time_indices.tobytes()
        assert got.states.tobytes() == want.states.tobytes()

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"t": 2.9, "nx": 1, "steps": [{"k": 0, "targets": [[1.0], [2.0]]}]}', "'t'"),
            ('{"t": 1, "nx": true, "steps": [{"k": 0, "targets": [[1.0]]}]}', "'nx'"),
            ('{"t": 1, "nx": 1, "steps": [{"k": 1.7, "targets": [[1.0]]}]}', "steps[0]"),
            ('{"t": 1, "nx": 1, "steps": [{"k": "2", "targets": [[1.0]]}]}', "steps[0]"),
            ('{"t": 1, "t": 2, "nx": 1, "steps": [{"k": 0, "targets": [[1.0]]}]}', "'t'"),
            ('{"t": 1, "nx": 1, "steps": [{"k": 0, "k": 1, "targets": [[1.0]]}]}', "'k'"),
        ],
        ids=["float_t", "bool_nx", "float_k", "string_k", "duplicate_t", "duplicate_k"],
    )
    def test_non_integer_or_duplicate_keys_rejected(self, tmp_path, text, named):
        path = tmp_path / "traj.json"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "json")
        assert named in str(err.value)

    @pytest.mark.parametrize(
        "text, shape, named",
        [
            ('{"t": 2, "nx": 1, "steps": [{"k": 0, "targets": [[true], [2.5]]}]}', {},
             "steps[0]"),
            ('{"t": 2, "nx": 1, "steps": [{"k": 0, "targets": [[1.0], ["2.5"]]}]}', {},
             "steps[0]"),
            ('{"t": 1, "nx": 1, "steps": [{"k": 0, "targets": [[null]]}]}', {}, "steps[0]"),
            ('{"t": 1, "nx": 1, "steps": [{"k": 0, "targets": [[1e0]]}, '
             '{"k": 1, "targets": [[false]]}]}', {}, "steps[1]"),
            ('{"t": 1, "nx": 1, "steps": [{"k": 0, "targets": [[1' + "0" * 400 + ']]}]}',
             {}, "steps[0]"),
            ('{"t": 2.9, "nx": 1, "steps": [{"k": 0, "targets": [[1.0]]}]}',
             {"t": 1, "nx": 1}, "'t'"),
            ('{"t": 1, "nx": true, "steps": [{"k": 0, "targets": [[1.0]]}]}',
             {"t": 1, "nx": 1}, "'nx'"),
        ],
        ids=["bool_target", "string_target", "null_target", "bool_in_second_step",
             "int_beyond_float64", "float_t_under_flag", "bool_nx_under_flag"],
    )
    def test_non_number_values_rejected(self, tmp_path, text, shape, named):
        path = tmp_path / "traj.json"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "json", **shape)
        assert named in str(err.value)

    @pytest.mark.parametrize(
        "last, error, message",
        [("[[true, 2.0], [3.0, 4.0]]", ParseError, "target entry True is not a JSON number"),
         ('[[1.0, "2.5"], [3.0, 4.0]]', ParseError, "target entry '2.5' is not a JSON number"),
         ("[[1.0, 2.0], [null, 4.0]]", ParseError, "target entry None is not a JSON number"),
         ("[[1.0, 2.0], [3.0]]", ParseError, "'targets' is not a rectangular array of reals"),
         ("[[1.0, 2.0], [3.0, " + "9" * 4301 + "]]", ParseError,
          "'targets' is not a rectangular array of reals"),
         ("[[1.0, 2.0]]", InconsistentShape, "targets have shape (1, 2), expected (2, 2)")],
        ids=["true", "string", "null", "ragged_row", "long_int", "one_target_short"],
    )
    def test_bad_last_step_of_1000_is_named(self, tmp_path, last, error, message):
        steps = [f'{{"k": {i}, "targets": [[1.0, 2.0], [3.0, 4.0]]}}' for i in range(999)]
        steps.append(f'{{"k": 999, "targets": {last}}}')
        path = tmp_path / "traj.json"
        path.write_text('{"t": 2, "nx": 2, "steps": [' + ", ".join(steps) + "]}")
        with pytest.raises(error) as err:
            load_trajectory(path, "json")
        assert str(err.value) == f"{path}: steps[999]: {message}"

    def test_missing_key(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"t": 1, "steps": []}))
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "json")
        assert "nx" in str(err.value)

    def test_malformed_text_names_line(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text('{\n  "t": 1,\n  oops\n}\n')
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "json")
        assert "line 3" in str(err.value)

    def test_wrong_target_shape(self, tmp_path):
        doc = json_doc([(0, [[1.0], [2.0]])], t=2, nx=1)
        doc["steps"][0]["targets"] = [[1.0]]
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InconsistentShape) as err:
            load_trajectory(path, "json")
        assert "steps[0]" in str(err.value)

    def test_declared_shape_far_larger_than_the_file(self, tmp_path):
        # Checked against the first step before anything is allocated.
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(json_doc([(0, [[1.0]])], t=1, nx=1)))
        with pytest.raises(InconsistentShape) as err:
            load_trajectory(path, "json", t=100_000, nx=100_000)
        assert "steps[0]" in str(err.value)

    def test_nan_rejected(self, tmp_path):
        # json.dumps happily writes NaN; the loader must still refuse it.
        doc = json_doc([(0, [[float("nan")]])], t=1, nx=1)
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(NonFiniteValue):
            load_trajectory(path, "json")

    @pytest.mark.parametrize(
        "ks, named",
        [([0, 10**30], "steps[1]"), ([-1, 2**63], "steps[1]"), ([-(2**63) - 1], "steps[0]"),
         ([0, -(10**400)], "steps[1]")],
        ids=["1e30", "2_pow_63_after_negative", "below_int64", "minus_1e400"],
    )
    def test_time_index_outside_int64_names_step(self, tmp_path, ks, named):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(json_doc([(k, [[1.0]]) for k in ks], t=1, nx=1)))
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "json")
        assert str(err.value) == f"{path}: {named}: time index outside the int64 range"

    @pytest.mark.parametrize(
        "t, nx, k, named",
        [("1", "1", "-" + "9" * 4301, "steps[1]: time index"),
         ("1" * 4301, "1", "1", "'t'"),
         ("1", "9" * 4301, "1", "'nx'")],
        ids=["k", "t", "nx"],
    )
    def test_integer_past_the_int_digit_limit(self, tmp_path, t, nx, k, named):
        path = tmp_path / "traj.json"
        path.write_text(
            f'{{"t": {t}, "nx": {nx}, "steps": [{{"k": 0, "targets": [[1.0]]}}, '
            f'{{"k": {k}, "targets": [[2.0]]}}]}}'
        )
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "json")
        assert str(err.value) == f"{path}: {named}: a number of 4301 digits is too large"

    @pytest.mark.parametrize(
        "target", ["9" * 4301, "-" + "9" * 400, "2" * 309],
        ids=["past_the_int_digit_limit", "400_digits", "309_digits"],
    )
    def test_integer_target_beyond_the_float_range(self, tmp_path, target):
        # However many digits it has, an integer that no float holds is one error.
        path = tmp_path / "traj.json"
        path.write_text('{"t": 1, "nx": 1, "steps": [{"k": 0, "targets": [[' + target + "]]}]}")
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "json")
        assert str(err.value) == f"{path}: steps[0]: 'targets' is not a rectangular array of reals"

    def test_time_must_increase(self, tmp_path):
        doc = json_doc([(0, [[1.0]]), (5, [[2.0]]), (5, [[3.0]])], t=1, nx=1)
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as err:
            load_trajectory(path, "json")
        assert str(err.value) == (
            f"{path}: steps[2]: time indices must be strictly increasing, got 5 followed by 5"
        )

    def test_empty_steps(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"t": 1, "nx": 1, "steps": []}))
        with pytest.raises(ParseError):
            load_trajectory(path, "json")

    def test_ragged_targets(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(
            '{"t": 2, "nx": 2, "steps": [{"k": 0, "targets": [[1.0, 2.0], [3.0]]}]}'
        )
        with pytest.raises(ParseError):
            load_trajectory(path, "json")


class TestTrajectoryType:
    def test_direct_construction_checks_order(self):
        with pytest.raises(ValueError) as err:
            Trajectory([1, 1], np.zeros((2, 1, 1)))
        assert "increasing" in str(err.value)
        with pytest.raises(ValueError):
            Trajectory([0.0, 1.0], np.zeros((2, 1, 1)))

    def test_direct_construction_checks_shape(self):
        with pytest.raises(InconsistentShape):
            Trajectory([0, 1], [[[0.0]], [[0.0], [1.0]]])
        with pytest.raises(InconsistentShape):
            Trajectory([0, 1], np.zeros((3, 1, 1)))
        with pytest.raises(InconsistentShape):
            Trajectory([0, 1], np.zeros((2, 1)))
        with pytest.raises(NonFiniteValue):
            Trajectory([0], [[[float("nan")]]])

    def test_needs_a_step(self):
        with pytest.raises(ValueError):
            Trajectory([], np.zeros((0, 1, 1)))

    def test_arrays_are_read_only_copies(self):
        ks, states = np.array([0, 3]), np.zeros((2, 2, 1))
        traj = Trajectory(ks, states)
        states[0, 0, 0] = 9.0
        assert traj.states[0, 0, 0] == 0.0
        with pytest.raises(ValueError):
            traj.states[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            traj.time_indices[0] = 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_utf8_input_names_the_file(tmp_path, fmt):
    path = tmp_path / f"traj.{fmt}"
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(ParseError) as err:
        load_trajectory(path, fmt)
    assert str(err.value).startswith(f"{path}: not UTF-8 text")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_leading_bom_is_ignored(tmp_path, fmt):
    text = (csv_text(STEPS, t=3, nx=1) if fmt == "csv"
            else json.dumps(json_doc(STEPS, t=3, nx=1)))
    plain = tmp_path / f"plain.{fmt}"
    bom = tmp_path / f"bom.{fmt}"
    plain.write_text(text, encoding="utf-8")
    bom.write_text("\ufeff" + text, encoding="utf-8")
    want, got = load_trajectory(plain, fmt), load_trajectory(bom, fmt)
    assert np.array_equal(got.time_indices, want.time_indices)
    assert np.array_equal(got.states, want.states)


def test_unknown_format(tmp_path):
    path = tmp_path / "traj.xml"
    path.write_text("<traj/>")
    with pytest.raises(ValueError):
        load_trajectory(path, "xml")


# Time indices at the int64 edges and just past float64's exact integers;
# states at the float64 extremes, subnormals and -0.0 among them.
_TIME_INDICES = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 2**53, 2**53 + 1, 2**63 - 2, 2**63 - 1]),
)
_STATES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072009e-308, -0.0, 1e300, -1e300]),
)


@st.composite
def _csv_cells(draw):
    """The header and the cells of each row of a CSV file, as ``repr`` writes them."""
    t, nx = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    ks = sorted(draw(st.lists(_TIME_INDICES, min_size=1, max_size=30, unique=True)))
    row = st.lists(_STATES.map(repr), min_size=t * nx, max_size=t * nx)
    rows = [[str(k)] + draw(row) for k in ks]
    header = ",".join(["k"] + [f"x_{i}_{j}" for i in range(1, t + 1) for j in range(1, nx + 1)])
    return header, rows


def _load_both_ways(directory, header, rows, pad):
    """Load the file as written and with a comment after its header.

    Returns what each load gave: a trajectory or an error message, with
    the noted file's name and line numbers read as the plain file's.
    """
    lines = [",".join(pad + cell + pad for cell in row) for row in rows]
    results = []
    for name, preamble in [("plain", [header]), ("noted", [header, "# note"])]:
        path = directory / f"{name}.csv"
        path.unlink(missing_ok=True)  # a new file is cheaper to write than a rewritten one
        path.write_text("\n".join(preamble + lines) + "\n")
        try:
            results.append(load_trajectory(path, "csv"))
        except LospaError as exc:
            shift = len(preamble) - 1
            message = re.sub(r"line (\d+)", lambda m: f"line {int(m[1]) - shift}", str(exc))
            results.append((type(exc), message.replace("noted.csv", "plain.csv")))
    return results


@settings(deadline=None)
@given(_csv_cells(), st.sampled_from(["", " ", "\t", " \t "]))
def test_csv_paths_agree_bit_for_bit(tmp_path_factory, cells, pad):
    # The plain file goes to one np.loadtxt call; the comment after the
    # header sends the noted one through the per-line parse.
    per_line = mock.patch.object(trajectory, "_parse_lines", wraps=trajectory._parse_lines)
    with per_line as spy:
        bulk, noted = _load_both_ways(tmp_path_factory.getbasetemp(), *cells, pad)
    assert spy.call_count == 1
    assert bulk.time_indices.tobytes() == noted.time_indices.tobytes()
    assert bulk.states.shape == noted.states.shape
    assert bulk.states.tobytes() == noted.states.tobytes()


# Cells that int() or float() refuse, or that make a file a shape, range,
# order or finiteness error, with some that both read.
_BAD_CELLS = [
    "", "x", "1.5", "1e3", "0x10", "1.5.2", "- 1", "1,2", "nan", "-inf", "1e400", "1e-400",
    str(2**63), str(-(2**63) - 1), "1_0", "\u0663", "\x1c1", "\x0b7\x0c", "+0", "-0", "007",
]


@settings(deadline=None)
@given(_csv_cells(), st.sampled_from(["", " "]), st.data())
def test_csv_paths_raise_the_same_error(tmp_path_factory, cells, pad, data):
    header, rows = cells
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[i]) - 1))
    rows[i][j] = data.draw(st.sampled_from(_BAD_CELLS))
    plain, noted = _load_both_ways(tmp_path_factory.getbasetemp(), header, rows, pad)
    if isinstance(plain, Trajectory) and isinstance(noted, Trajectory):
        assert plain.time_indices.tobytes() == noted.time_indices.tobytes()
        assert plain.states.tobytes() == noted.states.tobytes()
    else:
        assert plain == noted


@pytest.mark.parametrize(
    "k, bulk",
    [("1.0", False), ("1e3", False), (" inf", False), ("NaN", False), (" +7\t", True),
     ("\x0b-0", True)],
)
def test_time_index_a_float_parser_reads_is_read_line_by_line_on_old_numpy(
    tmp_path, monkeypatch, k, bulk
):
    # numpy before 2.4 reads "1.0" into an int64 column through a float.
    # There, a time index with more than signs, digits and spaces sends the
    # file to the per-line parse, whose int() refuses it.
    monkeypatch.setattr(trajectory, "_INT_VIA_FLOAT", True)
    spy = mock.Mock(wraps=trajectory._parse_rows)
    monkeypatch.setattr(trajectory, "_parse_rows", spy)
    path = tmp_path / "traj.csv"
    path.write_text(f"k,x_1_1\n-5,1.0\n{k},2.0\n")
    if bulk:
        assert load_trajectory(path, "csv").time_indices.tolist() == [-5, int(k)]
    else:
        with pytest.raises(ParseError, match="line 3: time index .* is not an integer"):
            load_trajectory(path, "csv")
    assert spy.called == bulk


def test_rows_after_a_comment_reach_the_one_row_parse(tmp_path, monkeypatch):
    # The comment after the header sends the file to the line scan, which
    # hands the data rows it keeps to the same np.loadtxt call.
    spy = mock.Mock(wraps=trajectory._parse_rows)
    monkeypatch.setattr(trajectory, "_parse_rows", spy)
    path = tmp_path / "noted.csv"
    path.write_text("k,x_1_1\n# note\n-5,1.5\n\n7, 2.5\n")
    assert load_trajectory(path, "csv").states.ravel().tolist() == [1.5, 2.5]
    assert [call.args[0] for call in spy.call_args_list] == [["-5,1.5", "7, 2.5"]]


def test_csv_load_peaks_under_3_25_times_the_file(tmp_path):
    # long_track_small_t's shape: T = 20,000, t = 5, n_x = 2, repr floats.
    # The text, its lines and the parsed arrays may be alive at once, but no
    # second copy of the text.
    states = np.random.default_rng(5).uniform(0.0, 1000.0, size=(20_000, 10))
    path = tmp_path / "truth.csv"
    names = ",".join(f"x_{i}_{j}" for i in range(1, 6) for j in (1, 2))
    path.write_text(
        f"# t=5 nx=2\nk,{names}\n"
        + "".join(f"{k}," + ",".join(map(repr, row)) + "\n"
                  for k, row in enumerate(states.tolist()))
    )
    size = path.stat().st_size
    tracemalloc.start()
    try:
        traj = load_trajectory(path, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.states.reshape(-1, 10).tobytes() == states.tobytes()
    assert peak <= 3.25 * size, f"peak {peak / size:.2f} times the file's {size} bytes"
