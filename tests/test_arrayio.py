"""Whitespace field files: header, layout, round-trip precision."""

import io

import numpy as np
import pytest

from lopec.arrayio import (ArrayFormatError, format_array, read_array,
                           write_array)


def test_round_trip_is_bitwise():
    rng = np.random.default_rng(0)
    field = rng.uniform(-1e3, 1e3, size=(7, 5))
    buf = io.StringIO()
    write_array(buf, field)
    back = read_array(buf.getvalue())
    assert np.array_equal(back, field)


def test_layout_is_column_per_line():
    field = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])  # M=3, N=2
    text = format_array(field)
    lines = text.strip().splitlines()
    assert lines[0] == "3 2"
    assert lines[1].split() == ["1", "3", "5"]
    assert lines[2].split() == ["2", "4", "6"]


def test_read_handles_extra_whitespace():
    text = "2  2\n\n 1.5   2.5 \n3.5 4.5\n"
    field = read_array(text)
    assert field.shape == (2, 2)
    assert field[0, 0] == 1.5 and field[1, 1] == 4.5


def test_rank1_written_as_single_column():
    v = np.array([1.0, 2.0, 3.0])
    text = format_array(v)
    lines = text.strip().splitlines()
    assert lines[0] == "3 1"
    assert lines[1].split() == ["1", "2", "3"]


@pytest.mark.parametrize("text", [
    "",
    "2\n1 2\n",
    "a b\n1 2\n",
    "2 2\n1 2\n",                 # missing a line
    "2 2\n1 2\n3\n",              # short line
    "2 2\n1 2\n3 x\n",            # not a number
    "0 2\n",                      # degenerate extent
    "2 2\n1 2\n3 4_0\n",          # '_' in a value: float() reads 4_0
    "1_0 1\n1 2 3 4 5 6 7 8 9 10\n",   # int() reads the header 1_0
    "1000000000 1000000000\n1 2\n",    # too large to allocate
    "1 100000000000000000000\n1\n",   # past numpy's largest shape
])
def test_malformed_inputs_rejected(text):
    with pytest.raises(ArrayFormatError):
        read_array(text)


def test_full_precision_survives():
    field = np.array([[1.0 / 3.0, np.pi], [np.e, 2.0 / 7.0]])
    assert np.array_equal(read_array(format_array(field)), field)
