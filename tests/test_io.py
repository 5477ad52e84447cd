import numpy as np
import pytest

from brillouin._io import read_csv, write_csv


def test_csv_bytes_are_pinned(tmp_path):
    # ints as str(), floats and both parts of complex values with 17
    # significant digits, LF line endings
    path = write_csv(tmp_path / "sub" / "t.csv", {
        "k": np.array([0, 7, -3]),
        "x": np.array([1e-300, -0.0, 0.1 + 0.2]),
        "z": np.array([1 + 2j, complex(-0.0, 1e-300), complex(1 / 3, -2 / 3)]),
    }, config_hash="abc")
    assert path.read_bytes() == (
        b"# config_hash: abc\n"
        b"k,x,z\n"
        b"0,1e-300,1+2j\n"
        b"7,-0,-0+1e-300j\n"
        b"-3,0.30000000000000004,0.33333333333333331-0.66666666666666663j\n")


def test_csv_of_empty_columns_is_the_header(tmp_path):
    path = write_csv(tmp_path / "t.csv", {"n": np.arange(0), "v": np.zeros(0)})
    assert path.read_bytes() == b"n,v\n"


@pytest.mark.parametrize("config_hash", [None, "abc"], ids=["bare", "stamped"])
@pytest.mark.parametrize("rows", [3, 0], ids=["rows", "empty"])
def test_csv_reads_back_as_float_columns(tmp_path, config_hash, rows):
    columns = {"n": np.arange(rows) - 1,
               "x": np.array([1e-300, -0.0, 0.1 + 0.2])[:rows],
               "y": np.array([1 / 3, -2.5e17, 5e-324])[:rows]}
    got = read_csv(write_csv(tmp_path / "t.csv", columns, config_hash=config_hash))
    assert list(got) == ["n", "x", "y"]
    for name, col in columns.items():
        assert got[name].dtype == float
        assert [v.hex() for v in got[name].tolist()] == [float(v).hex() for v in col]
