from fractions import Fraction

import numpy as np

from ifsfourier.report import dumps, write_csv


def test_float_formatting_17_digits():
    assert dumps(1 / 3).strip() == "0.33333333333333331"
    assert dumps(1.0).strip() == "1"


def test_fraction_and_complex_rendering():
    out = dumps({"a": Fraction(3, 5), "b": Fraction(4), "c": 1 + 2j})
    assert '"a": "3/5"' in out
    assert '"b": "4"' in out
    assert '"im": 2' in out and '"re": 1' in out


def test_sorted_keys_and_nesting():
    out = dumps({"b": [1, 2], "a": {"y": None, "x": True}})
    assert out.index('"a"') < out.index('"b"')
    assert out.index('"x"') < out.index('"y"')
    assert "true" in out and "null" in out


def test_numpy_values_render():
    out = dumps({"v": np.array([0.5, 1.5]), "n": np.int64(7)})
    assert '"n": 7' in out
    assert "0.5" in out and "1.5" in out


def test_write_csv_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1 / 3, 2], [np.float64(0.1), "x"]])
    assert path.read_bytes() == b"a,b\r\n0.33333333333333331,2\r\n0.10000000000000001,x\r\n"


def test_determinism():
    payload = {"z": [1.25, Fraction(1, 7)], "a": {"k": 2 ** 40}}
    assert dumps(payload) == dumps(payload)
