import struct

import numpy as np
import pytest

from lowrank_als.io import MAGIC, VERSION, load_matrix, save_matrix
from lowrank_als.matrix import gaussian_matrix


@pytest.mark.parametrize("field", ["real", "complex"])
def test_binary_roundtrip(tmp_path, field):
    a = gaussian_matrix(7, 5, seed=0, field=field)
    path = tmp_path / "a.alsm"
    save_matrix(path, a)
    assert np.array_equal(load_matrix(path), a)


def test_header_layout(tmp_path):
    a = gaussian_matrix(3, 4, seed=1, field="complex")
    path = tmp_path / "a.alsm"
    save_matrix(path, a)
    raw = path.read_bytes()
    magic, version, tag, rows, cols = struct.unpack("<4sIBQQ", raw[:25])
    assert magic == MAGIC == b"ALSM"
    assert version == VERSION
    assert tag == 1
    assert (rows, cols) == (3, 4)
    # Payload: row-major float64 with interleaved re/im.
    assert len(raw) == 25 + 3 * 4 * 16
    first = struct.unpack("<2d", raw[25:41])
    assert first == (a[0, 0].real, a[0, 0].imag)


def test_real_tag_and_payload(tmp_path):
    a = np.array([[1.5, -2.0]])
    path = tmp_path / "a.alsm"
    save_matrix(path, a)
    raw = path.read_bytes()
    assert raw[8] == 0
    assert struct.unpack("<2d", raw[25:]) == (1.5, -2.0)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.alsm"
    path.write_bytes(b"NOPE" + b"\0" * 21)
    with pytest.raises(ValueError, match="magic"):
        load_matrix(path)


def test_truncated_payload(tmp_path):
    a = gaussian_matrix(4, 4, seed=2)
    path = tmp_path / "a.alsm"
    save_matrix(path, a)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_matrix(path)


def test_trailing_bytes(tmp_path):
    a = gaussian_matrix(3, 3, seed=2)
    path = tmp_path / "a.alsm"
    save_matrix(path, a)
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError, match="trailing"):
        load_matrix(path)


@pytest.mark.parametrize(
    ("rows", "cols", "payload", "match"),
    [
        (0, 5, b"", "positive dimensions"),
        (2, 2, struct.pack("<4d", 1.0, float("nan"), 0.0, 1.0), "non-finite"),
        (2**32, 2**32, b"", "truncated"),
    ],
    ids=["zero-rows", "nan", "huge-header"],
)
def test_header_and_payload_validated(tmp_path, rows, cols, payload, match):
    path = tmp_path / "a.alsm"
    path.write_bytes(struct.pack("<4sIBQQ", MAGIC, VERSION, 0, rows, cols) + payload)
    with pytest.raises(ValueError, match=match):
        load_matrix(path)
