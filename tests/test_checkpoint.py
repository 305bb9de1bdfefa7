import numpy as np
import pytest

from pcil.autodiff import ParameterSet
from pcil.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_parameter_sets,
    save_checkpoint,
    save_parameter_sets,
)


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "actor/layer0.w": rng.normal(size=(4, 8)),
        "actor/layer0.b": rng.normal(size=(8,)),
        "scalar": np.array(3.5),
    }
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        np.testing.assert_array_equal(loaded[name], tensors[name])


def test_header_layout(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"x": np.zeros(2)})
    blob = path.read_bytes()
    assert blob[:4] == b"PCIL"
    assert int.from_bytes(blob[4:8], "little") == 1
    assert int.from_bytes(blob[8:12], "little") == 1


def test_truncated_file_reports_offset(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"x": np.arange(5.0)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="byte"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "ckpt.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_parameter_set_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    sets = {
        "actor": ParameterSet({"layer0.w": rng.normal(size=(3, 3))}),
        "critic1": ParameterSet({"layer0.w": rng.normal(size=(5, 1))}),
    }
    path = tmp_path / "agent.bin"
    save_parameter_sets(path, sets)
    loaded = load_parameter_sets(path)
    assert set(loaded) == {"actor", "critic1"}
    np.testing.assert_array_equal(loaded["actor"]["layer0.w"], sets["actor"]["layer0.w"])


def test_non_utf8_name_reports_offset(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"ok": np.zeros(2), "xy": np.ones(3)})
    blob = bytearray(path.read_bytes())
    name_at = 12 + (4 + 2 + 4 + 4 + 16) + 4  # header, first tensor, second name length
    assert blob[name_at : name_at + 2] == b"xy"
    blob[name_at] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=rf"name at byte {name_at} is not UTF-8"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_names_tensor(tmp_path, bad):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"good": np.zeros(2), "actor/layer0.w": np.array([[1.0, bad]])})
    with pytest.raises(CheckpointError, match=r"'actor/layer0\.w' holds NaN or Inf"):
        load_checkpoint(path)


def test_overflowing_shape_reported_as_truncation(tmp_path):
    # 2^64 items: a wrapped int64 product would read as an empty payload
    path = tmp_path / "ckpt.bin"
    u32 = lambda v: int(v).to_bytes(4, "little")
    path.write_bytes(b"PCIL" + u32(1) + u32(1) + u32(1) + b"x" + u32(4) + u32(2**16) * 4)
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)
