import tracemalloc

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
        assert loaded[name].shape == tensors[name].shape, name  # assert_array_equal broadcasts
        np.testing.assert_array_equal(loaded[name], tensors[name])


def test_load_reads_each_payload_once_into_its_own_array(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"ring/state": rng.normal(size=(100_000, 4)), "head/layer0.w": rng.normal(size=(256, 256))}
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, tensors)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * path.stat().st_size
    for name, value in tensors.items():
        flags = loaded[name].flags
        assert loaded[name].dtype == np.float64 and flags.writeable and flags.aligned
        np.testing.assert_array_equal(loaded[name], value)
        assert loaded[name].tobytes() == value.tobytes()  # bit-equal, signed zeros too


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


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"x": np.zeros(2)})
    blob = bytearray(path.read_bytes())
    blob[4:8] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 2"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"x": np.zeros(2)})
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match=f"trailing garbage after byte {size}"):
        load_checkpoint(path)


def test_tensor_without_a_group_rejected_by_the_set_loader(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"actor/layer0.w": np.zeros(2), "loose": np.ones(1)})
    with pytest.raises(CheckpointError, match="tensor 'loose' has no group/name structure"):
        load_parameter_sets(path)


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


def test_group_name_with_a_slash_rejected_before_target_is_touched(tmp_path):
    # "critic/target" would load back as group "critic", parameter "target/layer0.w"
    path = tmp_path / "agent.bin"
    save_parameter_sets(path, {"actor": ParameterSet({"layer0.w": np.ones((2, 2))})})
    before = path.read_bytes()
    sets = {"actor": ParameterSet({"layer0.w": np.zeros((2, 2))}),
            "critic/target": ParameterSet({"layer0.w": np.zeros((3, 1))})}
    with pytest.raises(CheckpointError, match=r"group name 'critic/target' contains '/'"):
        save_parameter_sets(path, sets)
    assert path.read_bytes() == before
    assert _list_dir(tmp_path) == ["agent.bin"]


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
    # the writer refuses NaN/Inf, so the bad value is patched into the file
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"good": np.zeros(2), "actor/layer0.w": np.array([[1.0, 2.0]])})
    path.write_bytes(path.read_bytes()[:-8] + np.array([bad], "<f8").tobytes())
    with pytest.raises(CheckpointError, match=r"'actor/layer0\.w' holds NaN or Inf"):
        load_checkpoint(path)


def test_overflowing_shape_reported_as_truncation(tmp_path):
    # 2^64 items: a wrapped int64 product would read as an empty payload
    path = tmp_path / "ckpt.bin"
    u32 = lambda v: int(v).to_bytes(4, "little")
    path.write_bytes(b"PCIL" + u32(1) + u32(1) + u32(1) + b"x" + u32(4) + u32(2**16) * 4)
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_duplicate_name_reports_offset(tmp_path):
    # the writer takes a mapping, so only a hand-built file can repeat a name
    path = tmp_path / "ckpt.bin"
    u32 = lambda v: int(v).to_bytes(4, "little")
    tensor = lambda value: u32(1) + b"a" + u32(1) + u32(1) + np.array([value], "<f8").tobytes()
    path.write_bytes(b"PCIL" + u32(1) + u32(2) + tensor(1.0) + tensor(2.0))
    second_name_at = 12 + 4 + (1 + 4 + 4 + 8) + 4
    with pytest.raises(CheckpointError, match=rf"duplicate tensor name 'a' at byte {second_name_at}"):
        load_checkpoint(path)


def _list_dir(path):
    return sorted(p.name for p in path.iterdir())


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("actor/layer0.w", np.array([[1.0, np.nan]]), r"'actor/layer0\.w' holds NaN or Inf"),
        ("inf", np.array([-np.inf]), r"'inf' holds NaN or Inf"),
        ("wide", np.zeros((0, 2**32)), r"'wide' has shape \(0, 4294967296\)"),
        ("\ud800", np.zeros(2), r"name '\\ud800' is not valid UTF-8"),
        (7, np.zeros(2), r"name 7 is not a string"),
        ("text", np.array(["a"]), r"'text' is not an array of real numbers"),
    ],
    ids=["nan", "inf", "dim_2_32", "lone_surrogate", "non_str_name", "non_numeric"],
)
def test_bad_tensor_rejected_before_target_is_touched(tmp_path, name, value, message):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"a": np.arange(3.0)})
    before = path.read_bytes()
    with pytest.raises(CheckpointError, match=message):
        save_checkpoint(path, {"b": np.ones(4), name: value})
    assert path.read_bytes() == before
    assert _list_dir(tmp_path) == ["ckpt.bin"]  # no temporary file left behind


def test_failed_write_leaves_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"a": np.arange(3.0)})
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("pcil.checkpoint.os.replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"a": np.ones(3)})
    assert path.read_bytes() == before
    assert _list_dir(tmp_path) == ["ckpt.bin"]


def test_save_replaces_existing_file(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"a": np.arange(300.0)})
    save_checkpoint(str(path), {"b": np.array(2.0)})
    loaded = load_checkpoint(path)
    assert list(loaded) == ["b"] and loaded["b"] == 2.0
    assert _list_dir(tmp_path) == ["ckpt.bin"]


@pytest.mark.parametrize(
    "value",
    ["1.5", ["1", "2"], True, np.array([True, False]), np.array([1 + 2j]), [1.0, None]],
    ids=["string", "strings", "boolean", "boolean_array", "complex", "null"],
)
def test_tensor_of_values_that_are_not_real_numbers_rejected(tmp_path, value):
    # a float64 conversion would read "1.5" as 1.5, True as 1.0 and None as NaN
    path = tmp_path / "ckpt.bin"
    with pytest.raises(CheckpointError, match=r"tensor 'w' is not an array of real numbers"):
        save_checkpoint(path, {"w": value})
    assert _list_dir(tmp_path) == []
