"""Checkpoint binary format: byte layout, round-trips, error handling."""

import re
import struct
from pathlib import Path

import numpy as np
import pytest

from mlsa4rec.tensor import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                             CheckpointError, ParameterStore,
                             load_checkpoint, save_checkpoint)


@pytest.fixture
def store():
    s = ParameterStore(0)
    s.uniform("embedding.M", (5, 3), 3)
    s.zeros("head.b", (4,))
    s.add("scalar_rowvec", np.array([1.5, -2.5]))
    return s


class TestRoundTrip:
    def test_bit_exact(self, store, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(store, path)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(store.entries)
        for name, arr in loaded.items():
            assert arr.dtype == np.float32
            np.testing.assert_array_equal(arr, store[name].data)

    def test_gradients_never_serialized(self, store, tmp_path):
        store["head.b"].grad += 123.0
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(store, path)
        # value payload identical whether grads were set or not
        store.zero_grads()
        path2 = str(tmp_path / "m2.ckpt")
        save_checkpoint(store, path2)
        assert Path(path).read_bytes() == Path(path2).read_bytes()


class TestByteLayout:
    def test_header(self, store, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(store, path)
        blob = Path(path).read_bytes()
        assert blob[:4] == CHECKPOINT_MAGIC == b"MLSA"
        version, count = struct.unpack_from("<II", blob, 4)
        assert version == CHECKPOINT_VERSION
        assert count == 3

    def test_first_record_fields(self, store, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(store, path)
        blob = Path(path).read_bytes()
        off = 12
        (nlen,) = struct.unpack_from("<I", blob, off)
        off += 4
        name = blob[off:off + nlen].decode("utf-8")
        off += nlen
        assert name == "embedding.M"
        (rank,) = struct.unpack_from("<I", blob, off)
        off += 4
        dims = struct.unpack_from("<2I", blob, off)
        off += 8
        assert rank == 2 and dims == (5, 3)
        values = np.frombuffer(blob, dtype="<f4", count=15, offset=off)
        np.testing.assert_array_equal(values.reshape(5, 3),
                                      store["embedding.M"].data)

    def test_values_little_endian_f32(self, tmp_path):
        s = ParameterStore(0)
        s.add("x", np.array([1.0]))
        path = str(tmp_path / "one.ckpt")
        save_checkpoint(s, path)
        assert Path(path).read_bytes()[-4:] == struct.pack("<f", 1.0)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        Path(path).write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_version(self, store, tmp_path):
        path = str(tmp_path / "v.ckpt")
        save_checkpoint(store, path)
        blob = bytearray(Path(path).read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_garbage(self, store, tmp_path):
        path = str(tmp_path / "t.ckpt")
        save_checkpoint(store, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x01")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    # the fixture's file: 12-byte header, then "embedding.M" with its u32
    # name length at 12, name at 16, rank and dims at 27, values at 39
    @pytest.mark.parametrize("cut", [0, 3, 6, 11, 14, 20, 30, 38, 45, 98, -1],
                             ids=["empty", "magic", "version", "count",
                                  "name_length", "name", "rank", "dims",
                                  "values", "record_end", "file_end"])
    def test_truncated_file(self, store, tmp_path, cut):
        path = str(tmp_path / "cut.ckpt")
        save_checkpoint(store, path)
        blob = Path(path).read_bytes()
        assert blob[16:27] == b"embedding.M"
        Path(path).write_bytes(blob[:cut])
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: truncated after ")

    def test_duplicate_name(self, tmp_path):
        s = ParameterStore(0)
        s.add("w", np.array([1.0]))
        s.add("v", np.array([2.0]))
        path = tmp_path / "dup.ckpt"
        save_checkpoint(s, str(path))
        # both names are one byte long, so renaming "v" to "w" keeps the layout
        path.write_bytes(path.read_bytes().replace(b"v", b"w"))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: "
                           "duplicate tensor name 'w'$"):
            load_checkpoint(str(path))

    def test_name_not_utf8(self, tmp_path):
        s = ParameterStore(0)
        s.add("w", np.array([1.0]))
        path = tmp_path / "name.ckpt"
        save_checkpoint(s, str(path))
        path.write_bytes(path.read_bytes().replace(b"w", b"\xff"))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: "
                           "tensor name at byte 16 is not UTF-8$"):
            load_checkpoint(str(path))

    # each product is 2**64, which an int64 count wraps to 0
    @pytest.mark.parametrize("dims", [(2,) * 64, (2 ** 31, 2 ** 31, 4),
                                      (65536,) * 4],
                             ids=["rank_64", "three_dims", "four_dims"])
    def test_value_count_beyond_int64(self, tmp_path, dims):
        path = tmp_path / "huge.ckpt"
        blob = (CHECKPOINT_MAGIC + struct.pack("<III", CHECKPOINT_VERSION, 1, 1)
                + b"w" + struct.pack(f"<I{len(dims)}I", len(dims), *dims))
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: "
                           f"truncated after {len(blob)} bytes$"):
            load_checkpoint(str(path))
