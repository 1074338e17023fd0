"""File-format contracts: binary time-tag round trips, malformed-input
byte offsets, lossless JSON, and document round trips."""

import errno
import gc
import json
import math
import os
import pathlib
import struct
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from biphoton import (
    AnalyzerSetting,
    BiphotonError,
    CoincidenceHistogram,
    ConfigError,
    DataError,
    TimeTagStream,
    TpwfModel,
    RECONSTRUCTION_PHASES,
    PhaseTriple,
    ReconstructedTpwf,
    SimConfig,
    fit_double_exponential,
    generate_blocks,
    rate_level_histogram,
    reconstruct_curve,
    reconstruct_values,
    tpwf_eval,
)
from biphoton import correlate, cross_correlate
from biphoton import io as bio
from biphoton.cli import main as cli_main
from helpers import SHIPPED_MODEL, forward_triple, phase_histogram, stream


class TestTimetagBinary:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tags.bttg"
        original = stream("B", [0, 5, 5, 123_456_789_000])
        bio.write_timetags(path, original)
        back = bio.read_timetag_stream(path, duration=1.0)
        assert back.channel == "B"
        np.testing.assert_array_equal(back.timestamps_ps, original.timestamps_ps)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "tags.bttg"
        bio.write_timetags(path, stream("A", [7]))
        raw = path.read_bytes()
        assert raw[:4] == b"BTTG"
        version, resolution = struct.unpack("<H", raw[4:6])[0], struct.unpack("<Q", raw[8:16])[0]
        assert version == 1 and resolution == 1
        assert len(raw) == 16 + 9
        assert raw[16] == 0  # channel A
        assert struct.unpack("<q", raw[17:25])[0] == 7

    def test_empty_stream_round_trip(self, tmp_path):
        path = tmp_path / "empty.bttg"
        bio.write_timetags(path, stream("A", []))
        assert path.stat().st_size == 16
        back = bio.read_timetag_stream(path, duration=2.0, channel="A")
        assert len(back) == 0 and back.channel == "A"
        with pytest.raises(DataError):
            bio.read_timetag_stream(path, duration=2.0)  # no channel to infer

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bttg"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(DataError) as err:
            bio.read_timetags(path)
        assert err.value.byte_offset == 0

    def test_truncated_record_offset(self, tmp_path):
        path = tmp_path / "trunc.bttg"
        bio.write_timetags(path, stream("A", [1, 2, 3]))
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])  # cut the last record short
        with pytest.raises(DataError) as err:
            bio.read_timetags(path)
        assert err.value.byte_offset == 16 + 2 * 9

    def test_bad_channel_byte_offset(self, tmp_path):
        path = tmp_path / "chan.bttg"
        bio.write_timetags(path, stream("A", [1, 2, 3]))
        raw = bytearray(path.read_bytes())
        raw[16 + 9] = 7  # second record channel
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError) as err:
            bio.read_timetags(path)
        assert err.value.byte_offset == 16 + 9

    def test_decreasing_timestamps_offset(self, tmp_path):
        path = tmp_path / "unsorted.bttg"
        header = struct.pack("<4sH2xQ", b"BTTG", 1, 1)
        records = b"".join(
            struct.pack("<Bq", 0, t) for t in (100, 50, 200)
        )
        path.write_bytes(header + records)
        with pytest.raises(DataError) as err:
            bio.read_timetags(path)
        assert err.value.byte_offset == 16 + 9  # the record that decreases

    def test_interleaved_channels_monotone_per_channel(self, tmp_path):
        # A and B interleaved, each monotone, is valid
        path = tmp_path / "mixed.bttg"
        header = struct.pack("<4sH2xQ", b"BTTG", 1, 1)
        records = b"".join(
            struct.pack("<Bq", ch, t)
            for ch, t in [(0, 10), (1, 5), (0, 20), (1, 6), (0, 20)]
        )
        path.write_bytes(header + records)
        channels, ts = bio.read_timetags(path)
        assert list(channels) == [0, 1, 0, 1, 0]
        with pytest.raises(DataError):
            bio.read_timetag_stream(path, duration=1.0)  # not single-channel

    def test_channel_hint_mismatch(self, tmp_path):
        path = tmp_path / "tags.bttg"
        bio.write_timetags(path, stream("A", [1]))
        with pytest.raises(DataError, match="found a channel A record") as err:
            bio.read_timetag_stream(path, duration=1.0, channel="B")
        assert err.value.byte_offset == 16

    @pytest.mark.parametrize("ts", [
        np.array([0.1, 0.25, 0.5]),  # a cast to int64 wrote three zero records
        np.array([False, True]),
        np.array([5, 2**63], dtype=np.uint64),
    ])
    def test_writer_rejects_non_integer_timestamps(self, tmp_path, ts):
        path = tmp_path / "tags.bttg"
        with pytest.raises(DataError, match="integer picoseconds"):
            with bio.TimeTagWriter(path, "A") as writer:
                writer.append(ts)
        assert os.listdir(tmp_path) == []

    def test_no_temp_files_left(self, tmp_path):
        path = tmp_path / "tags.bttg"
        bio.write_timetags(path, stream("A", [1, 2]))
        bio.write_json(tmp_path / "doc.json", {"x": 1.5})
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
        assert leftovers == []

    @pytest.mark.parametrize("write", [
        lambda path: bio.write_timetags(path, stream("A", [1, 2])),
        lambda path: bio.write_json(path, {"x": 1.5}),
    ], ids=["tags", "json"])
    def test_output_onto_a_directory_names_the_target(self, tmp_path, write):
        # The rename fails; the error names the target, not the temp file,
        # and the temp file is gone.
        target = tmp_path / "out"
        target.mkdir()
        (target / "kept").write_bytes(b"x")
        with pytest.raises(IsADirectoryError) as err:
            write(target)
        assert err.value.filename == str(target) and err.value.filename2 is None
        assert os.listdir(tmp_path) == ["out"]
        assert os.listdir(target) == ["kept"] and (target / "kept").read_bytes() == b"x"


class TestTagWriter:
    def test_blocks_give_the_one_block_file(self, tmp_path):
        ts = np.array([0, 5, 5, 9, 12, 12, 30, 31], dtype=np.int64)
        bio.write_timetags(tmp_path / "whole.bttg", stream("B", ts))
        with bio.TimeTagWriter(tmp_path / "blocks.bttg", "B") as writer:
            for block in (ts[:3], ts[3:3], ts[3:4], ts[4:]):
                writer.append(block)
        assert writer.n_records == ts.size
        assert (tmp_path / "blocks.bttg").read_bytes() == (tmp_path / "whole.bttg").read_bytes()

    def test_file_appears_only_at_close(self, tmp_path):
        path = tmp_path / "tags.bttg"
        writer = bio.TimeTagWriter(path, "A")
        writer.append(np.array([1, 2], dtype=np.int64))
        assert not path.exists()
        writer.close()
        assert path.stat().st_size == 16 + 2 * 9

    def test_close_inside_the_block_is_the_close(self, tmp_path):
        path = tmp_path / "tags.bttg"
        with bio.TimeTagWriter(path, "A") as writer:
            writer.append(np.array([1, 2], dtype=np.int64))
            writer.close()
        assert os.listdir(tmp_path) == ["tags.bttg"]
        assert bio.read_timetags(path)[1].tolist() == [1, 2]

    def test_second_close_is_a_no_op(self, tmp_path):
        path = tmp_path / "tags.bttg"
        writer = bio.TimeTagWriter(path, "A")
        writer.append(np.array([1, 2], dtype=np.int64))
        writer.close()
        written = path.read_bytes()
        writer.close()
        writer.discard()
        assert os.listdir(tmp_path) == ["tags.bttg"]
        assert path.read_bytes() == written and len(written) == 16 + 2 * 9

    def test_unknown_channel_rejected(self, tmp_path):
        # The writer, the file reader and the stream share one channel rule.
        with pytest.raises(ConfigError, match="channel must be"):
            bio.TimeTagWriter(tmp_path / "tags.bttg", "C")
        assert os.listdir(tmp_path) == []
        bio.write_timetags(tmp_path / "tags.bttg", stream("A", [1]))
        with pytest.raises(ConfigError, match="channel must be"):
            bio.TimeTagFile(tmp_path / "tags.bttg", "C", 1.0)
        with pytest.raises(ConfigError, match="channel must be"):
            stream("C", [1])

    @pytest.mark.parametrize("blocks", [[[1, 3, 2]], [[1, 5], [4, 6]]])
    def test_decreasing_block_rejected_and_discarded(self, tmp_path, blocks):
        path = tmp_path / "tags.bttg"
        with pytest.raises(DataError):
            with bio.TimeTagWriter(path, "A") as writer:
                for block in blocks:
                    writer.append(np.array(block, dtype=np.int64))
        assert os.listdir(tmp_path) == []

    def test_failed_close_discards_the_temp_file(self, tmp_path):
        # On a full disk the final flush, made by close, fails.
        class FullDisk:
            def __init__(self, fh):
                self._fh = fh

            def write(self, data):
                return self._fh.write(data)

            def close(self):
                self._fh.close()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        path = tmp_path / "tags.bttg"
        with pytest.raises(OSError) as err:
            with bio.TimeTagWriter(path, "A") as writer:
                writer._fh = FullDisk(writer._fh)
                writer.append(np.array([1, 2], dtype=np.int64))
        assert err.value.errno == errno.ENOSPC
        assert os.listdir(tmp_path) == []

    def test_read_checks_each_record_once(self, tmp_path, monkeypatch):
        # The blocks are checked as they are read; the stream is built
        # from them without the constructor's second order and range pass.
        path = tmp_path / "tags.bttg"
        bio.write_timetags(path, stream("A", [1, 2, 3]))

        def second_pass(self):
            raise AssertionError("timestamps scanned again")

        monkeypatch.setattr(TimeTagStream, "__post_init__", second_pass)
        back = bio.read_timetag_stream(path, duration=1.0, exposure=0.5)
        assert back.exposure == 0.5 and back.timestamps_ps.dtype == np.int64
        np.testing.assert_array_equal(back.timestamps_ps, [1, 2, 3])
        write_records(path, [(0, 1), (0, 2_000_000_000_000)])  # beyond 1 s
        with pytest.raises(DataError):
            bio.read_timetag_stream(path, duration=1.0)


def write_records(path, rows):
    header = struct.pack("<4sH2xQ", b"BTTG", 1, 1)
    path.write_bytes(header + b"".join(struct.pack("<Bq", ch, t) for ch, t in rows))


def assert_readers_fail_at(path, byte_offset, channel="A"):
    """Every reader raises DataError at byte_offset."""
    readers = [
        bio.read_timetags,
        lambda p: bio.read_timetag_stream(p, duration=1.0, channel=channel),
        lambda p: list(bio.TimeTagFile(p, channel, 1.0).blocks()),
    ]
    for read in readers:
        with pytest.raises(DataError) as err:
            read(path)
        assert err.value.byte_offset == byte_offset


def _data_error(call):
    """The DataError that call() raises, or None."""
    try:
        call()
    except DataError as exc:
        return exc
    return None


# Durations whose end of [0, duration), round(duration * 1e12) ps, is
# the float product (1 s) or lies just below it: 1e-9 s is
# 1000.0000000000001 ps, 4e-9 s 4000.0000000000005 ps and 0.001015 s
# 1015000000.0000001 ps.
BOUNDARY_DURATIONS = (1.0, 1e-9, 4e-9, 0.001015)


@st.composite
def durations_and_tags(draw):
    """A duration and up to 12 tag values near 0, near the end of
    [0, duration) and between them."""
    duration = draw(st.sampled_from(BOUNDARY_DURATIONS))
    end_ps = correlate.seconds_to_ps(duration)
    values = draw(st.lists(
        st.one_of(st.integers(-3, 3), st.integers(end_ps - 3, end_ps + 3),
                  st.integers(0, end_ps)),
        max_size=12,
    ))
    return duration, values


class TestTagStreamBoundaries:
    """TimeTagStream, TimeTagWriter.append and the file reader apply one
    tag-stream rule: non-decreasing timestamps (across appends and
    blocks too) within [0, duration), whose end is round(duration * 1e12)
    ps; the writer checks the order only."""

    @staticmethod
    def first_fault(values, end_ps=None):
        """Index of the first value below its predecessor, or outside
        [0, end_ps) when end_ps is given; None when there is none."""
        for i, t in enumerate(values):
            if (i and t < values[i - 1]) or (end_ps is not None and not 0 <= t < end_ps):
                return i
        return None

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        case=durations_and_tags(),
        sort=st.booleans(),
        nudge=st.integers(0, 11),
        block=st.integers(1, 5),
        pieces=st.integers(1, 4),
    )
    # a tag at the end of 1 ns, 1000 ps, below the float product
    @example(case=(1e-9, [1000]), sort=False, nudge=0, block=1, pieces=1)
    def test_boundaries_agree(self, case, sort, nudge, block, pieces):
        duration, values = case
        if sort:
            # Sorted, but for one value moved down by 1: the smallest
            # order fault, or one just below 0.
            values = sorted(values)
            if nudge < len(values):
                values[nudge] -= 1
        ts = np.array(values, dtype=np.int64)
        end_ps = correlate.seconds_to_ps(duration)
        fault = self.first_fault(values, end_ps)
        order_fault = self.first_fault(values)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(correlate, "_BLOCK_RECORDS", block):
            written = pathlib.Path(tmp) / "written.bttg"

            def write():
                with bio.TimeTagWriter(written, "A") as writer:
                    for piece in np.array_split(ts, pieces):
                        writer.append(piece)

            stream_error = _data_error(lambda: TimeTagStream("A", ts, duration))
            assert (stream_error is None) == (fault is None)
            assert (_data_error(write) is None) == (order_fault is None)

            path = pathlib.Path(tmp) / "tags.bttg"
            write_records(path, [(0, t) for t in values])
            if order_fault is None:
                assert written.read_bytes() == path.read_bytes()
            read_error = _data_error(
                lambda: bio.read_timetag_stream(path, duration, channel="A"))
            if fault is None:
                assert read_error is None
            else:
                assert read_error is not None and read_error.byte_offset == 16 + 9 * fault

    def test_simulated_tags_end_below_end_ps(self):
        # The simulator crops its clicks at the tag rule's end of
        # [0, duration), at a duration whose float product lies above it.
        duration = 0.001015
        end_ps = correlate.seconds_to_ps(duration)
        config = SimConfig(pair_rate=1e6, singles_rate_a=5e7, singles_rate_b=5e7,
                           duration=duration, jitter_sigma=1e-9, seed=11)
        setting = AnalyzerSetting.balanced(RECONSTRUCTION_PHASES[0])
        blocks = list(generate_blocks(config, setting, SHIPPED_MODEL, 1.0))
        for ch, channel in enumerate("AB"):
            ts = np.concatenate([block[ch] for block in blocks])
            assert ts.size > 10**4 and ts[-1] < end_ps
            TimeTagStream(channel, ts, duration)  # the checked constructor accepts them


class TestBlockReader:
    """A fault in a later block is reported at the byte offset the whole
    file gives when it is one block."""

    @pytest.mark.parametrize("block", [1, 3, 4, 64])
    def test_decrease_at_block_boundary(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(correlate, "_BLOCK_RECORDS", block)
        path = tmp_path / "tags.bttg"
        write_records(path, [(0, t) for t in (0, 1, 2, 3, 2, 5, 6, 7)])
        assert_readers_fail_at(path, 16 + 4 * 9)

    @pytest.mark.parametrize("block", [1, 2, 64])
    def test_decrease_of_one_channel_across_blocks(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(correlate, "_BLOCK_RECORDS", block)
        path = tmp_path / "mixed.bttg"
        write_records(path, [(0, 10), (1, 5), (0, 20), (1, 6), (0, 15), (1, 7)])
        with pytest.raises(DataError) as err:
            bio.read_timetags(path)
        assert err.value.byte_offset == 16 + 4 * 9

    @pytest.mark.parametrize("block", [1, 3, 4, 64])
    def test_bad_channel_in_last_block(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(correlate, "_BLOCK_RECORDS", block)
        path = tmp_path / "tags.bttg"
        write_records(path, [(0, t) for t in range(9)] + [(7, 9)])
        assert_readers_fail_at(path, 16 + 9 * 9)

    @pytest.mark.parametrize("block", [1, 3, 4, 64])
    def test_stray_channel_record_in_a_single_channel_file(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(correlate, "_BLOCK_RECORDS", block)
        path = tmp_path / "tags.bttg"
        write_records(path, [(0, t) for t in range(5)] + [(1, 5)] + [(0, t) for t in range(6, 9)])
        single_channel_readers = [
            lambda p: bio.read_timetag_stream(p, duration=1.0, channel="A"),
            lambda p: list(bio.TimeTagFile(p, "A", 1.0).blocks()),
        ]
        for read in single_channel_readers:
            with pytest.raises(DataError, match="found a channel B record") as err:
                read(path)
            assert err.value.byte_offset == 16 + 5 * 9
        channels, _ = bio.read_timetags(path)  # valid as a mixed-channel file
        assert list(channels) == [0] * 5 + [1] + [0] * 3

    @pytest.mark.parametrize("block", [1, 3, 4, 64])
    def test_truncated_tail(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(correlate, "_BLOCK_RECORDS", block)
        path = tmp_path / "tags.bttg"
        write_records(path, [(0, t) for t in range(10)])
        path.write_bytes(path.read_bytes()[:-4])
        assert_readers_fail_at(path, 16 + 9 * 9)

    @pytest.mark.parametrize("block", [1, 3, 64])
    @pytest.mark.parametrize("kept", [6 * 9, 6 * 9 + 4, 9 * 9, 9 * 9 + 8])
    def test_file_shrunk_after_open(self, tmp_path, monkeypatch, block, kept):
        # Cut at a record boundary or inside a record, after the header
        # and framing checks: at block 64 the 72-byte record buffer reads
        # the ten records in two parts, and the cut falls in either.
        monkeypatch.setattr(correlate, "_BLOCK_RECORDS", block)
        path = tmp_path / "tags.bttg"
        write_records(path, [(0, t) for t in range(10)])
        blocks = bio.TimeTagFile(path, "A", 1.0).blocks()
        os.truncate(path, 16 + kept)
        with pytest.raises(DataError, match="file shrank while being read") as err:
            list(blocks)
        assert err.value.byte_offset == 16 + kept // 9 * 9

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_round_trip_in_blocks(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(correlate, "_BLOCK_RECORDS", block)
        path = tmp_path / "tags.bttg"
        original = stream("B", [0, 5, 5, 5, 9, 12, 12, 30])
        bio.write_timetags(path, original)
        source = bio.TimeTagFile(path, None, 1.0)
        assert source.channel == "B" and len(source) == 8
        np.testing.assert_array_equal(np.concatenate(list(source.blocks())), original.timestamps_ps)
        back = bio.read_timetag_stream(path, duration=1.0)
        np.testing.assert_array_equal(back.timestamps_ps, original.timestamps_ps)

    def test_fault_in_one_file_closes_both(self, tmp_path, monkeypatch):
        # B fails in its second block while A's reader is suspended in
        # the middle of its file.
        monkeypatch.setattr(correlate, "_BLOCK_RECORDS", 4)
        bio.write_timetags(tmp_path / "a.bttg", stream("A", np.arange(0, 40, 2)))
        write_records(tmp_path / "b.bttg", [(1, t) for t in (1, 3, 5, 7, 9, 8, 11, 13)])
        opened = []

        def tracking_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(bio, "open", tracking_open, raising=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError) as err:
                cross_correlate(
                    bio.TimeTagFile(tmp_path / "a.bttg", "A", 1.0),
                    bio.TimeTagFile(tmp_path / "b.bttg", "B", 1.0),
                    1e-12,
                    4e-12,
                )
            assert err.value.byte_offset == 16 + 5 * 9
            assert {os.path.basename(fh.name) for fh in opened} == {"a.bttg", "b.bttg"}
            assert all(fh.closed for fh in opened)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestReaderMemory:
    """A suspended single-channel reader holds the block of timestamps it
    yielded, not the records it was read from."""

    @pytest.mark.parametrize("block", [None, 2**12])
    def test_reader_holds_one_block(self, tmp_path, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(correlate, "_BLOCK_RECORDS", block)
        n = 3 * correlate._BLOCK_RECORDS
        path = tmp_path / "tags.bttg"
        bio.write_timetags(path, stream("A", np.arange(n) * 10))
        source = bio.TimeTagFile(path, "A", 1.0)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            blocks = source.blocks()
            first = next(blocks)
            held = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        blocks.close()
        assert first.size == correlate._BLOCK_RECORDS
        assert held < 1.25 * first.nbytes

    def test_reader_holds_no_dropped_block(self, tmp_path):
        # Once its consumer drops a block, a suspended reader holds only
        # its record buffer, an eighth of a block of 9-byte records.
        n = 3 * correlate._BLOCK_RECORDS
        path = tmp_path / "tags.bttg"
        bio.write_timetags(path, stream("A", np.arange(n) * 10))
        blocks = bio.TimeTagFile(path, "A", 1.0).blocks()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            size = next(blocks).nbytes
            held = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        blocks.close()
        assert held < 0.2 * size


class TestJson:
    def test_seventeen_significant_digits(self):
        text = bio.dumps_json({"x": 0.1})
        assert "0.10000000000000001" in text

    def test_float_round_trip_is_lossless(self):
        rng = np.random.default_rng(71)
        values = list(rng.normal(size=50)) + [1e-300, 1e300, 2.0**-52]
        doc = json.loads(bio.dumps_json({"v": values}))
        assert doc["v"] == values

    def test_non_finite_values(self):
        doc = json.loads(bio.dumps_json({"a": math.inf, "b": -math.inf, "c": math.nan}))
        assert doc["a"] == math.inf and doc["b"] == -math.inf and math.isnan(doc["c"])

    def test_nested_structures(self):
        obj = {"a": [1, 2.5, None, True, False, "s"], "b": {"c": []}}
        assert json.loads(bio.dumps_json(obj)) == obj

    def test_numpy_values_serialize(self):
        obj = {"i": np.int64(3), "f": np.float64(0.25), "arr": np.arange(3)}
        doc = json.loads(bio.dumps_json(obj))
        assert doc == {"i": 3, "f": 0.25, "arr": [0, 1, 2]}

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            bio.read_json(path)


def _reference_format_float(x):
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _reference_encode(obj, indent=2, level=0):
    """io._encode as it was before arrays had a one-pass path: every
    element encoded on its own.  The oracle for the array path."""
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _reference_format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_reference_encode(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{json.dumps(str(k))}: {_reference_encode(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _as_arrays(obj):
    """A loaded JSON document with every non-empty list of one scalar
    type (bool, int or float) turned back into an ndarray."""
    if isinstance(obj, dict):
        return {k: _as_arrays(v) for k, v in obj.items()}
    if isinstance(obj, list):
        kinds = {type(v) for v in obj}
        if len(kinds) == 1 and kinds <= {bool, int, float}:
            return np.array(obj)
        return [_as_arrays(v) for v in obj]
    return obj


I64 = np.iinfo(np.int64)
ARRAY_CASES = {
    "floats": np.array([0.1, -2.5, 1e300, -1e-300, 3.0]),
    "nan": np.array([1.0, math.nan, 2.0]),
    "inf": np.array([math.inf, 0.5]),
    "minus_inf": np.array([-math.inf, 0.5]),
    "negative_zero": np.array([-0.0, 0.0, -0.0]),
    "subnormals": np.array([5e-324, -5e-324, 2.0**-1070, np.nextafter(0.0, 1.0)]),
    "float_extremes": np.array([np.finfo(float).max, np.finfo(float).tiny, -np.finfo(float).max]),
    "float32": np.array([0.1, 1e-40, -3.5], dtype=np.float32),
    "float16": np.array([0.1, 65504.0], dtype=np.float16),
    "int64_extremes": np.array([I64.min, -1, 0, 1, I64.max], dtype=np.int64),
    "uint64_max": np.array([0, np.iinfo(np.uint64).max], dtype=np.uint64),
    "int8": np.array([-128, 127], dtype=np.int8),
    "bool": np.array([True, False, True]),
    "empty_float": np.array([], dtype=float),
    "empty_int": np.array([], dtype=np.int64),
    "empty_bool": np.array([], dtype=bool),
    "zero_d_float": np.array(0.25),
    "zero_d_nan": np.array(math.nan),
    "zero_d_int": np.array(7),
    "zero_d_bool": np.array(True),
    "two_d": np.arange(6.0).reshape(2, 3),
    "single": np.array([1.5]),
}


class TestArrayEncoding:
    """dumps_json writes 1-d bool, int and finite float arrays in one
    pass; the bytes must equal those of the element-by-element encoder."""

    @pytest.mark.parametrize("name", sorted(ARRAY_CASES))
    def test_bytes_match_element_encoder(self, name):
        arr = ARRAY_CASES[name]
        for obj in (arr, {"a": arr, "b": [arr, {"c": arr}]}):
            try:
                expected = _reference_encode(obj) + "\n"
            except TypeError:
                # 0-d arrays were never serializable; they still are not
                with pytest.raises(TypeError):
                    bio.dumps_json(obj)
            else:
                assert bio.dumps_json(obj) == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        hnp.arrays(
            st.sampled_from([np.float64, np.float32, np.int64, np.int32, np.uint16, np.bool_]),
            st.integers(0, 12),
        )
    )
    def test_random_arrays_match_element_encoder(self, arr):
        obj = {"values": arr}
        assert bio.dumps_json(obj) == _reference_encode(obj) + "\n"

    def test_complex_array_still_refused(self):
        with pytest.raises(TypeError):
            bio.dumps_json(np.array([1j]))

    def test_cli_run_documents(self, tmp_path):
        # A short default run whose per-bin reconstruction has invalid
        # (NaN) bins, so both array paths are taken.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3, "sim": {"duration_s": 5.0}}))
        run = tmp_path / "run"
        assert cli_main(["pipeline", "--config", str(config), "--output-dir", str(run)]) == 0
        names = [f"hist_phi{k}.json" for k in range(3)] + ["reconstruction.json", "fits.json"]
        recon = bio.recon_from_dict(bio.read_json(run / "reconstruction.json"))
        assert not recon.valid.all()
        for name in names:
            data = (run / name).read_bytes()
            doc = _as_arrays(json.loads(data))
            assert _reference_encode(doc).encode() + b"\n" == data
            assert bio.dumps_json(doc).encode() == data
        for k in range(3):
            hist = bio.histogram_from_dict(bio.read_json(run / f"hist_phi{k}.json"))
            doc = bio.histogram_to_dict(hist)
            assert isinstance(doc["counts"], np.ndarray)
            assert bio.dumps_json(doc).encode() == (run / f"hist_phi{k}.json").read_bytes()
        doc = bio.recon_to_dict(recon)
        assert bio.dumps_json(doc) == _reference_encode(doc) + "\n"


def _fine_recon_document():
    """The document of a 20,000-bin reconstruction from rate-level
    histograms, with a few hundred invalid (NaN) bins."""
    config = SimConfig(pair_rate=2e5, singles_rate_a=2e5, singles_rate_b=2e5, duration=2.0, seed=5)
    hists = [rate_level_histogram(config, AnalyzerSetting.balanced(phi), SHIPPED_MODEL, 1.0, 0.04e-9)
             for phi in RECONSTRUCTION_PHASES]
    recon = reconstruct_curve(PhaseTriple(*hists))
    assert recon.valid.size == 20_000 and 0 < np.count_nonzero(~recon.valid)
    return bio.recon_to_dict(recon)


class TestStreamedJson:
    """write_json writes the bytes of dumps_json, one array at a time."""

    @pytest.mark.parametrize("name", sorted(ARRAY_CASES))
    def test_file_holds_the_dumps_json_bytes(self, tmp_path, name):
        arr = ARRAY_CASES[name]
        path = tmp_path / "doc.json"
        for obj in (arr, {"a": arr, "b": [arr, {"c": arr}]}):
            try:
                text = bio.dumps_json(obj)
            except TypeError:
                with pytest.raises(TypeError):
                    bio.write_json(path, obj)
                assert os.listdir(tmp_path) == []
            else:
                bio.write_json(path, obj)
                assert path.read_bytes() == text.encode()
                path.unlink()

    def test_reconstruction_is_written_within_its_size(self, tmp_path):
        doc = _fine_recon_document()
        path = tmp_path / "reconstruction.json"
        tracemalloc.start()
        try:
            bio.write_json(path, doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = path.read_bytes()
        assert data == bio.dumps_json(doc).encode()
        assert b"NaN" in data
        # Every array's text at once would be about 3 times the file.
        assert peak < len(data)


class TestDocuments:
    def test_histogram_round_trip(self, tmp_path):
        hist = phase_histogram(np.arange(100), 12.5, (123_456, 654_321), 1)
        path = tmp_path / "hist.json"
        bio.write_json(path, bio.histogram_to_dict(hist))
        back = bio.histogram_from_dict(bio.read_json(path))
        assert back.bin_width_ps == hist.bin_width_ps
        assert back.tau_min_ps == hist.tau_min_ps
        np.testing.assert_array_equal(back.counts, hist.counts)
        assert back.acquisition_time == hist.acquisition_time
        assert back.singles_a == hist.singles_a
        assert back.setting == hist.setting

    def test_older_documents_with_removed_keys_load(self, tmp_path):
        # Histogram documents once held the rate-level simulator's
        # mean_counts, and reconstruction documents a meta object.
        hist = phase_histogram(np.arange(100), 12.5, (123_456, 654_321), 1)
        hist_doc = bio.histogram_to_dict(hist)
        assert "mean_counts" not in hist_doc
        path = tmp_path / "hist.json"
        bio.write_json(path, dict(hist_doc, mean_counts=np.linspace(0.0, 9.9, 100)))
        back = bio.histogram_from_dict(bio.read_json(path))
        np.testing.assert_array_equal(back.counts, hist.counts)
        assert back.setting == hist.setting
        assert bio.histogram_to_dict(back).keys() == hist_doc.keys()

        recon_doc = _small_recon_document()
        assert "meta" not in recon_doc
        path = tmp_path / "recon.json"
        bio.write_json(path, dict(recon_doc, meta={"acquisition_time": 12.5}))
        back = bio.recon_from_dict(bio.read_json(path))
        np.testing.assert_array_equal(back.im_psi, recon_doc["im_psi"])
        assert bio.recon_to_dict(back).keys() == recon_doc.keys()

    @pytest.mark.parametrize("key, value", [
        ("bin_width_ps", 10**30),
        ("bin_width_ps", 2**62),  # over 4 bins, int64 centres would wrap
        ("tau_min_ps", -10**30),
    ])
    def test_histogram_bins_beyond_2_62_ps_rejected(self, key, value):
        doc = _small_histogram_document()  # 4 bins from -8000 ps
        doc[key] = value
        with pytest.raises(DataError, match="2\\*\\*62"):
            bio.histogram_from_dict(doc)

    def test_histogram_wrong_format_rejected(self):
        with pytest.raises(DataError):
            bio.histogram_from_dict({"format": "something-else"})
        with pytest.raises(DataError):
            bio.histogram_from_dict({"format": bio.HISTOGRAM_FORMAT})  # missing keys

    def test_reconstruction_round_trip(self, tmp_path):
        model = TpwfModel(amplitude=0.8, corr_time=30e-9, phase=0.4)
        tau = np.linspace(-100e-9, 100e-9, 41)
        psi = tpwf_eval(model, tau)
        y = forward_triple(1.2, psi)
        recon = reconstruct_values(tau, *y, gamma_mode="pooled")
        path = tmp_path / "recon.json"
        bio.write_json(path, bio.recon_to_dict(recon))
        back = bio.recon_from_dict(bio.read_json(path))
        np.testing.assert_array_equal(back.tau, recon.tau)
        np.testing.assert_array_equal(back.re_psi, recon.re_psi)
        np.testing.assert_array_equal(back.valid, recon.valid)
        assert back.gamma[back.valid][0] == recon.gamma[recon.valid][0]
        assert back.gamma_mode == "pooled"
        # older files also hold the pooled gamma as two scalars, ignored
        older = dict(bio.read_json(path), pooled_gamma=1.2, pooled_sigma_gamma=0.0)
        np.testing.assert_array_equal(bio.recon_from_dict(older).gamma, back.gamma)
        # documents feed the fit stage directly
        fit = fit_double_exponential(back)
        assert fit.params["corr_time"] == pytest.approx(30e-9, rel=1e-8)

    @pytest.mark.parametrize("cov", [None, [0.0, 0.0]])
    def test_reconstruction_bad_covariance_rejected(self, cov):
        tau = np.linspace(-100e-9, 100e-9, 5)
        ones = np.ones(tau.size)
        doc = bio.recon_to_dict(reconstruct_values(tau, ones, ones, ones))
        doc["cov_re_im"] = cov
        with pytest.raises(DataError):
            bio.recon_from_dict(doc)

    def test_reconstruction_malformed_fields_rejected(self):
        tau = np.linspace(-100e-9, 100e-9, 5)
        ones = np.ones(tau.size)
        doc = bio.recon_to_dict(reconstruct_values(tau, ones, ones, ones, gamma_mode="pooled"))
        # a 2-d tau used to load and then crash the envelope fit
        with pytest.raises(DataError):
            bio.recon_from_dict(dict(doc, tau_s=[[t, t] for t in doc["tau_s"]]))

    @pytest.mark.parametrize("key, value", [
        ("bin_width_ps", 4000.7),
        ("bin_width_ps", True),
        ("bin_width_ps", "4000"),
        ("singles_a", 99.9),
        ("counts", [1, 3.9, 0, 2]),
        ("counts", [1, True, 0, 2]),
        ("counts", [1, 2**63, 0, 2]),
        ("counts", ["1", "0", "7", "1"]),
        ("acquisition_time_s", "1.0"),
    ])
    def test_histogram_field_of_the_wrong_type_rejected(self, key, value):
        doc = _small_histogram_document()
        doc[key] = value
        with pytest.raises(DataError, match=f"histogram document: {key} must be"):
            bio.histogram_from_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("tau_s", [str(t) for t in np.linspace(-100e-9, 100e-9, 5)]),
        ("valid", [2, 1, 1, 1, 1]),
        ("background", "0.5"),
        ("background", True),
        ("gamma_mode", 5),
        ("re_psi", [0.1, [0.2, 0.3], 0.4, 0.5, 0.6]),
    ])
    def test_reconstruction_field_of_the_wrong_type_rejected(self, key, value):
        doc = _small_recon_document()
        doc[key] = value
        with pytest.raises(DataError, match=f"reconstruction document: {key} must be"):
            bio.recon_from_dict(doc)

    @pytest.mark.parametrize("key", ["background_mode", "gamma_mode"])
    def test_reconstruction_unknown_mode_rejected(self, key):
        doc = _small_recon_document()
        doc[key] = "foo"
        with pytest.raises(DataError, match=f"unknown {key} 'foo'"):
            bio.recon_from_dict(doc)

    def test_fit_document(self):
        model = TpwfModel(amplitude=0.8, corr_time=30e-9, phase=0.4)
        tau = np.linspace(-100e-9, 100e-9, 41)
        psi = tpwf_eval(model, tau)
        y = forward_triple(1.2, psi)
        fit = fit_double_exponential(reconstruct_values(tau, *y))
        doc = bio.fit_to_dict(fit, "envelope")
        text = bio.dumps_json(doc)
        back = json.loads(text)
        assert back["label"] == "envelope"
        assert back["params"]["corr_time"] == fit.params["corr_time"]
        assert back["converged"] is True


# --- fuzzing: every input loads or raises a BiphotonError -------------
FUZZ = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
VALID_HEADER = bio._HEADER.pack(bio.TIMETAG_MAGIC, bio.TIMETAG_VERSION, 1)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=15,
)


@st.composite
def tag_records(draw):
    """Record bytes that are mostly well framed: channel bytes near the
    valid range, timestamps anywhere, and optional trailing garbage."""
    rows = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(-(2**63), 2**63 - 1)), max_size=12)
    )
    if draw(st.booleans()):
        rows.sort(key=lambda r: r[1])
    records = np.array(rows, dtype=bio._RECORD_DTYPE)
    return records.tobytes() + draw(st.binary(max_size=10))


@st.composite
def corrupt_headers(draw):
    """A valid header with one field or byte replaced, or arbitrary bytes."""
    mutate = draw(st.sampled_from(["field", "byte", "raw"]))
    if mutate == "raw":
        return draw(st.binary(max_size=bio._HEADER.size + 4))
    if mutate == "byte":
        header = bytearray(VALID_HEADER)
        header[draw(st.integers(0, len(header) - 1))] = draw(st.integers(0, 255))
        return bytes(header)
    return bio._HEADER.pack(
        draw(st.binary(min_size=4, max_size=4)),
        draw(st.integers(0, 2**16 - 1)),
        draw(st.integers(0, 2**64 - 1)),
    )


@st.composite
def mutated_documents(draw, valid):
    """Arbitrary JSON values, or a valid document with fields replaced by
    arbitrary JSON values or removed."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON_VALUES)
    doc = dict(valid)
    keys = sorted(doc)
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        doc[key] = draw(JSON_VALUES)
    for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
        doc.pop(key, None)
    return doc


def _small_recon_document():
    tau = np.linspace(-100e-9, 100e-9, 5)
    psi = tpwf_eval(TpwfModel(amplitude=0.8, corr_time=30e-9, phase=0.4), tau)
    y = forward_triple(1.2, psi)
    counts = [np.rint(1e3 * v) for v in y]
    return bio.recon_to_dict(reconstruct_values(tau, *y, *counts, gamma_mode="pooled"))


def _small_histogram_document():
    return bio.histogram_to_dict(phase_histogram([3, 0, 7, 1], 2.0, (100, 90), 2))


def json_equal(a, b) -> bool:
    """Whether a and b are the same JSON value: a bool equals only a bool
    and a string only a string, numbers compare by value (NaN equals
    NaN), and arrays, as lists or ndarrays, element by element."""
    a, b = (v.tolist() if isinstance(v, np.ndarray) else v for v in (a, b))
    if isinstance(a, list) or isinstance(b, list):
        return type(a) is type(b) and len(a) == len(b) and all(map(json_equal, a, b))
    if isinstance(a, dict) or isinstance(b, dict):
        return type(a) is type(b) and a.keys() == b.keys() and all(json_equal(a[k], b[k]) for k in a)
    if {type(a), type(b)} & {bool, str, type(None)}:
        return type(a) is type(b) and a == b
    return a == b or (a != a and b != b)


def assert_encodes_to(encoded, given):
    """A document that loaded re-encodes to the values it was given,
    field by field; a missing nullable field encodes as null.  The units
    are not read."""
    for key, value in encoded.items():
        if key != "units":
            assert json_equal(value, given.get(key)), key


class TestReaderFuzz:
    def check_tag_file(self, path, data, channel):
        path.write_bytes(data)
        try:
            channels, timestamps = bio.read_timetags(path)
        except BiphotonError:
            return
        assert channels.size == timestamps.size
        assert timestamps.dtype == np.int64
        try:
            stream = bio.read_timetag_stream(path, duration=1.0, channel=channel)
        except BiphotonError:
            return
        assert isinstance(stream, TimeTagStream)
        np.testing.assert_array_equal(stream.timestamps_ps, timestamps)

    @FUZZ
    @given(
        body=tag_records() | st.binary(max_size=60),
        channel=st.sampled_from(["A", "B", None]),
    )
    def test_tag_readers_behind_a_valid_header(self, tmp_path, body, channel):
        self.check_tag_file(tmp_path / "tags.bttg", VALID_HEADER + body, channel)

    @FUZZ
    @given(
        header=corrupt_headers(),
        body=tag_records() | st.binary(max_size=60),
        channel=st.sampled_from(["A", "B", None]),
    )
    def test_tag_readers_behind_a_corrupt_header(self, tmp_path, header, body, channel):
        self.check_tag_file(tmp_path / "tags.bttg", header + body, channel)

    @FUZZ
    @given(obj=mutated_documents(_small_histogram_document()))
    @example(obj={**_small_histogram_document(), "bin_width_ps": True})
    def test_histogram_reader(self, obj):
        try:
            hist = bio.histogram_from_dict(obj)
        except BiphotonError:
            return
        assert isinstance(hist, CoincidenceHistogram)
        assert hist.counts.ndim == 1
        assert_encodes_to(bio.histogram_to_dict(hist), obj)

    @FUZZ
    @given(obj=mutated_documents(_small_recon_document()))
    def test_reconstruction_reader(self, obj):
        try:
            recon = bio.recon_from_dict(obj)
        except BiphotonError:
            return
        assert isinstance(recon, ReconstructedTpwf)
        assert recon.tau.ndim == 1
        assert_encodes_to(bio.recon_to_dict(recon), obj)
