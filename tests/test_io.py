"""File-format contracts: binary time-tag round trips, malformed-input
byte offsets, lossless JSON, and document round trips."""

import json
import math
import os
import struct

import numpy as np
import pytest

from biphoton import (
    AnalyzerSetting,
    CoincidenceHistogram,
    DataError,
    TimeTagStream,
    TpwfModel,
    RECONSTRUCTION_PHASES,
    fit_double_exponential,
    reconstruct_values,
    tpwf_eval,
)
from biphoton import io as bio


def stream(channel, ts, duration=1.0):
    return TimeTagStream(channel, np.asarray(ts, dtype=np.int64), duration)


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
        with pytest.raises(DataError):
            bio.read_timetag_stream(path, duration=1.0, channel="B")

    def test_no_temp_files_left(self, tmp_path):
        path = tmp_path / "tags.bttg"
        bio.write_timetags(path, stream("A", [1, 2]))
        bio.write_json(tmp_path / "doc.json", {"x": 1.5})
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
        assert leftovers == []


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


class TestDocuments:
    def make_hist(self):
        return CoincidenceHistogram(
            bin_width_ps=4000,
            tau_min_ps=-200_000,
            counts=np.arange(100, dtype=np.int64),
            acquisition_time=12.5,
            singles_a=123_456,
            singles_b=654_321,
            setting=AnalyzerSetting.balanced(RECONSTRUCTION_PHASES[1]),
            mean_counts=np.linspace(0.0, 9.9, 100),
        )

    def test_histogram_round_trip(self, tmp_path):
        hist = self.make_hist()
        path = tmp_path / "hist.json"
        bio.write_json(path, bio.histogram_to_dict(hist))
        back = bio.histogram_from_dict(bio.read_json(path))
        assert back.bin_width_ps == hist.bin_width_ps
        assert back.tau_min_ps == hist.tau_min_ps
        np.testing.assert_array_equal(back.counts, hist.counts)
        assert back.acquisition_time == hist.acquisition_time
        assert back.singles_a == hist.singles_a
        assert back.setting == hist.setting
        np.testing.assert_array_equal(back.mean_counts, hist.mean_counts)

    def test_histogram_wrong_format_rejected(self):
        with pytest.raises(DataError):
            bio.histogram_from_dict({"format": "something-else"})
        with pytest.raises(DataError):
            bio.histogram_from_dict({"format": bio.HISTOGRAM_FORMAT})  # missing keys

    def test_reconstruction_round_trip(self, tmp_path):
        model = TpwfModel(amplitude=0.8, corr_time=30e-9, phase=0.4)
        tau = np.linspace(-100e-9, 100e-9, 41)
        psi = tpwf_eval(model, tau)
        y = [np.abs(1.2 * np.exp(-2j * p) - psi) ** 2 for p in RECONSTRUCTION_PHASES]
        recon = reconstruct_values(tau, *y, gamma_mode="pooled")
        path = tmp_path / "recon.json"
        bio.write_json(path, bio.recon_to_dict(recon))
        back = bio.recon_from_dict(bio.read_json(path))
        np.testing.assert_array_equal(back.tau, recon.tau)
        np.testing.assert_array_equal(back.re_psi, recon.re_psi)
        np.testing.assert_array_equal(back.valid, recon.valid)
        assert back.pooled_gamma == recon.pooled_gamma
        assert back.gamma_mode == "pooled"
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

    def test_fit_document(self):
        model = TpwfModel(amplitude=0.8, corr_time=30e-9, phase=0.4)
        tau = np.linspace(-100e-9, 100e-9, 41)
        psi = tpwf_eval(model, tau)
        y = [np.abs(1.2 * np.exp(-2j * p) - psi) ** 2 for p in RECONSTRUCTION_PHASES]
        fit = fit_double_exponential(reconstruct_values(tau, *y))
        doc = bio.fit_to_dict(fit, "envelope")
        text = bio.dumps_json(doc)
        back = json.loads(text)
        assert back["label"] == "envelope"
        assert back["params"]["corr_time"] == fit.params["corr_time"]
        assert back["converged"] is True
