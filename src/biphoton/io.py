"""File formats: binary time-tag streams and JSON documents.

Time-tag binary layout (fixed width, seekable, trivially parseable):

    header, 16 bytes:
        magic        4 bytes   b"BTTG"
        version      u16 LE    1
        reserved     2 bytes   zero
        resolution   u64 LE    timestamp resolution in picoseconds
    records, 9 bytes each:
        channel      u8        0 = A, 1 = B
        timestamp    i64 LE    picoseconds, non-decreasing per channel

JSON documents carry explicit units in their field names and serialize
floats with 17 significant digits, which round-trips IEEE doubles
exactly.  All writes go through a temp file and rename, so readers never
see a partial file.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from . import correlate
from .correlate import CoincidenceHistogram, TimeTagStream
from .errors import ConfigError, DataError
from .fit import FitResult
from .model import AnalyzerSetting
from .reconstruct import ReconstructedTpwf

__all__ = [
    "write_timetags",
    "TimeTagWriter",
    "read_timetags",
    "read_timetag_stream",
    "TimeTagFile",
    "write_json",
    "read_json",
    "histogram_to_dict",
    "histogram_from_dict",
    "recon_to_dict",
    "recon_from_dict",
    "fit_to_dict",
]

TIMETAG_MAGIC = b"BTTG"
TIMETAG_VERSION = 1
_HEADER = struct.Struct("<4sH2xQ")
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("timestamp", "<i8")])
_CHANNEL_CODE = {"A": 0, "B": 1}
_CHANNEL_NAME = {0: "A", 1: "B"}

HISTOGRAM_FORMAT = "coincidence-histogram/1"
RECON_FORMAT = "tpwf-reconstruction/1"
FIT_FORMAT = "fit-result/1"


def _atomic_write_bytes(path, data: bytes):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class TimeTagWriter:
    """Writes one channel's clicks to a binary time-tag file, block by
    block, so that no more than one block is held.

    The header goes to a temp file in the target directory on creation;
    append() adds records with ndarray.tofile and counts them (n_records).
    Each block must continue the channel's non-decreasing timestamp
    order, or append() raises DataError.  close() renames the temp file
    to path, so readers never see a partial file; used as a context
    manager, an exception discards the temp file instead.
    """

    def __init__(self, path, channel: str):
        self.path = path
        self.n_records = 0
        self._code = _CHANNEL_CODE[channel]
        self._last = None
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, self._tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
        self._fh = os.fdopen(fd, "wb")
        try:
            self._fh.write(_HEADER.pack(TIMETAG_MAGIC, TIMETAG_VERSION, 1))
        except BaseException:
            self.discard()
            raise

    def append(self, timestamps_ps: np.ndarray):
        ts = np.asarray(timestamps_ps, dtype=np.int64)
        if not ts.size:
            return
        if (self._last is not None and ts[0] < self._last) or np.any(ts[1:] < ts[:-1]):
            raise DataError(f"{self.path}: timestamps must be non-decreasing")
        records = np.empty(ts.size, dtype=_RECORD_DTYPE)
        records["channel"] = self._code
        records["timestamp"] = ts
        records.tofile(self._fh)
        self.n_records += ts.size
        self._last = ts[-1]

    def close(self):
        """Finish the file and move it into place."""
        self._fh.close()
        try:
            os.replace(self._tmp, self.path)
        except BaseException:
            self.discard()
            raise

    def discard(self):
        """Drop the temp file; path is left as it was."""
        self._fh.close()
        if os.path.exists(self._tmp):
            os.unlink(self._tmp)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self.discard()


def write_timetags(path, stream: TimeTagStream):
    """Write one channel's clicks as a binary time-tag file."""
    with TimeTagWriter(path, stream.channel) as writer:
        writer.append(stream.timestamps_ps)


def _check_header(path) -> tuple[int, int | None]:
    """Check a time-tag file's header, and its record framing from the
    file size.  Returns the record count and the first record's channel
    byte (None for an empty file)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size + 1)
        size = os.fstat(fh.fileno()).st_size
    if len(head) < _HEADER.size:
        raise DataError(f"{path}: truncated header", byte_offset=0)
    magic, version, resolution = _HEADER.unpack_from(head, 0)
    if magic != TIMETAG_MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}", byte_offset=0)
    if version != TIMETAG_VERSION:
        raise DataError(f"{path}: unsupported version {version}", byte_offset=4)
    if resolution != 1:
        raise DataError(f"{path}: unsupported resolution {resolution} ps", byte_offset=8)
    n_records, remainder = divmod(size - _HEADER.size, _RECORD_DTYPE.itemsize)
    if remainder:
        raise DataError(
            f"{path}: truncated record at end of file",
            byte_offset=_HEADER.size + n_records * _RECORD_DTYPE.itemsize,
        )
    return n_records, (head[_HEADER.size] if n_records else None)


def _record_blocks(path, n_records, code=None):
    """Yield (channels, timestamps_ps) arrays of a tag file whose header
    _check_header passed, block by block.

    Each block is checked before it is yielded: its channel bytes, then
    the timestamp order of each channel within the block and against the
    last timestamp of the blocks before.  With a channel code, every
    record must hold that channel; without one, each byte must be 0 or
    1.  A fault raises DataError with the byte offset of the first bad
    record.
    """
    size = _RECORD_DTYPE.itemsize
    last = {}  # channel code -> its last timestamp so far
    start = 0
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        while start < n_records:
            count = min(correlate._BLOCK_RECORDS, n_records - start)
            records = np.fromfile(fh, dtype=_RECORD_DTYPE, count=count)
            offset = _HEADER.size + start * size
            if records.size < count:
                raise DataError(
                    f"{path}: file shrank while being read",
                    byte_offset=offset + records.size * size,
                )
            channels = records["channel"]
            timestamps = records["timestamp"].astype(np.int64)
            bad = np.flatnonzero(channels > 1 if code is None else channels != code)
            if bad.size:
                byte = int(channels[bad[0]])
                if byte in _CHANNEL_NAME:
                    message = (f"expected a single-channel file of channel "
                               f"{_CHANNEL_NAME[code]}, found a channel {_CHANNEL_NAME[byte]} record")
                else:
                    message = f"invalid channel byte {byte}"
                raise DataError(f"{path}: {message}", byte_offset=offset + int(bad[0]) * size)
            if code is not None:
                groups = [(code, None)]
            elif np.all(channels == channels[0]):
                groups = [(int(channels[0]), None)]
            else:
                groups = [(c, np.flatnonzero(channels == c)) for c in (0, 1)]
            for c, idx in groups:
                ts = timestamps if idx is None else timestamps[idx]
                if c in last and ts[0] < last[c]:
                    drop = 0
                else:
                    drops = np.flatnonzero(ts[1:] < ts[:-1])
                    drop = int(drops[0]) + 1 if drops.size else None
                if drop is not None:
                    bad_record = drop if idx is None else int(idx[drop])
                    raise DataError(
                        f"{path}: channel {_CHANNEL_NAME[c]} timestamps decrease",
                        byte_offset=offset + bad_record * size,
                    )
                last[c] = ts[-1]
            yield channels, timestamps
            start += count


def read_timetags(path):
    """Read a time-tag file into (channels, timestamps_ps) arrays.

    Validates the header, the record framing, and per-channel timestamp
    monotonicity; malformed input raises DataError carrying the byte
    offset of the first bad record.
    """
    n_records, _ = _check_header(path)
    channels = np.empty(n_records, dtype=np.uint8)
    timestamps = np.empty(n_records, dtype=np.int64)
    start = 0
    for block_channels, block_timestamps in _record_blocks(path, n_records):
        stop = start + block_timestamps.size
        channels[start:stop] = block_channels
        timestamps[start:stop] = block_timestamps
        start = stop
    return channels, timestamps


class TimeTagFile:
    """A single-channel time-tag file, read block by block.

    Stands in for a TimeTagStream in cross_correlate without holding the
    file in memory: it has the same channel, duration, exposure, len()
    (the record count) and blocks().  The header, the framing and the
    channel are checked on creation; blocks() opens the file, checks each
    block (channel bytes, timestamp order across blocks, range
    [0, duration)) before yielding its timestamps, and closes the file
    when it ends or is closed.

    The binary format does not store acquisition metadata; duration (and
    optionally exposure) come from the run manifest.  channel is required
    for empty files (no record to infer it from) and is cross-checked
    against the records otherwise.
    """

    def __init__(self, path, channel: str | None, duration: float, exposure: float | None = None):
        n_records, first = _check_header(path)
        if first is None:
            if channel is None:
                raise DataError(f"{path}: empty file has no channel; pass one explicitly")
        elif first not in _CHANNEL_NAME:
            raise DataError(f"{path}: invalid channel byte {first}", byte_offset=_HEADER.size)
        elif channel is None:
            channel = _CHANNEL_NAME[first]
        elif _CHANNEL_NAME[first] != channel:
            raise DataError(f"{path}: holds channel {_CHANNEL_NAME[first]}, expected {channel}")
        self.path = path
        self.channel = channel
        self.duration = duration
        self.exposure = correlate.check_acquisition(channel, duration, exposure)
        self._n_records = n_records

    def __len__(self):
        return self._n_records

    def blocks(self):
        """Yield the timestamps in checked blocks of at most _BLOCK_RECORDS."""
        code = _CHANNEL_CODE[self.channel]
        end_ps = self.duration * correlate.PS_PER_SECOND
        for _, timestamps in _record_blocks(self.path, self._n_records, code):
            if timestamps[0] < 0:
                raise DataError(f"{self.path}: timestamps must be >= 0")
            if timestamps[-1] >= end_ps:
                raise DataError(f"{self.path}: timestamps must lie within [0, duration)")
            yield timestamps


def read_timetag_stream(
    path,
    duration: float,
    exposure: float | None = None,
    channel: str | None = None,
) -> TimeTagStream:
    """Read a single-channel file into a TimeTagStream.

    The file is checked once, block by block, as TimeTagFile checks it;
    duration, exposure and channel have the same meaning.
    """
    source = TimeTagFile(path, channel, duration, exposure)
    timestamps = np.empty(len(source), dtype=np.int64)
    start = 0
    for block in source.blocks():
        timestamps[start : start + block.size] = block
        start += block.size
    return TimeTagStream._from_checked(source.channel, timestamps, duration, source.exposure)


# --- JSON ------------------------------------------------------------

def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _encode_flat(arr: np.ndarray):
    """The items of a 1-d bool, int or float array as _encode writes them
    one by one, in one pass; None for any other array."""
    kind = arr.dtype.kind
    if kind == "b":
        return ["true" if v else "false" for v in arr.tolist()]
    if kind in "iu":
        return [str(v) for v in arr.tolist()]
    # Wider floats come out of tolist() as np.longdouble, not float.
    if kind == "f" and arr.itemsize <= 8:
        return [_format_float(v) for v in arr.tolist()]
    return None


def _encode(obj, indent, level):
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
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.size:
            items = _encode_flat(obj)
            if items is not None:
                return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_encode(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{json.dumps(str(k))}: {_encode(v, indent, level + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj, indent: int = 2) -> str:
    """Serialize with floats at 17 significant digits (lossless)."""
    return _encode(obj, indent, 0) + "\n"


def write_json(path, obj):
    _atomic_write_bytes(path, dumps_json(obj).encode("utf-8"))


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc


def _setting_to_dict(setting: AnalyzerSetting | None):
    if setting is None:
        return None
    return {"theta_rad": setting.theta, "phi_rad": setting.phi}


def _setting_from_dict(obj):
    if obj is None:
        return None
    return AnalyzerSetting(theta=float(obj["theta_rad"]), phi=float(obj["phi_rad"]))


# The *_to_dict documents hold their arrays as ndarrays, which dumps_json
# writes in one pass.
def histogram_to_dict(hist: CoincidenceHistogram) -> dict:
    return {
        "format": HISTOGRAM_FORMAT,
        "units": {"bin_width": "ps", "tau_min": "ps", "acquisition_time": "s"},
        "bin_width_ps": hist.bin_width_ps,
        "tau_min_ps": hist.tau_min_ps,
        "counts": hist.counts,
        "acquisition_time_s": hist.acquisition_time,
        "singles_a": hist.singles_a,
        "singles_b": hist.singles_b,
        "setting": _setting_to_dict(hist.setting),
        "mean_counts": hist.mean_counts,
    }


def _require_object(obj, kind: str):
    if not isinstance(obj, dict):
        raise DataError(f"{kind} document must be a JSON object, not {type(obj).__name__}")


def histogram_from_dict(obj) -> CoincidenceHistogram:
    _require_object(obj, "histogram")
    try:
        if obj.get("format") != HISTOGRAM_FORMAT:
            raise DataError(f"not a histogram document: {obj.get('format')!r}")
        mean = obj.get("mean_counts")
        return CoincidenceHistogram(
            bin_width_ps=int(obj["bin_width_ps"]),
            tau_min_ps=int(obj["tau_min_ps"]),
            counts=np.asarray(obj["counts"], dtype=np.int64),
            acquisition_time=float(obj["acquisition_time_s"]),
            singles_a=int(obj["singles_a"]),
            singles_b=int(obj["singles_b"]),
            setting=_setting_from_dict(obj.get("setting")),
            mean_counts=None if mean is None else np.asarray(mean, dtype=float),
        )
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise DataError(f"malformed histogram document: {exc}") from exc


def recon_to_dict(recon: ReconstructedTpwf) -> dict:
    return {
        "format": RECON_FORMAT,
        "units": {"tau": "s", "psi": "relative", "setting_angles": "rad"},
        "tau_s": recon.tau,
        "re_psi": recon.re_psi,
        "im_psi": recon.im_psi,
        "gamma": recon.gamma,
        "sigma_re": recon.sigma_re,
        "sigma_im": recon.sigma_im,
        "sigma_gamma": recon.sigma_gamma,
        "cov_re_im": recon.cov_re_im,
        "valid": recon.valid,
        "background": recon.background,
        "background_mode": recon.background_mode,
        "gamma_mode": recon.gamma_mode,
        "pooled_gamma": recon.pooled_gamma,
        "pooled_sigma_gamma": recon.pooled_sigma_gamma,
        "meta": dict(recon.meta),
    }


def _optional_float(value):
    return None if value is None else float(value)


def recon_from_dict(obj) -> ReconstructedTpwf:
    _require_object(obj, "reconstruction")
    try:
        if obj.get("format") != RECON_FORMAT:
            raise DataError(f"not a reconstruction document: {obj.get('format')!r}")
        return ReconstructedTpwf(
            tau=np.asarray(obj["tau_s"], dtype=float),
            re_psi=np.asarray(obj["re_psi"], dtype=float),
            im_psi=np.asarray(obj["im_psi"], dtype=float),
            gamma=np.asarray(obj["gamma"], dtype=float),
            sigma_re=np.asarray(obj["sigma_re"], dtype=float),
            sigma_im=np.asarray(obj["sigma_im"], dtype=float),
            sigma_gamma=np.asarray(obj["sigma_gamma"], dtype=float),
            valid=np.asarray(obj["valid"], dtype=bool),
            cov_re_im=np.asarray(obj["cov_re_im"], dtype=float),
            background=float(obj.get("background", 0.0)),
            background_mode=str(obj.get("background_mode", "none")),
            gamma_mode=str(obj.get("gamma_mode", "per_bin")),
            pooled_gamma=_optional_float(obj.get("pooled_gamma")),
            pooled_sigma_gamma=_optional_float(obj.get("pooled_sigma_gamma")),
            meta=dict(obj.get("meta", {})),
        )
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise DataError(f"malformed reconstruction document: {exc}") from exc


def fit_to_dict(result: FitResult, label: str) -> dict:
    return {
        "format": FIT_FORMAT,
        "label": label,
        "units": {"times": "s", "angles": "rad", "amplitudes": "relative"},
        "params": dict(result.params),
        "sigmas": dict(result.sigmas),
        "chi2": result.chi2,
        "ndof": result.ndof,
        "reduced_chi2": result.reduced_chi2,
        "converged": result.converged,
        "message": result.message,
        "n_points": result.n_points,
        "residuals": result.residuals,
    }
