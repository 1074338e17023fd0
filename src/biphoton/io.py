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

from .correlate import CoincidenceHistogram, TimeTagStream
from .errors import ConfigError, DataError
from .fit import FitResult
from .model import AnalyzerSetting
from .reconstruct import ReconstructedTpwf

__all__ = [
    "write_timetags",
    "read_timetags",
    "read_timetag_stream",
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


def write_timetags(path, stream: TimeTagStream):
    """Write one channel's clicks as a binary time-tag file."""
    header = _HEADER.pack(TIMETAG_MAGIC, TIMETAG_VERSION, 1)
    records = np.empty(len(stream), dtype=_RECORD_DTYPE)
    records["channel"] = _CHANNEL_CODE[stream.channel]
    records["timestamp"] = stream.timestamps_ps
    _atomic_write_bytes(path, header + records.tobytes())


def read_timetags(path):
    """Read a time-tag file into (channels, timestamps_ps) arrays.

    Validates the header, the record framing, and per-channel timestamp
    monotonicity; malformed input raises DataError carrying the byte
    offset of the first bad record.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: truncated header", byte_offset=0)
    magic, version, resolution = _HEADER.unpack_from(raw, 0)
    if magic != TIMETAG_MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}", byte_offset=0)
    if version != TIMETAG_VERSION:
        raise DataError(f"{path}: unsupported version {version}", byte_offset=4)
    if resolution != 1:
        raise DataError(f"{path}: unsupported resolution {resolution} ps", byte_offset=8)

    body = raw[_HEADER.size:]
    n_full, remainder = divmod(len(body), _RECORD_DTYPE.itemsize)
    if remainder:
        raise DataError(
            f"{path}: truncated record at end of file",
            byte_offset=_HEADER.size + n_full * _RECORD_DTYPE.itemsize,
        )
    records = np.frombuffer(body, dtype=_RECORD_DTYPE)
    channels = records["channel"]
    timestamps = records["timestamp"].astype(np.int64)

    bad = np.nonzero(channels > 1)[0]
    if bad.size:
        raise DataError(
            f"{path}: invalid channel byte {int(channels[bad[0]])}",
            byte_offset=_HEADER.size + int(bad[0]) * _RECORD_DTYPE.itemsize,
        )
    for code in (0, 1):
        idx = np.nonzero(channels == code)[0]
        if idx.size > 1:
            drops = np.nonzero(np.diff(timestamps[idx]) < 0)[0]
            if drops.size:
                offender = idx[drops[0] + 1]
                raise DataError(
                    f"{path}: channel {_CHANNEL_NAME[code]} timestamps decrease",
                    byte_offset=_HEADER.size + int(offender) * _RECORD_DTYPE.itemsize,
                )
    return channels, timestamps


def read_timetag_stream(
    path,
    duration: float,
    exposure: float | None = None,
    channel: str | None = None,
) -> TimeTagStream:
    """Read a single-channel file into a TimeTagStream.

    The binary format does not store acquisition metadata; duration (and
    optionally exposure) come from the run manifest.  channel is required
    for empty files (no record to infer it from) and is cross-checked
    against the records otherwise.
    """
    channels, timestamps = read_timetags(path)
    if channels.size == 0:
        if channel is None:
            raise DataError(f"{path}: empty file has no channel; pass one explicitly")
        code = _CHANNEL_CODE[channel]
    else:
        code = int(channels[0])
        if np.any(channels != code):
            raise DataError(f"{path}: expected a single-channel file")
        if channel is not None and _CHANNEL_NAME[code] != channel:
            raise DataError(
                f"{path}: holds channel {_CHANNEL_NAME[code]}, expected {channel}"
            )
    return TimeTagStream(
        channel=_CHANNEL_NAME[code],
        timestamps_ps=timestamps,
        duration=duration,
        exposure=exposure,
    )


# --- JSON ------------------------------------------------------------

def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


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
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc


def _setting_to_dict(setting: AnalyzerSetting | None):
    if setting is None:
        return None
    return {"theta_rad": setting.theta, "phi_rad": setting.phi}


def _setting_from_dict(obj):
    if obj is None:
        return None
    return AnalyzerSetting(theta=float(obj["theta_rad"]), phi=float(obj["phi_rad"]))


def histogram_to_dict(hist: CoincidenceHistogram) -> dict:
    return {
        "format": HISTOGRAM_FORMAT,
        "units": {"bin_width": "ps", "tau_min": "ps", "acquisition_time": "s"},
        "bin_width_ps": hist.bin_width_ps,
        "tau_min_ps": hist.tau_min_ps,
        "counts": [int(c) for c in hist.counts],
        "acquisition_time_s": hist.acquisition_time,
        "singles_a": hist.singles_a,
        "singles_b": hist.singles_b,
        "setting": _setting_to_dict(hist.setting),
        "mean_counts": None if hist.mean_counts is None else list(hist.mean_counts),
    }


def histogram_from_dict(obj) -> CoincidenceHistogram:
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
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed histogram document: {exc}") from exc


def recon_to_dict(recon: ReconstructedTpwf) -> dict:
    return {
        "format": RECON_FORMAT,
        "units": {"tau": "s", "psi": "relative", "setting_angles": "rad"},
        "tau_s": list(recon.tau),
        "re_psi": list(recon.re_psi),
        "im_psi": list(recon.im_psi),
        "gamma": list(recon.gamma),
        "sigma_re": list(recon.sigma_re),
        "sigma_im": list(recon.sigma_im),
        "sigma_gamma": list(recon.sigma_gamma),
        "cov_re_im": list(recon.cov_re_im),
        "valid": [bool(v) for v in recon.valid],
        "background": recon.background,
        "background_mode": recon.background_mode,
        "gamma_mode": recon.gamma_mode,
        "pooled_gamma": recon.pooled_gamma,
        "pooled_sigma_gamma": recon.pooled_sigma_gamma,
        "meta": dict(recon.meta),
    }


def recon_from_dict(obj) -> ReconstructedTpwf:
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
            pooled_gamma=obj.get("pooled_gamma"),
            pooled_sigma_gamma=obj.get("pooled_sigma_gamma"),
            meta=dict(obj.get("meta", {})),
        )
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
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
        "residuals": list(result.residuals),
    }
