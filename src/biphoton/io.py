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
exactly.  A JSON file is written one array at a time, so no more than
one array's text is held.  All writes go through a temp file and rename,
so readers never see a partial file; the file gets the mode that
open() would give it, 0o666 less the umask.
"""

from __future__ import annotations

import json
import math
import os
import struct
from operator import itemgetter

import numpy as np

from . import correlate
from .correlate import _CHANNELS, CoincidenceHistogram, TimeTagStream
from .errors import ConfigError, DataError
from .fit import FitResult
from .model import AnalyzerSetting
from .reconstruct import _PER_BIN_ARRAYS, ReconstructedTpwf

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

HISTOGRAM_FORMAT = "coincidence-histogram/1"
RECON_FORMAT = "tpwf-reconstruction/1"
FIT_FORMAT = "fit-result/1"


def _raw_records(n: int) -> np.ndarray:
    """A raw record buffer for tag file i/o: n records, at most an
    eighth of a block (72 KiB at 2**16 records), so that a reader or
    writer holds 9/64 of a block besides the timestamps it is given or
    yields."""
    return np.empty(max(1, min(n, correlate._BLOCK_RECORDS // 8)), dtype=_RECORD_DTYPE)


def _create_temp(path):
    """Create an empty temp file, open for writing, beside path; return
    its descriptor and name.

    The kernel gives it mode 0o666 less the process umask, as for
    open(path, "w"), and os.replace keeps that mode.  (tempfile.mkstemp
    would give 0600.)  The umask is never read or set, so writers in
    several threads do not race on it.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    return os.open(tmp, flags, 0o666), tmp


class TimeTagWriter:
    """Writes one channel's clicks to a binary time-tag file, block by
    block, so that no more than one block is held.

    The header goes to a temp file in the target directory on creation;
    append() packs records into a raw record buffer (_raw_records) and
    writes them from it, and counts them (n_records).
    Each block must hold integers that continue the channel's
    non-decreasing timestamp order (correlate._tag_fault), or append()
    raises DataError.  close() renames the temp file
    to path, so readers never see a partial file; used as a context
    manager, an exception discards the temp file instead.
    """

    def __init__(self, path, channel: str):
        self.path = path
        self.n_records = 0
        self._code = correlate._channel_code(channel)
        self._last = None
        fd, self._tmp = _create_temp(path)
        self._fh = os.fdopen(fd, "wb")
        try:
            self._fh.write(_HEADER.pack(TIMETAG_MAGIC, TIMETAG_VERSION, 1))
        except BaseException:
            self.discard()
            raise

    def append(self, timestamps_ps: np.ndarray):
        ts, fault = correlate._tag_fault(timestamps_ps, self._last, None)
        if fault is not None:
            raise DataError(f"{self.path}: {fault[1]}")
        if not ts.size:
            return
        records = _raw_records(ts.size)
        records["channel"] = self._code
        for start in range(0, ts.size, records.size):
            part = records[: min(records.size, ts.size - start)]
            part["timestamp"] = ts[start : start + part.size]
            self._fh.write(part)
        self.n_records += ts.size
        self._last = ts[-1]

    def close(self):
        """Finish the file and move it into place; if either step fails,
        as the final flush does on a full disk, discard the temp file."""
        try:
            self._fh.close()
            os.replace(self._tmp, self.path)
        except BaseException:
            self.discard()
            raise

    def discard(self):
        """Drop the temp file, even if closing it fails; path is left as
        it was."""
        try:
            self._fh.close()
        finally:
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


def _check_block(path, offset, channels, timestamps, code, last, end_ps):
    """Check one block of records that starts at byte offset: its channel
    bytes, then each channel's timestamps by correlate._tag_fault, against
    last, which maps a channel code to its last timestamp so far and is
    updated, and end_ps.  A fault raises DataError with the byte offset
    of the first bad record; a block that passes costs one boolean
    reduction per check."""
    size = _RECORD_DTYPE.itemsize
    bad = channels >= len(_CHANNELS) if code is None else channels != code
    if bad.any():
        first = int(bad.argmax())
        byte = int(channels[first])
        if byte < len(_CHANNELS):
            message = (f"expected a single-channel file of channel "
                       f"{_CHANNELS[code]}, found a channel {_CHANNELS[byte]} record")
        else:
            message = f"invalid channel byte {byte}"
        raise DataError(f"{path}: {message}", byte_offset=offset + first * size)
    if code is not None:
        groups = [(code, None)]
    elif (channels == channels[0]).all():
        groups = [(int(channels[0]), None)]
    else:
        groups = [(c, np.flatnonzero(channels == c)) for c in range(len(_CHANNELS))]
    for c, idx in groups:
        ts = timestamps if idx is None else timestamps[idx]
        fault = correlate._tag_fault(ts, last.get(c), end_ps)[1]
        if fault is not None:
            bad_record = fault[0] if idx is None else int(idx[fault[0]])
            raise DataError(f"{path}: channel {_CHANNELS[c]} {fault[1]}",
                            byte_offset=offset + bad_record * size)
        last[c] = ts[-1]


def _read_block(fh, raw, path, start, count, code, last, end_ps):
    """Read the count records from record start on, through the raw
    record buffer, and return them checked (_check_block) as
    (channels, timestamps); channels is None with a channel code."""
    size = _RECORD_DTYPE.itemsize
    offset = _HEADER.size + start * size
    raw_bytes = raw.view(np.uint8)
    channels = np.empty(count, dtype=np.uint8)
    timestamps = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        n_bytes = fh.readinto(raw_bytes[: min(raw.size, count - filled) * size])
        n = n_bytes // size
        if not n:
            raise DataError(
                f"{path}: file shrank while being read",
                byte_offset=offset + filled * size,
            )
        channels[filled : filled + n] = raw["channel"][:n]
        timestamps[filled : filled + n] = raw["timestamp"][:n]
        filled += n
        # A read may end inside a record; read its bytes again.
        if n_bytes % size:
            fh.seek(-(n_bytes % size), os.SEEK_CUR)
    _check_block(path, offset, channels, timestamps, code, last, end_ps)
    return (channels if code is None else None), timestamps


def _record_blocks(path, n_records, code, end_ps):
    """Yield (channels, timestamps_ps) arrays of a tag file whose header
    _check_header passed, block by block, each checked (_check_block)
    before it is yielded.  With a channel code, every record must hold
    that channel and channels is None; without one (None), each byte must
    be 0 or 1.  end_ps is as in _check_block.

    The records are read into one raw record buffer (_raw_records),
    reused for the whole file, and unpacked from it into the block's
    arrays.  No block is bound while the reader is suspended, so it
    holds 9/64 of a block besides the blocks its consumer holds.
    """
    last = {}  # channel code -> its last timestamp so far
    raw = _raw_records(n_records)
    # Unbuffered: every read goes straight into raw.
    with open(path, "rb", buffering=0) as fh:
        fh.seek(_HEADER.size)
        for start in range(0, n_records, correlate._BLOCK_RECORDS):
            count = min(correlate._BLOCK_RECORDS, n_records - start)
            yield _read_block(fh, raw, path, start, count, code, last, end_ps)


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
    for block_channels, block_timestamps in _record_blocks(path, n_records, None, None):
        stop = start + block_timestamps.size
        channels[start:stop] = block_channels
        timestamps[start:stop] = block_timestamps
        start = stop
    return channels, timestamps


class TimeTagFile:
    """A single-channel time-tag file, read block by block.

    Stands in for a TimeTagStream in cross_correlate without holding the
    file in memory: it has the same channel, duration, exposure, len()
    (the record count) and blocks().  The header, the framing, the
    channel name and the acquisition are checked on creation; blocks()
    opens the file, checks each block (_check_block: channel bytes, order
    across blocks, range [0, duration)) before yielding its timestamps,
    and closes the file when it ends or is closed.

    The binary format does not store acquisition metadata; duration (and
    optionally exposure) come from the run manifest.  Without a channel,
    the first record's is taken, so an empty file needs one.
    """

    def __init__(self, path, channel: str | None, duration: float, exposure: float | None = None):
        n_records, first = _check_header(path)
        if channel is None:
            if first is None or first >= len(_CHANNELS):
                raise DataError(f"{path}: no channel given, and no first record names one",
                                byte_offset=_HEADER.size)
            channel = _CHANNELS[first]
        self.path = path
        self.channel = channel
        self.duration = duration
        self.exposure, self._end_ps = correlate.check_acquisition(channel, duration, exposure)
        self._n_records = n_records

    def __len__(self):
        return self._n_records

    def blocks(self):
        """Yield the timestamps in checked blocks of at most _BLOCK_RECORDS."""
        # map binds no block here, so a suspended reader holds none that
        # its consumer has dropped (a correlated B block, once copied).
        yield from map(itemgetter(1), _record_blocks(
            self.path, self._n_records, _CHANNELS.index(self.channel), self._end_ps))


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

# Spaces per nesting level in every JSON file written.
_JSON_INDENT = 2


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _encode_flat(arr: np.ndarray, sep: str):
    """The items of a 1-d bool, int or float array as _encode_scalar
    writes them, joined by sep, in one pass; None for any other array."""
    kind = arr.dtype.kind
    if kind == "b":
        return sep.join(["true" if v else "false" for v in arr.tolist()])
    if kind in "iu":
        return sep.join(map(str, arr.tolist()))
    # Wider floats come out of tolist() as np.longdouble, not float.
    if kind == "f" and arr.itemsize <= 8:
        values = arr.tolist()
        specs = ["%.17g"] * len(values)
        # "%.17g" writes nan and inf, which JSON spells NaN and Infinity.
        for i in np.flatnonzero(~np.isfinite(arr)).tolist():
            specs[i] = "%s"
            values[i] = _format_float(values[i])
        return sep.join(specs) % tuple(values)
    return None


def _encode_scalar(obj) -> str:
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
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _encode(obj, level):
    """Yield the JSON text of obj, nested level deep, in pieces; the
    items of a 1-d bool, int or float array are one piece."""
    pad = " " * (_JSON_INDENT * level)
    inner = pad + " " * _JSON_INDENT
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            raise TypeError(f"cannot serialize a 0-d {obj.dtype} array")
        items = _encode_flat(obj, ",\n" + inner) if obj.ndim == 1 and obj.size else None
        if items is not None:
            yield "[\n" + inner
            yield items
            yield "\n" + pad + "]"
            return
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        sep = "[\n"
        for value in obj:
            yield sep + inner
            yield from _encode(value, level + 1)
            sep = ",\n"
        yield "\n" + pad + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        sep = "{\n"
        for key, value in obj.items():
            yield f"{sep}{inner}{json.dumps(str(key))}: "
            yield from _encode(value, level + 1)
            sep = ",\n"
        yield "\n" + pad + "}"
    else:
        yield _encode_scalar(obj)


def dumps_json(obj) -> str:
    """Serialize with floats at 17 significant digits (lossless)."""
    return "".join(_encode(obj, 0)) + "\n"


def write_json(path, obj):
    """Write dumps_json(obj) to path piece by piece, so that no more than
    one array's text is held.  The text goes to a temp file in the
    target directory, renamed to path once it is complete."""
    fd, tmp = _create_temp(path)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(_encode(obj, 0))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, an over-long integer
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise DataError(f"{path}: JSON nested too deeply") from exc


def _document(obj, kind: str, doc_format: str) -> str:
    """Check that obj is a JSON object tagged with doc_format, and return
    the name that _field gives it, "<kind> document"."""
    if not (isinstance(obj, dict) and obj.get("format") == doc_format):
        raise DataError(f"not a {kind} document: no JSON object of format {doc_format!r}")
    return f"{kind} document"


# The JSON element types that an array field of each dtype may hold, and
# how a message names each scalar kind.
_ELEMENTS = {np.dtype(bool): {bool}, np.dtype(np.int64): {int}, np.dtype(float): {int, float}}
_SCALARS = {int: "an integer", float: "a finite number", str: "a string", dict: "an object"}


def _field(obj, key: str, kind, doc: str):
    """obj[key] if it holds kind, else DataError naming doc and key.

    kind is int, float (finite, returned as a float), str, dict, or the
    dtype of a 1-d array: a list of its _ELEMENTS types, or the ndarray
    that *_to_dict writes, returned as an ndarray.  A bool is no number,
    and a list holds no list.
    """
    value = obj.get(key)
    try:
        if isinstance(kind, np.dtype):
            if (isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == kind.kind
                    or isinstance(value, list) and set(map(type, value)) <= _ELEMENTS[kind]):
                return np.asarray(value, dtype=kind)
        elif isinstance(value, (int, float) if kind is float else kind):
            if not isinstance(value, bool) and (kind is not float or math.isfinite(value)):
                return float(value) if kind is float else value
    except OverflowError:  # an integer beyond int64, or beyond a float
        pass
    want = f"a 1-d list of {kind}" if isinstance(kind, np.dtype) else _SCALARS[kind]
    got = "nothing" if key not in obj else "null" if value is None else type(value).__name__
    raise DataError(f"{doc}: {key} must be {want}, got {got}")


# The *_to_dict documents hold their arrays as ndarrays, which the JSON
# encoder writes each in one pass.
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
        "setting": None if hist.setting is None else {
            "theta_rad": hist.setting.theta, "phi_rad": hist.setting.phi},
    }


def histogram_from_dict(obj) -> CoincidenceHistogram:
    doc = _document(obj, "histogram", HISTOGRAM_FORMAT)
    setting = None if obj.get("setting") is None else _field(obj, "setting", dict, doc)
    try:
        return CoincidenceHistogram(
            bin_width_ps=_field(obj, "bin_width_ps", int, doc),
            tau_min_ps=_field(obj, "tau_min_ps", int, doc),
            counts=_field(obj, "counts", np.dtype(np.int64), doc),
            acquisition_time=_field(obj, "acquisition_time_s", float, doc),
            singles_a=_field(obj, "singles_a", int, doc),
            singles_b=_field(obj, "singles_b", int, doc),
            setting=None if setting is None else AnalyzerSetting(
                theta=_field(setting, "theta_rad", float, f"{doc} setting"),
                phi=_field(setting, "phi_rad", float, f"{doc} setting")),
        )
    except ConfigError as exc:
        raise DataError(f"malformed histogram document: {exc}") from exc


def recon_to_dict(recon: ReconstructedTpwf) -> dict:
    return {
        "format": RECON_FORMAT,
        "units": {"tau": "s", "psi": "relative"},
        "tau_s": recon.tau,
        **{name: getattr(recon, name) for name, _ in _PER_BIN_ARRAYS},
        "background": recon.background,
        "background_mode": recon.background_mode,
        "gamma_mode": recon.gamma_mode,
    }


def recon_from_dict(obj) -> ReconstructedTpwf:
    doc = _document(obj, "reconstruction", RECON_FORMAT)
    try:
        return ReconstructedTpwf(
            tau=_field(obj, "tau_s", np.dtype(float), doc),
            **{name: _field(obj, name, np.dtype(kind), doc) for name, kind in _PER_BIN_ARRAYS},
            background=_field(obj, "background", float, doc),
            background_mode=_field(obj, "background_mode", str, doc),
            gamma_mode=_field(obj, "gamma_mode", str, doc),
        )
    except ConfigError as exc:
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
