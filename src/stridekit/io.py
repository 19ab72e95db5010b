"""CSV ingestion/emission and JSON configuration documents.

Formats, bit-exactly:

- Series CSV: header row; index first (RFC 3339 UTC timestamps for time
  indices, shortest round-trip decimals for numeric ones); one column per
  series. Value cells: floats as repr (NaN as the empty cell), integers
  as decimal text, booleans as ``true``/``false``, categorical labels
  verbatim. Timestamps written by this module always end in ``Z`` with the
  fraction trimmed to 0, 3, 6, or 9 digits.
- The writers stream rows in blocks of WRITE_BLOCK_CELLS cells, joined by
  hand unless a cell needs CSV quoting, in the bytes ``csv.writer`` writes.
- Feature config JSON: {"features": [{"series", "functions", "windows",
  "strides"}], "options": {...}} where a series entry is a name (single), a
  list of names (fan-out, one group per name), or a nested list (joint
  multi-series group); each function is {"name", "params"?, "robust"?}.
- Pipeline config JSON: {"steps": [{"function", "series", "params"}]} over
  the registered processors.

Column typing on load is inferred per column: all-``true``/``false`` cells
make BOOL, all plain integers make I64 (one outside int64 is a ParseError),
anything fully numeric (empty cells allowed, read as NaN) makes F64,
everything else is dictionary-encoded CATEGORICAL. One byte automaton is
that grammar: it matches ASCII only, and a cell in full. Float32 data
therefore reloads as F64: values survive exactly, the narrower tag does not.

``load_csv`` reads UTF-8 with LF, CRLF or lone CR line ends, as
``csv.reader`` does, from the file's bytes column by column with numpy: one
scan finds the field ends (commas and line ends with an even number of
quotes before them), each column is cut out as a fixed-width bytes array in
row blocks (a ``"..."`` cell between its quotes), and a walk over its byte
columns, in row blocks, types it with the automaton and reads each cell's
digits. A plain decimal of at most 15 digits is its digits over a power of
ten, one correctly rounded division (Clinger's fast path), so bitwise
``float()``; integers are their digits. Timestamps are decoded from their
digit pairs with calendar arithmetic. Only other numbers (exponents, more
digits, inf, nan) go through numpy's cast, those cells alone. Cells with an
inner quote are unquoted by ``csv.reader``; they, NULs and long cells keep
a column on the per-cell parsers, which name the row of a bad cell.
"""

from __future__ import annotations

import codecs
import copy
import csv
import datetime as _dt
import json
import math
import re
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    BadParam,
    ConfigError,
    DuplicateHeader,
    InvalidDescriptor,
    IoError,
    KindMismatch,
    LengthMismatch,
    NonMonotonicIndex,
    ParseError,
    StridekitError,
)
from .features import (
    ExtractOptions,
    FeatureCollection,
    FeatureMatrix,
    FuncWrapper,
    expand_multiple,
    make_robust,
)
from .calculators import builtin
from .processing import Pipeline, _normalize_selector, builtin_processor
from .series import (_DEAD, _EMPTY, _FALSE, _FRAC, _INT, _INT_DOT, _IS_FLOAT, _NUMERIC_NEXT,
                     _TRUE, _number_state, _same_index)
from .series import (
    Delta,
    FLOAT_TAGS,
    IndexKind,
    Series,
    ValueTag,
    render_number,
)

# ---------------------------------------------------------------------------
# RFC 3339 timestamps <-> int64 nanoseconds
# ---------------------------------------------------------------------------

_RFC_RE = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})[Tt ](\d{2}):(\d{2}):(\d{2})"
    r"(?:\.(\d{1,9}))?"
    r"(Z|z|[+-]\d{2}:\d{2})?",
    re.ASCII,
)

_EPOCH_ORDINAL = _dt.date(1970, 1, 1).toordinal()
#: numpy reads int64's minimum as NaT, so its text is built from its seconds.
_NAT_TEXT = f"{np.datetime64(-2**63 // 10**9, 's')}.{-2**63 % 10**9:09d}"


def parse_rfc3339_ns(text: str) -> int:
    """One timestamp to integer nanoseconds since the epoch (UTC). A missing
    offset is read as UTC; explicit offsets are applied exactly."""
    m = _RFC_RE.fullmatch(text)
    if not m:
        raise ValueError(f"not an RFC 3339 timestamp: {text!r}")
    y, mo, d, h, mi, s = (int(m.group(i)) for i in range(1, 7))
    try:
        days = _dt.date(y, mo, d).toordinal() - _EPOCH_ORDINAL
    except ValueError as exc:
        raise ValueError(f"bad calendar date in {text!r}: {exc}") from None
    if h > 23 or mi > 59 or s > 60:
        raise ValueError(f"bad clock time in {text!r}")
    total_s = days * 86_400 + h * 3_600 + mi * 60 + s
    offset = m.group(8)
    if offset and offset not in ("Z", "z"):
        sign = 1 if offset[0] == "+" else -1
        total_s -= sign * (int(offset[1:3]) * 3_600 + int(offset[4:6]) * 60)
    frac = m.group(7) or ""
    frac_ns = int(frac.ljust(9, "0")) if frac else 0
    return total_s * 1_000_000_000 + frac_ns


def format_rfc3339(ns: int) -> str:
    """``_format_stamps`` of one stamp; a value outside int64 is OverflowError."""
    return _format_stamps([ns])[0]


def _format_stamps(ns) -> list[str]:
    """RFC 3339 UTC text of int64 nanosecond stamps, ending in ``Z``, each
    fraction trimmed to 0, 3, 6 or 9 digits."""
    stamps = np.asarray(ns, dtype=np.int64).view("M8[ns]")
    frac = stamps.view(np.int64) % 1_000_000_000
    digits = (frac != 0).astype(np.int8) + (frac % 1_000_000 != 0) + (frac % 1_000 != 0)
    text = np.empty(len(stamps), dtype="U29")
    for k, unit in enumerate(("s", "ms", "us", "ns")):
        text[digits == k] = np.datetime_as_string(stamps[digits == k], unit=unit)
    text[np.isnat(stamps)] = _NAT_TEXT
    return np.char.add(text, "Z").tolist()


# ---------------------------------------------------------------------------
# load_csv: column-wise parsing of the file's bytes
# ---------------------------------------------------------------------------

#: Bytes of the file scanned for delimiters at a time.
_SCAN_BYTES = 256 * 1024
#: Bytes of cells copied per row block when a column is cut out.
_GATHER_BYTES = 256 * 1024
#: Columns with a longer cell are parsed cell by cell, so one long cell
#: cannot turn into a fixed-width array of that many bytes per row.
_MAX_CELL_BYTES = 64
#: Integer cells of at most this many bytes, sign included, fit int64.
_SAFE_INT_BYTES = 18
#: Rows of a column decoded at a time.
_STAMP_ROWS = 16 * 1024

_COMMA, _LF, _CR, _QUOTE, _DOT, _MINUS = (ord(c) for c in ',\n\r".-')

#: Two ASCII digits, read as one little-endian uint16, to their value; 255
#: for any other two bytes.
_PAIRS = np.full(1 << 16, 255, dtype=np.uint8)
_PAIRS[np.add.outer(np.arange(48, 58), 256 * np.arange(48, 58))] = np.arange(100).reshape(10, 10)
_MONTH_DAYS = np.zeros(256, dtype=np.int32)
_MONTH_DAYS[1:13] = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
#: Days from March 1 to the first of each month.
_MARCH_DAYS = (153 * ((np.arange(256, dtype=np.int32) + 9) % 12) + 2) // 5
#: The divisor of a cell on the fast path by its code (see ``_numbers``).
_SCALE = np.array([float(10 ** k) for k in range(128)])
_SCALE = np.concatenate([_SCALE, -_SCALE])
_FAST = np.isin(np.arange(_DEAD + 1), [_INT, _INT_DOT, _FRAC])


def _parse_time_index(raw: np.ndarray | None, cells: Callable) -> np.ndarray:
    """Integer nanoseconds. An ``S`` array of NUL-free cells that each match
    ``_RFC_RE`` with a year in 1678-2261 is decoded from its bytes (and
    rewritten in place) in blocks of _STAMP_ROWS rows, so the temporaries
    stay small. Any other column is parsed cell by cell, which names the row
    of a bad cell. The year limits keep every value inside int64
    nanoseconds; calendar and clock are checked as ``parse_rfc3339_ns``
    checks them, leap second 60 included, and give its values.
    """
    if raw is not None and raw.dtype.itemsize >= 19:
        out = np.empty(len(raw), dtype=np.int64)
        for lo in range(0, len(raw), _STAMP_ROWS):
            block = _parse_stamps(raw[lo:lo + _STAMP_ROWS])
            if block is None:
                break
            out[lo:lo + _STAMP_ROWS] = block
        else:
            return out
    return _parse_time_cells(cells(), first_data_line=2)


def _parse_stamps(raw: np.ndarray) -> np.ndarray | None:
    n, width = len(raw), raw.dtype.itemsize
    flat = raw.view(np.uint8)
    b = flat.reshape(n, width)

    def pairs(u16):  # little-endian digit pairs as 0-99, else 255 (see _PAIRS)
        return _PAIRS.take(u16).astype(np.int32)

    def two(j):  # the pair at byte columns j and j + 1
        return pairs(b[:, j:j + 2].view("<u2")[:, 0])

    # Suffix: optional "." and 1-9 digits, then optional Z, z or +hh:mm/-hh:mm.
    length = np.char.str_len(raw)  # the cells hold no NUL
    end = np.arange(0, n * width, width) + length
    last, sign = flat.take(end - 1), flat.take(end - 6)
    offset = ((sign == ord("+")) | (sign == _MINUS)) & (flat.take(end - 3) == ord(":"))
    shift_ns = 0
    if offset.any():
        hh, mm = (pairs(flat.take(end - d) + (flat.take(end - d + 1).astype(np.uint16) << 8))
                  for d in (5, 2))
        offset &= (hh <= 99) & (mm <= 99)
        shift_ns = np.where(sign == _MINUS, -60, 60) * (hh * 60 + mm) * offset * 1_000_000_000
    stop = length - np.where(offset, 6, (last == ord("Z")) | (last == ord("z")))
    ok = (length >= 19) & ((stop == 19) | ((stop >= 21) & (stop <= 29)))
    del length, end  # so that a block's temporaries stay few
    ok &= b.take([4, 7, 13, 16], axis=1).view("<u4")[:, 0] == int.from_bytes(b"--::", "little")
    ok &= (b[:, 10] == ord("T")) | (b[:, 10] == ord("t")) | (b[:, 10] == ord(" "))

    # Fraction: bytes past it and the "." read as "0", then 9 digits by pairs.
    hi, frac = min(width, 29), 0
    if hi > 19:
        ok &= (stop == 19) | (b[:, 19] == _DOT)
        b[:, 19] = ord("0")
        least, most = int(stop.min()), int(stop.max())  # one stop in a fixed format
        b[:, max(most, 20):hi] = ord("0")
        for j in range(max(least, 20), min(most, hi)):
            np.copyto(b[:, j], np.uint8(ord("0")), where=stop <= j)
    del stop
    for j in range(19, hi, 2):
        pair = two(j) if j + 1 < hi else pairs((b[:, j].astype(np.uint16) << 8) + ord("0"))
        ok &= pair <= 99
        frac = frac * (100 if j + 1 < hi else 10) + pair

    century, year, month, day = two(0), two(2), two(5), two(8)
    ok &= year <= 99
    leap = ((year & 3) == 0) & ((year != 0) | ((century & 3) == 0))
    year += century * 100
    ok &= (year >= 1678) & (year <= 2261)
    ok &= (day >= 1) & (day <= _MONTH_DAYS.take(month) + (leap & (month == 2)))
    hour, minute, second = two(11), two(14), two(17)
    ok &= (hour <= 23) & (minute <= 59) & (second <= 60)
    if not ok.all():
        return None
    year -= month <= 2  # days from civil, years counted from March
    day += 365 * year + year // 4 - year // 100 + year // 400 + _MARCH_DAYS.take(month) - 719_469
    second += hour * 3_600 + minute * 60
    del century, year, month, leap, hour, minute
    ns = (day.astype(np.int64) * 86_400 + second) * 1_000_000_000
    return ns + frac * 10 ** (29 - hi) - shift_ns  # the fraction is below 1e9


def _parse_time_cells(cells: list[str], first_data_line: int) -> np.ndarray:
    out = np.empty(len(cells), dtype=np.int64)
    for i, cell in enumerate(cells):
        try:
            out[i] = parse_rfc3339_ns(cell)
        except ValueError as exc:
            raise ParseError(str(exc), row=first_data_line + i) from None
        except OverflowError:
            raise ParseError(
                f"timestamp {cell!r} is outside the int64 nanosecond range",
                row=first_data_line + i,
            ) from None
    return out


def _numbers(raw: np.ndarray | None, cells: Callable) -> tuple:
    """``(state, m, code)`` of a column's cells: the automaton's final state,
    from its ``S`` array or cell by cell through ``_number_state`` (then m
    and code are None). From the ``S`` array, a block of _STAMP_ROWS rows at
    a time, also m, a cell's digits as one int64 (wrapped past 18), and
    code, 128 for a minus sign plus the fraction digits f of a fast cell,
    else plus 127. A fast cell is in _INT, _INT_DOT or _FRAC with at most
    15 digits: m and 10**f are exact float64s, so ``m / 10**f`` is
    correctly rounded, bitwise ``float()``. Digits are read from the first
    _SAFE_INT_BYTES bytes, which hold every fast cell and every safe int."""
    if raw is None:
        return np.array([_number_state(cell) for cell in cells()], dtype=np.uint8), None, None
    n, width = len(raw), raw.dtype.itemsize
    b = raw.view(np.uint8).reshape(n, width)
    state, m, code = (np.empty(n, dtype=t) for t in (np.uint8, np.int64, np.uint8))
    for lo in range(0, n, _STAMP_ROWS):
        columns = b[lo:lo + _STAMP_ROWS].T.copy()  # a byte column per row, contiguous
        s, mm = np.zeros(columns.shape[1], dtype=np.uint16), m[lo:lo + _STAMP_ROWS]
        for c in columns:
            s = _NUMERIC_NEXT.take(s + c)
        s >>= 8
        digits, fraction = np.zeros((2, len(s)), dtype=np.uint8)
        mm[:] = 0
        for c in columns[:_SAFE_INT_BYTES]:
            d = c - np.uint8(48)  # wraps: a digit is below 10
            digit = d < 10
            digits += digit
            fraction += digit
            fraction *= c != _DOT  # the digits since the last "."
            mm *= digit * np.uint8(9) + np.uint8(1)
            mm += d * digit
        state[lo:lo + _STAMP_ROWS] = s
        fast = _FAST.take(s) & (digits <= 15)
        code[lo:lo + _STAMP_ROWS] = (np.where(fast, fraction * (s != _INT), np.uint8(127))
                                     + np.uint8(128) * (columns[0] == _MINUS))
    return state, m, code


def _floats(raw: np.ndarray | None, cells: Callable, number: np.ndarray, m, code) -> np.ndarray:
    """Float64 of the cells where ``number`` holds, NaN elsewhere: from the
    ``S`` array, into ``m``'s memory a block of _STAMP_ROWS rows at a time, a
    fast cell's ``m / ±10**f`` and any other number by numpy's cast of those
    cells alone; else float() of each cell."""
    if raw is None:
        return np.array([float(c) if ok else math.nan
                         for c, ok in zip(cells(), number.tolist())], dtype=np.float64)
    slow = (code & 127) == 127
    slow &= number
    values = m.view(np.float64)
    # numpy warns on some cells past float64 (20000.1E320), not on others
    # (1e400); float() reads both as inf, and so does this cast
    with np.errstate(over="ignore"):
        for lo in range(0, len(m), _STAMP_ROWS):
            block, cast = slice(lo, lo + _STAMP_ROWS), slow[lo:lo + _STAMP_ROWS]
            np.divide(m[block], _SCALE.take(code[block]), out=values[block])
            if cast.any():
                values[block][cast] = raw[block][cast].astype(np.float64)
    values[~number] = np.nan
    return values


def _parse_numeric_index(raw: np.ndarray | None, cells: Callable) -> np.ndarray:
    """Float64 positions; the first cell that is no number, or NaN, is a
    ParseError naming its row."""
    state, m, code = _numbers(raw, cells)
    number = _IS_FLOAT[state]
    values = _floats(raw, cells, number, m, code)
    nan = np.isnan(values)
    if nan.any():
        i = int(nan.argmax())
        if number[i]:
            raise ParseError("index value is NaN", row=2 + i)
        raise ParseError(f"bad numeric index value {cells()[i]!r}", row=2 + i)
    return values


def _value_column(name: str, raw: np.ndarray | None, cells: Callable) -> np.ndarray:
    """BOOL when every cell is ``true`` or ``false``, I64 when every cell is
    an integer, F64 when every cell is a number or empty (NaN), else labels;
    the first integer outside int64 and the first empty label are
    ParseErrors naming their rows."""
    state, m, code = _numbers(raw, cells)
    if len(state) and (state == _INT).all():
        if raw is not None and raw.dtype.itemsize <= _SAFE_INT_BYTES:
            return np.negative(m, out=m, where=code >= 128)
        text = cells()
        values = [int(c) for c in text]
        for i, v in enumerate(values):
            if not -2**63 <= v < 2**63:
                raise ParseError(f"integer {text[i]!r} in column {name!r} is outside "
                                 f"the I64 range", row=2 + i)
        return np.array(values, dtype=np.int64)
    if len(state) and np.isin(state, (_TRUE, _FALSE)).all():
        return state == _TRUE
    empty = state == _EMPTY
    if (_IS_FLOAT[state] | empty).all():
        return _floats(raw, cells, np.logical_not(empty, out=empty), m, code)
    if empty.any():
        raise ParseError(f"empty cell in non-numeric column {name!r}",
                         row=2 + int(empty.argmax()))
    return np.asarray(cells())


def _cut_cells(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray | None:
    """The cells ``buf[starts[i]:stops[i]]`` as one fixed-width ``S`` array,
    or None for no cell or one over _MAX_CELL_BYTES. Rows are copied in blocks
    of _GATHER_BYTES from a strided view of ``buf``, then zeroed past a cell."""
    widths = stops - starts
    width = max(int(widths.max(initial=0)), 1)
    if width > _MAX_CELL_BYTES or not len(starts):
        return None
    out = np.empty(len(starts), dtype=f"S{width}")
    b = out.view(np.uint8).reshape(len(starts), width)
    last = len(buf) - width  # the last start with `width` bytes after it
    windows = as_strided(buf, shape=(last + 1, width), strides=(1, 1), writeable=False)
    offsets = np.arange(width, dtype=np.int32)
    step = max(1, _GATHER_BYTES // width)
    for lo in range(0, len(starts), step):
        block = b[lo:lo + step]
        block[...] = windows[np.minimum(starts[lo:lo + step], last)]
        block *= offsets < widths[lo:lo + step, None]
    for i in np.flatnonzero(starts > last).tolist():  # cells near the file's end
        b[i, :widths[i]] = buf[starts[i]:stops[i]]
    return out


def _find(buf: np.ndarray, byte: int, dtype) -> np.ndarray:  # compared _SCAN_BYTES at a time
    return np.concatenate([np.flatnonzero(buf[lo:lo + _SCAN_BYTES] == byte) + lo
                           for lo in range(0, len(buf), _SCAN_BYTES)], dtype=dtype)


def _field_ends(raw: bytes, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Field ends as csv.reader reads the file, and quotes: each comma, LF and
    lone CR after an even number of field quotes, then the file's end if no
    line end is its last byte. A quote that neither starts a field nor
    doubles a closing one is literal; only then are the quotes walked."""
    n, parts = len(raw), []
    dtype = np.int32 if n < 2**31 else np.int64
    quotes = _find(buf, _QUOTE, dtype) if b'"' in raw else np.zeros(0, dtype=dtype)
    opening, fq = quotes[::2], quotes
    ok = (opening == 0) | np.isin(buf[opening - 1], (_COMMA, _LF, _CR))
    ok[1:] |= opening[1:] - 1 == quotes[1::2][:len(opening) - 1]
    if not ok.all():
        kept, inside, closed = [], False, -2
        for q in quotes.tolist():
            if inside:
                closed = q
            elif not (q == closed + 1 or q == 0 or raw[q - 1] in b",\r\n"):
                continue
            kept.append(q)
            inside = not inside
        fq = np.array(kept, dtype=dtype)
    lone_cr = b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n")
    # the field quotes before each block: a block searches only its own
    before = [*np.searchsorted(fq, np.arange(0, n, _SCAN_BYTES, dtype=dtype)).tolist(), len(fq)]
    for i, lo in enumerate(range(0, n, _SCAN_BYTES)):
        chunk = buf[lo:lo + _SCAN_BYTES]
        hit = (chunk == _COMMA) | (chunk == _LF)
        if lone_cr:
            hit |= chunk == _CR
        hits = np.flatnonzero(hit).astype(dtype) + lo  # fq's dtype: searchsorted copies neither
        if lone_cr:  # the CR of a CRLF stays in the field before it
            hits = hits[(buf[hits] != _CR) | (buf[np.minimum(hits + 1, n - 1)] != _LF)]
        if len(fq):
            a, b = before[i], before[i + 1]
            hits = hits[(np.searchsorted(fq[a:b], hits) + a) % 2 == 0]
        parts.append(hits)
    if not (len(parts[-1]) and parts[-1][-1] == n - 1 and buf[-1] != _COMMA):
        parts.append(np.array([n], dtype=dtype))
    return np.concatenate(parts), quotes


def _byte_table(path, raw: bytes, index_column: str):
    """``(header, column)`` of the file as csv.reader reads it: ``column(j)``
    is ``(S array or None, cells)``, ``cells()`` the column as str. A column
    holding a NUL or a cell with an inner quote has no ``S`` array."""
    if not raw:
        raise ParseError(f"{path}: file is empty, expected a header row")
    n, buf = len(raw), np.frombuffer(raw, dtype=np.uint8)
    ends, quotes = _field_ends(raw, buf)
    term = np.append(buf[ends[:-1]] != _COMMA, True)  # a line end or the file's end ends a row

    def unquote(text: str) -> str:  # csv.Error past csv.field_size_limit() characters
        return (next(csv.reader([text])) or [""])[0]
    def trim(stops):  # the CR of a CRLF is in no field
        at = np.minimum(stops, n - 1)
        return stops - ((stops > 0) & (stops < n) & (buf[at] == _LF) & (buf[at - 1] == _CR))
    def spans(f):  # start and stop bytes of the fields f
        return np.where(f > 0, ends[f - 1] + 1, 0), trim(ends[f])
    def fail(message, f):  # a ParseError at the row of field f
        raise ParseError(f"{path}: {message}", row=int(np.count_nonzero(term[:f])) + 1) from None

    pos = 0 if not raw.isascii() else n
    while pos < n:  # UTF-8, a block at a time; a sequence cut by its end goes with the next
        stop = pos + max(_SCAN_BYTES, 4)  # 4 bytes hold any one sequence
        try:
            pos += codecs.utf_8_decode(raw[pos:stop], "strict", stop >= n)[1]
        except UnicodeDecodeError as exc:
            pos += exc.start
            fail(f"not valid UTF-8 (byte 0x{raw[pos]:02x})", np.searchsorted(ends, pos))
    nul = np.searchsorted(ends, _find(buf, 0, ends.dtype)) if b"\0" in raw else ends[:0]
    # csv.reader reads alone each field of more bytes than its limit (of characters)
    # and the first NUL, which it rejects before Python 3.11
    check = np.unique(np.concatenate((nul[:1], np.flatnonzero(
        np.diff(ends, prepend=ends.dtype.type(-1)) > csv.field_size_limit() + 1))))
    for f, a, b in zip(check.tolist(), *(s.tolist() for s in spans(check))):
        try:
            unquote(raw[a:b].decode())
        except csv.Error as exc:
            fail(exc, f)
    last = np.flatnonzero(term)  # each row's last field
    fields = np.diff(last, prepend=-1)
    one = np.flatnonzero(fields == 1)
    fields[one[np.equal(*spans(last[one]))]] = 0  # a blank line has no field
    k = int(fields[0])
    header = [unquote(raw[a:b].decode())
              for a, b in zip(*(s.tolist() for s in spans(np.arange(k))))]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DuplicateHeader(f"{path}: repeated column names {dupes}")
    if index_column not in header:
        raise ParseError(f"{path}: no column named {index_column!r} in header")
    bad = np.flatnonzero(fields != k)
    if len(bad):
        raise ParseError(f"expected {k} fields, got {fields[bad[0]]}", row=int(bad[0]) + 1)
    table = ends.reshape(-1, k)
    quoted = np.searchsorted(ends, quotes)  # the fields holding a quote, once each
    quoted = quoted[np.diff(quoted, prepend=-1) > 0]
    nul_columns = set((nul[nul >= k] % k).tolist())

    def column(j):
        starts = table[1:, j - 1] + 1 if j else table[:-1, -1] + 1
        stops = table[1:, j] if j < k - 1 or b"\r" not in raw else trim(table[1:, j])
        rows, odd = quoted[(quoted >= k) & (quoted % k == j)] // k - 1, []
        if len(rows):
            lo, hi = np.searchsorted(quotes, starts[rows]), np.searchsorted(quotes, stops[rows])
            simple = ((hi - lo == 2) & (quotes[lo] == starts[rows])
                      & (quotes[hi - 1] == stops[rows] - 1))
            starts, stops = starts.copy(), stops.copy()
            starts[rows[simple]] += 1
            stops[rows[simple]] -= 1
            odd = rows[~simple].tolist()
        cut = None if odd or j in nul_columns else _cut_cells(buf, starts, stops)

        def cells():
            out = [raw[a:b].decode() for a, b in zip(starts.tolist(), stops.tolist())]
            for i in odd:
                out[i] = unquote(out[i])
            return out
        return cut, cells
    return header, column


def load_csv(path, index_column: str = "index", kind_hint: IndexKind | None = None,
             sort: bool = False) -> list[Series]:
    """Read one CSV into a list of Series sharing a single index array.

    Rows are numbered from 1 counting the header, so the first data row is
    row 2. A decreasing index is NonMonotonicIndex naming the offending row
    unless ``sort`` is set, which stable-sorts rows by index instead.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    header, column = _byte_table(path, raw, index_column)
    idx_pos = header.index(index_column)
    index_raw, index_cells = column(idx_pos)

    kind = kind_hint
    if kind is None:
        probe = index_raw[0].decode() if index_raw is not None else next(iter(index_cells()), "")
        kind = IndexKind.TIME_NS if _RFC_RE.fullmatch(probe) else IndexKind.NUMERIC
    parse = _parse_time_index if kind is IndexKind.TIME_NS else _parse_numeric_index
    index = parse(index_raw, index_cells)
    del index_raw, index_cells

    columns = {}
    for pos, name in enumerate(header):
        if pos != idx_pos:
            columns[name] = _value_column(name, *column(pos))
    del raw, column  # the file's bytes are not needed past this point

    if len(index) > 1:
        decreasing = np.nonzero(index[1:] < index[:-1])[0]
        if len(decreasing):
            if not sort:
                raise NonMonotonicIndex(
                    f"{path}: index decreases at row {int(decreasing[0]) + 3} "
                    f"(pass sort=True / --sort to sort)"
                )
            order = np.argsort(index, kind="stable")
            index = index[order]
            columns = {n: np.asarray(v)[order] for n, v in columns.items()}
    return [Series(name, index, values, kind=kind) for name, values in columns.items()]


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

#: Cells, index included, per written block of rows: bounds the writers' memory.
WRITE_BLOCK_CELLS = 8192


def _format_index_cells(kind: IndexKind, index: np.ndarray) -> list[str]:
    if kind is IndexKind.TIME_NS:
        return _format_stamps(index)
    return [render_number(float(v)) for v in index]


def _format_value_cells(tag: ValueTag, data: np.ndarray, categories=None) -> list[str]:
    """CSV cells of one value column: floats as repr, integers in decimal,
    booleans as true/false, labels verbatim, NaN and None as empty cells.
    ``categories`` decodes dictionary codes; columns that already hold labels
    pass none."""
    values = data.tolist()
    if tag in FLOAT_TAGS:
        cells = list(map(repr, values))
        for i in np.flatnonzero(np.isnan(data)).tolist():
            cells[i] = ""
        return cells
    if tag is ValueTag.BOOL:
        return ["" if v is None else "true" if v else "false" for v in values]
    if categories is not None:
        values = [categories[code] for code in values]
    return ["" if v is None else str(v) for v in values]


def _write_csv(path, header: list[str], kind: IndexKind, index: np.ndarray, columns) -> None:
    """The header through csv.writer, then the rows in blocks of
    WRITE_BLOCK_CELLS cells, joined by hand unless a cell of the block holds
    a comma, quote, CR, LF or NUL. ``columns``: (tag, data, categories)."""
    step = max(1, WRITE_BLOCK_CELLS // (len(columns) + 1))
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for lo in range(0, len(index), step):
                rows = list(zip(_format_index_cells(kind, index[lo:lo + step]),
                                *(_format_value_cells(tag, data[lo:lo + step], cats)
                                  for tag, data, cats in columns)))
                text = "\r\n".join(map(",".join, rows))
                # no cell needs quoting when the joins put in every comma, CR and LF
                seps = text.count(",") + text.count("\r") + text.count("\n")
                if seps == len(rows) * (len(columns) + 2) - 2 and not ('"' in text or "\0" in text):
                    fh.writelines((text, "\r\n"))
                else:
                    writer.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_matrix(matrix: FeatureMatrix, path) -> None:
    """Feature matrix to CSV: index first, NaN/None as empty cells; output is
    byte-stable for identical input."""
    names = matrix.column_names
    columns = [(matrix[n].tag, matrix[n].data, None) for n in names]
    kind = matrix.kind if matrix.kind is not None else IndexKind.NUMERIC
    _write_csv(path, ["index", *names], kind, matrix.index, columns)


def write_series_csv(series_list: list[Series], path, index_column: str = "index") -> None:
    """Series sharing one index to CSV, reloadable by load_csv. All series
    must be index-aligned bitwise."""
    if not series_list:
        raise LengthMismatch("write_series_csv needs at least one series")
    ref = series_list[0]
    for s in series_list:
        cats, codes = s.values.categories, s.values.data
        if s.kind is not ref.kind:
            raise KindMismatch(f"{s.name!r} and {ref.name!r} have different index kinds")
        if not _same_index(s.index, ref.index):
            raise LengthMismatch(f"{s.name!r} is not index-aligned with {ref.name!r}")
        # so that no cell can fail once the file is open
        if cats is not None and len(codes) and not 0 <= codes.min() <= codes.max() < len(cats):
            raise LengthMismatch(f"{s.name!r} has codes outside its {len(cats)} categories")
    columns = [(s.values.tag, s.values.data, s.values.categories) for s in series_list]
    header = [index_column, *(s.name for s in series_list)]
    _write_csv(path, header, ref.kind, ref.index, columns)


# ---------------------------------------------------------------------------
# JSON configuration documents
# ---------------------------------------------------------------------------

def _expect_mapping(obj, what: str, allowed: set[str] | None = None) -> dict:
    """``obj`` as a JSON object, with no key outside ``allowed`` when given."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(obj).__name__}")
    extra = set() if allowed is None else set(obj) - allowed
    if extra:
        raise ConfigError(f"{what}: unknown keys {sorted(extra)}")
    return obj


def _parse_series_field(raw, what: str) -> list:
    try:
        return list(_normalize_selector(raw))
    except BadParam as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _parse_function_entry(raw, what: str) -> FuncWrapper:
    entry = _expect_mapping(raw, what, {"name", "params", "robust"})
    if not isinstance(entry.get("name"), str):
        raise ConfigError(f"{what}: function name missing")
    params = _expect_mapping(entry.get("params", {}), f"{what}: params")
    robust = entry.get("robust")
    if robust is not None:
        _expect_mapping(robust, f"{what}: robust", {"min_samples", "fill_value"})
    try:
        wrapper = builtin(entry["name"], params)
        return wrapper if robust is None else make_robust(wrapper, **robust)
    except (BadParam, InvalidDescriptor) as exc:
        raise ConfigError(f"{what}: {exc}") from None


def parse_feature_config(doc) -> tuple[FeatureCollection, ExtractOptions]:
    """The collection and options a document spells. Only the JSON's shape is
    checked here: each value goes to the constructor that owns its rule."""
    doc = _expect_mapping(doc, "feature config", {"features", "options"})
    raw_features = doc.get("features")
    if not isinstance(raw_features, list) or not raw_features:
        raise ConfigError("feature config: 'features' must be a non-empty list")
    collection = FeatureCollection()
    for fi, raw in enumerate(raw_features):
        what = f"features[{fi}]"
        entry = _expect_mapping(raw, what, {"series", "functions", "windows", "strides"})
        series_entries = _parse_series_field(entry.get("series"), what)
        for axis in ("functions", "windows", "strides"):
            if not isinstance(entry.get(axis), list) or not entry[axis]:
                raise ConfigError(f"{what}: '{axis}' must be a non-empty list")
        functions = [_parse_function_entry(f, f"{what}.functions[{i}]")
                     for i, f in enumerate(entry["functions"])]
        try:
            descriptors = expand_multiple(functions, series_entries, entry["windows"],
                                          entry["strides"])
        except InvalidDescriptor as exc:
            raise ConfigError(f"{what}: {exc}") from None
        collection.add(descriptors)

    raw_options = doc.get("options")
    raw_options = _expect_mapping({} if raw_options is None else raw_options, "options",
                                  {"approve_sparsity", "n_workers", "output_position"})
    try:
        return collection, ExtractOptions(**raw_options)
    except BadParam as exc:
        raise ConfigError(f"options: {exc}") from None


def serialize_feature_config(collection: FeatureCollection,
                             options: ExtractOptions | None = None) -> dict:
    features = []
    for (series_names, w, s), wrappers in collection.groups():
        for wrapper in wrappers:
            if wrapper.entry is None:
                raise ConfigError(f"function {wrapper.base_name!r} is not a builtin and "
                                  f"cannot be serialized")
        series = series_names[0] if len(series_names) == 1 else [list(series_names)]
        features.append({
            "series": series,
            "functions": [copy.deepcopy(wrapper.entry) for wrapper in wrappers],
            "windows": [w.render()],
            "strides": [s.render()],
        })
    doc: dict = {"features": features}
    if options is not None:
        doc["options"] = {
            "approve_sparsity": options.approve_sparsity,
            "n_workers": options.n_workers,
            "output_position": options.output_position.value,
        }
    return doc


def parse_pipeline_config(doc) -> Pipeline:
    doc = _expect_mapping(doc, "pipeline config", {"steps"})
    steps = doc.get("steps")
    if not isinstance(steps, list):
        raise ConfigError("pipeline config: 'steps' must be a list")
    pipeline = Pipeline()
    for si, raw in enumerate(steps):
        what = f"steps[{si}]"
        entry = _expect_mapping(raw, what, {"function", "series", "params"})
        if not isinstance(entry.get("function"), str):
            raise ConfigError(f"{what}: processor name missing")
        selector = _parse_series_field(entry.get("series"), what)
        params = _expect_mapping(entry.get("params", {}), f"{what}: params")
        pipeline.add_step(builtin_processor(entry["function"], selector, params))
    return pipeline


def serialize_pipeline_config(pipeline: Pipeline) -> dict:
    """The document of a pipeline whose steps builtin_processor rebuilds from
    their label, selector and params; any other step is a ConfigError."""
    steps = []
    for step in pipeline.steps:
        params = {k: v.render() if isinstance(v, Delta) else v
                  for k, v in step.bound_kwargs.items() if v is not None}
        try:
            rebuilt = builtin_processor(step.label, step.series_selector, params).function
        except StridekitError as exc:
            raise ConfigError(f"step {step.label!r} cannot be serialized: {exc}") from None
        if rebuilt is not step.function:
            raise ConfigError(f"step {step.label!r} is not a registered processor and cannot "
                              f"be serialized")
        series = [
            entry if isinstance(entry, str) else list(entry)
            for entry in step.series_selector
        ]
        steps.append({"function": step.label, "series": series, "params": params})
    return {"steps": steps}


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also an int over the digit limit, or bytes not UTF-8
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def write_json(obj, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=False)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
