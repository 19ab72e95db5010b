"""CSV ingestion/emission and JSON configuration documents.

Formats, bit-exactly:

- Series CSV: header row; index first (RFC 3339 UTC timestamps for time
  indices, shortest round-trip decimals for numeric ones); one column per
  series. Value cells: floats as repr (NaN as the empty cell), integers
  as decimal text, booleans as ``true``/``false``, categorical labels
  verbatim. Timestamps written by this module always end in ``Z`` with the
  fraction trimmed to 0, 3, 6, or 9 digits.
- The writers stream rows in blocks of WRITE_BLOCK_CELLS cells, in the
  bytes ``csv.writer`` writes (with NUL only from Python 3.11).
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

The writers format cells with numpy, a block of rows at a time: each cell
goes into a slot of whole 64-bit words in one ``uint8`` table, NUL bytes as
padding, and one pass drops the NULs. A float (F32 widened exactly) is its
shortest round-trip decimal, found by Schubfach in ``uint64`` arithmetic
with 32-bit limbs and laid out as ``repr`` does (a numeric index by
``render_number``'s rule); integers are their digits, and a stamp's date
comes from calendar arithmetic. A label, quoted as csv.writer quotes it (so
is a header name), is inserted in front of its separator after that pass.
Every cell is checked before the file is opened.
"""

from __future__ import annotations

import codecs
import copy
import csv
import datetime as _dt
import functools
import json
import math
import re
import sys
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
    """``_stamp_words`` as str."""
    return _stamp_words(ns).view("S32")[:, 0].astype(str).tolist()


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
    return np.array(cells(), dtype=object)  # a U array would drop trailing NULs


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

# The float formatter runs on uint64 only: an explicit np.uint64 operand keeps
# numpy 1.24's value-based casting (uint64 with int64 is float64) and NEP 50
# (a negative Python int raises) out of it; products wrap around modulo 2**64.
_U = np.uint64
_M32, _M63, _T52 = _U(2**32 - 1), _U(2**63 - 1), _U(2**52 - 1)
_POW10 = np.array([10 ** j for j in range(20)], dtype=np.uint64)
_ASCII_ZEROS = _U(0x3030303030303030)
#: A slot's last two bytes: the separator after its cell.
_COMMA_SEP, _EOL_SEP = _U(ord(",") << 48), _U(0x0A0D << 48)


def _flog10pow2(e):
    """floor(e log10 2) of an int or int64 array, exact for |e| < 5456721."""
    return (e * 661971961083) >> 41


def _flog2pow10(e):
    """floor(e log2 10), exact for |e| < 1233 (ints, int64 arrays)."""
    return (e * 913124641741) >> 38


@functools.cache
def _schubfach_table() -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's constants, built on the first write, per entry ``bq +
    2048 * irregular``, and k apart. ``bq`` is the biased exponent; a power
    of two above the smallest normal is irregular, its neighbour below half
    as far as the one above. Rows:
    g1 >> 32, g1 & M32, g0 >> 32, g0 & M32, where g1 2**63 + g0 =
    floor(10**-k 2**(125 - flog2pow10(-k))) + 1 (computed with Python ints);
    h + 2, the shift that aligns c with g; the offsets of the interval's
    lower and upper ends from 4c << h; the hidden bit of a normal."""
    bq = np.tile(np.arange(2048, dtype=np.int64), 2)
    q = np.maximum(bq, 1) - 1075
    irregular = (np.arange(4096) >= 2048) & (bq > 1)
    k = np.where(irregular, (q * 661971961083 - 274743187321) >> 41,  # log10(3/4 2**q)
                 _flog10pow2(q))
    g = []
    for e in range(-int(k.max()), 1 - int(k.min())):
        shift = 125 - _flog2pow10(e)
        if e < 0:
            g.append((1 << shift) // 10 ** -e + 1)
        else:
            g.append((10 ** e << shift if shift >= 0 else 10 ** e >> -shift) + 1)
    limbs = np.array([[v >> 95, v >> 63 & 2**32 - 1, v >> 32 & 2**31 - 1, v & 2**32 - 1]
                      for v in g], dtype=np.uint64).T[:, k.max() - k]
    h = q + _flog2pow10(-k) + 2
    rows = [h + 2, (2 - irregular) << h, 2 << h, np.where(bq > 0, 1 << 52, 0)]
    return np.vstack([limbs, np.array(rows).astype(np.uint64)]), k


def _mul_hi(a1, a0, b1, b0, low=False):
    """High word (and with ``low`` the low word) of (a1 2**32 + a0)(b1 2**32
    + b0), for a0, b0 < 2**32, a1 < 2**31 and b1 < 2**28: the middle sum then
    fits 64 bits with no carry to keep."""
    ll = a0 * b0
    mid = (ll >> _U(32)) + a0 * b1 + a1 * b0
    hi = a1 * b1 + (mid >> _U(32))
    return (hi, (mid << _U(32)) | (ll & _M32)) if low else hi


def _rop(g, cp):
    """floor(g cp / 2**127), its last bit set when that drops a nonzero
    fraction (Giulietti's truncated rop): round to odd keeps every comparison
    with an even integer exact. cp < 2**60."""
    c1, c0 = cp >> _U(32), cp & _M32
    y1, y0 = _mul_hi(g[0], g[1], c1, c0, low=True)
    z = (y0 >> _U(1)) + _mul_hi(g[2], g[3], c1, c0)
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(d, k)``: of the decimals d 10**k that read back as the double of
    each raw ``bits`` (finite, positive), the shortest, the nearest among as
    short, the even on a tie; d < 10**17. This is Schubfach (R. Giulietti,
    "The Schubfach way to render doubles", 2020) without Java's two-digit
    minimum, as Python's repr rounds."""
    bq, t = bits >> _U(52), bits & _T52
    i = bq.astype(np.intp) + 2048 * ((t == 0) & (bq > _U(1)))
    table, ks = _schubfach_table()
    g = np.take(table, i, axis=1)
    c = t | g[7]
    cp = c << g[4]  # 4c, aligned to g
    odd = c & _U(1)  # an odd c excludes the interval's ends
    vb = _rop(g, cp)  # 4 v 10**-k, and the ends:
    vbl = _rop(g, cp - g[5]) + odd
    vbr = _rop(g, cp + g[6]) - odd
    s = vb >> _U(2)
    s4 = vb & ~_U(3)
    sp4 = (s // _U(10) * _U(10)) << _U(2)  # one digit shorter: sp or sp + 10 if only one is inside
    up, wp = vbl <= sp4, sp4 + _U(40) <= vbr
    u, w = vbl <= s4, s4 + _U(4) <= vbr
    nearer_s = (vb < s4 + _U(2)) | ((vb == s4 + _U(2)) & ((s & _U(1)) == _U(0)))
    d = s + ~np.where(u != w, u, nearer_s)
    return np.where(up != wp, (sp4 >> _U(2)) + _U(10) * ~up, d), np.take(ks, i)


def _ascii8(x):
    """Each x < 10**8 as eight ASCII digits, zero-padded, first digit in the
    lowest byte of the word: two 4-digit lanes, then four 2-digit lanes, each
    divided by a multiply and a shift (exact below 10**4 and 100)."""
    hi = x // _U(10000)
    v = hi | ((x - hi * _U(10000)) << _U(32))
    q = ((v * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)
    v = q | ((v - q * _U(100)) << _U(16))
    q = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return q | ((v - q * _U(10)) << _U(8)) | _ASCII_ZEROS


@functools.cache
def _float_layouts() -> tuple[np.ndarray, np.ndarray]:
    """Built on the first write: per layout key, the words that lay a
    float's digits out in its slot: rows MU0-2 (digits kept in place), MS1-3
    (digits kept one byte on, after the point) and C0-3 (fixed characters),
    and the key of a one-digit number by its exponent + 340. Slot bytes: 1
    sign, 2-6 ``0.000`` before a number below 1, from 7 the digits (17 in
    place, 18 with the point), 25-26 ``e`` and its sign, 27-29 the
    exponent's digits, 30-31 the separator. Keys: 0 NaN (nothing), 1 inf, 2
    ``0.0``, 3 ``0``, then 17 per decimal exponent E from -4 to 15
    (positional), 17 per exponent sign and 2 or 3 exponent digits (exponent
    form), by digit count; +412 under ``render_number``'s rule (an integral
    value without ``.0``); +824 negative."""
    key = np.arange(1648)
    base, index_rule, neg = key % 412, key // 412 % 2 == 1, key >= 824
    pos, expo = (base >= 4) & (base < 344), base >= 344
    e = np.where(pos, (base - 4) // 17 - 4, -1)
    n = (base - 4) % 17 + 1
    integral = pos & (n <= e + 1)
    shown = np.where(integral, e + 2 - index_rule, n)  # digits shown, zeros past n included
    point = np.where(expo & (n > 1), 8, np.where(pos & (e >= 0) & ~(integral & index_rule),
                                                 8 + e, -1))
    keep_hi = np.where(pos & (e >= 0), 8 + e, np.where(pos, 7 + n, np.where(expo, 8, 0)))
    shift_lo = np.where(expo, 9, 9 + e)
    shift_hi = np.where(pos & (e >= 0), 8 + shown, np.where(expo, 8 + n, 0))
    b = np.arange(32)[None, :]
    col = lambda a: a[:, None]
    fixed = np.zeros((1648, 32), dtype=np.uint8)
    fixed[:, 1] = np.where(neg, ord("-"), 0)
    small = col(pos & (e < 0))
    fixed[small & (b == 2)] = ord("0")
    fixed[small & (b == 3)] = ord(".")
    fixed[small & (b >= 4) & (b < col(3 - e))] = ord("0")
    fixed[b == col(point)] = ord(".")
    fixed[:, 25] = np.where(expo, ord("e"), 0)
    fixed[:, 26] = np.where(expo, np.where((base - 344) // 17 % 2 == 1, ord("-"), ord("+")), 0)
    for k, text in ((1, b"inf"), (2, b"0.0"), (3, b"0")):
        fixed[base == k, 7:7 + len(text)] = np.frombuffer(text, dtype=np.uint8)
    keep = np.where((b >= 7) & (b < col(keep_hi)), 255, 0).astype(np.uint8)
    shifted = np.where((b >= col(shift_lo)) & (b < col(shift_hi)), 255, 0).astype(np.uint8)
    words = [m.view("<u8").T for m in (keep, shifted, fixed)]
    e = np.arange(-340, 340)
    first = np.where((e >= -4) & (e < 16), 4 + 17 * (e + 4),
                     344 + 17 * (e < 0) + 34 * (abs(e) >= 100))
    return np.vstack([words[0][:3], words[1][1:], words[2]]), first


def _float_words(x: np.ndarray, index_rule) -> np.ndarray:
    """The text of each float64 of ``x`` as repr writes it (as
    ``render_number`` does where ``index_rule``, which broadcasts against x;
    NaN as nothing) in a slot of four little-endian words, NUL bytes padding:
    shape ``x.shape + (4,)``. See ``_float_layouts`` for the slot."""
    neg, plain = np.signbit(x), np.isfinite(x) & (x != 0)
    rule = np.broadcast_to(index_rule, x.shape)
    if plain.all():
        return _number_words(x, neg, rule)
    nan = np.isnan(x)  # the others are inf and zeros, "0" under the index rule unless -0.0
    key = np.where(nan, 0, np.where(np.isinf(x), 1, 2 + (rule & ~neg)))
    out = np.take(_float_layouts()[0][6:].T, key + 412 * rule + 824 * (neg & ~nan), axis=0)
    out[plain] = _number_words(x[plain], neg[plain], rule[plain])
    return out


def _number_words(x: np.ndarray, neg: np.ndarray, rule: np.ndarray) -> np.ndarray:
    """``_float_words`` of finite nonzero ``x``."""
    d, k = _shortest(x.view(np.uint64) & _M63)
    size = np.searchsorted(_POW10, d, side="right")
    d *= np.take(_POW10, 17 - size)  # 17 digits, the first nonzero
    lead = d // _POW10[16]
    d -= lead * _POW10[16]
    hi = d // _POW10[8]
    hi_w, lo_w = _ascii8(hi), _ascii8(d - hi * _POW10[8])
    # the last nonzero digit is in the highest nonzero byte of a word of digit
    # values (below 10), whose bit length a double's exponent holds exactly
    top_hi = np.frexp((hi_w ^ _ASCII_ZEROS).astype(np.float64))[1]
    top_lo = np.frexp((lo_w ^ _ASCII_ZEROS).astype(np.float64))[1]
    n = np.where(top_lo > 0, 9 + (top_lo + 7) // 8, 1 + (top_hi + 7) // 8)  # digits shown
    e = k + size - 1  # the first digit's power of ten
    layouts, first = _float_layouts()
    key = np.take(first, e + 340) + n - 1
    lay = np.take(layouts, key + 412 * rule + 824 * neg, axis=1)
    lead |= _U(ord("0"))
    out = np.empty(x.shape + (4,), dtype="<u8")
    out[..., 0] = ((lead << _U(56)) & lay[0]) | lay[6]
    out[..., 1] = (hi_w & lay[1]) | (((hi_w << _U(8)) | lead) & lay[3]) | lay[7]
    out[..., 2] = (lo_w & lay[2]) | (((lo_w << _U(8)) | (hi_w >> _U(56))) & lay[4]) | lay[8]
    out[..., 3] = ((lo_w >> _U(56)) & lay[5]) | lay[9]
    expo = key >= 344
    if expo.any():
        a = abs(e)
        digits = (a // 100 + 48) | (a // 10 % 10 + 48) << 8 | (a % 10 + 48) << 16
        digits = np.where(a >= 100, digits, digits >> 8)
        out[..., 3] |= (np.where(expo, digits, 0) << 24).astype(np.uint64)
    return out


def _int_words(v: np.ndarray) -> np.ndarray:
    """int64 cells in decimal, each in a slot of as many words as the longest
    needs: the sign in its first byte, the digits last before the
    separator's two; shape ``v.shape + (words,)``."""
    neg = v < 0
    mag = np.where(neg, ~v.view(np.uint64) + _U(1), v.view(np.uint64))
    size = max(1, int(np.searchsorted(_POW10, mag.max(initial=_U(0)), side="right")))
    out = np.zeros(v.shape + ((size + 10) // 8 * 8,), dtype=np.uint8)
    out[..., 0] = np.where(neg, ord("-"), 0)
    for j in range(size):  # digit j from the right; a leading zero stays padding
        q = mag // _U(10)
        digit = (mag - q * _U(10)).astype(np.uint8) | ord("0")
        out[..., -3 - j] = digit if j == 0 else np.where(mag != _U(0), digit, 0)
        mag = q
    return out.view("<u8")


_NEEDS_QUOTES = re.compile('[,"\r\n]')  # csv.writer quotes a field holding one
_CSV_NUL = sys.version_info >= (3, 11)  # csv reads NUL from 3.11; before, writers refuse it

#: A BOOL slot by value.
_BOOL_WORDS = np.frombuffer(b"false\0\0\0" + b"true\0\0\0\0", dtype="<u8")


#: By fraction digits / 3: a stamp's text, digits as "0", then its digit bytes
#: and its other bytes as words. Slot byte j with a digit is byte _STAMP_FROM[j]
#: of the ``_ascii8`` words of (YYYYMMDD, hhmmss, fraction // 10, its last digit).
_STAMP_TEXT = np.array([b"0000-00-00T00:00:00" + b".000000000"[:k and 3 * k + 1] + b"Z"
                        for k in range(4)], dtype="S32").view(np.uint8).reshape(4, 32)
_STAMP_TRIM = np.stack([255 * (_STAMP_TEXT == 48), _STAMP_TEXT * (_STAMP_TEXT != 48)]
                       ).astype(np.uint8).view("<u8")
_STAMP_FROM = np.r_[0:4, 0, 4:6, 0, 6:8, 0, 10:12, 0, 12:14, 0, 14:16, 0, 16:24, 31, 0, 0, 0]


def _stamp_words(ns) -> np.ndarray:
    """RFC 3339 UTC text of int64 nanosecond stamps, the fraction trimmed to 0,
    3, 6 or 9 digits, then ``Z``, in slots of four words. Dates: civil_from_days
    (H. Hinnant, "chrono-Compatible Low-Level Date Algorithms") in int32."""
    days, ns = np.divmod(np.asarray(ns, dtype=np.int64), 86_400 * 10**9)
    era, doe = np.divmod(days.astype(np.int32) + 719_468, 146_097)  # days from 0000-03-01
    yoe = (doe - doe // 1460 + doe // 36_524 - doe // 146_096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)  # the day of the year from March 1
    mp = (5 * doy + 2) // 153  # the month from March
    month = (mp + 2) % 12 + 1
    date = (era * 400 + yoe + (month <= 2)) * 10_000 + month * 100 + doy - (153 * mp + 2) // 5 + 1
    second, frac = np.divmod(ns, 10**9)
    clock = second + 40 * (second // 60) + 4_000 * (second // 3_600)  # hhmmss
    keep, fixed = _STAMP_TRIM[:, np.count_nonzero([frac, frac % 10**6, frac % 1000], axis=0)]
    words = _ascii8(np.stack([date, clock, frac // 10, frac % 10], axis=1).view(np.uint64))
    return (words.view(np.uint8).take(_STAMP_FROM, axis=1).view("<u8") & keep) | fixed


def _quoted(text: str) -> bytes:
    """A header name or label as csv.writer writes it in a row of two or more
    fields; an unwritten label may hold a lone surrogate (``_check_cells``)."""
    if _NEEDS_QUOTES.search(text):
        text = '"' + text.replace('"', '""') + '"'
    return text.encode(errors="surrogatepass")


def _row_bytes(kind: IndexKind, index: np.ndarray, columns, eol: bool) -> bytes:
    """One block of rows in the bytes csv.writer writes (``eol``), or each
    cell followed by a comma. Every cell is formatted in numpy into a slot of
    whole little-endian words whose NUL bytes are padding, its separator in
    the slot's last two bytes; one pass then drops the NULs. The float
    columns of the block, and a numeric index, are formatted in one call, as
    are its I64 columns. A missing cell's slot holds its separator alone, as
    does a label's: after that pass the label (NULs kept) is inserted in
    front of it. ``columns``: (tag, data, quoted dictionary + b"", missing)."""
    floats = [data for tag, data, _, _ in columns if tag in FLOAT_TAGS]
    numeric = kind is IndexKind.NUMERIC
    if numeric:
        floats.insert(0, index)
    if floats:
        x = np.stack(floats, axis=1).astype(np.float64, copy=False)
        float_slots = iter(np.moveaxis(_float_words(x, np.arange(len(floats)) < numeric), 1, 0))
    ints = [data for tag, data, _, _ in columns if tag is ValueTag.I64]
    if ints:
        int_slots = iter(np.moveaxis(_int_words(np.stack(ints, axis=1)), 1, 0))
    slots = [next(float_slots) if numeric else _stamp_words(index)]
    labels = {}  # slot: the quoted cells of a label column
    for tag, data, quoted, missing in columns:
        if tag in FLOAT_TAGS:
            slot = next(float_slots)
        elif tag is ValueTag.I64:
            slot = next(int_slots)
        elif tag is ValueTag.BOOL:
            slot = np.take(_BOOL_WORDS, data.view(np.uint8))[:, None]
        else:
            labels[len(slots)] = quoted[data]  # a missing cell's code, -1, picks b""
            slot = np.zeros((len(data), 1), dtype=np.uint64)
        if missing is not None:
            slot[missing] = 0
        slots.append(slot)
    table = np.concatenate(slots, axis=1)
    sep = np.zeros(table.shape[1], dtype=np.uint64)
    sep[np.cumsum([s.shape[1] for s in slots]) - 1] = _COMMA_SEP
    if eol:
        sep[-1] = _EOL_SEP
    table |= sep
    out = table.tobytes().translate(None, b"\0")
    if not labels:
        return out
    buf = np.frombuffer(out, dtype=np.uint8)  # no other cell holds a comma or CR
    seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\r"))).reshape(-1, len(slots))
    cells = np.stack(list(labels.values()), axis=1).ravel().tolist()
    at = np.repeat(seps[:, list(labels)].ravel(), [len(c) for c in cells])
    return np.insert(buf, at, np.frombuffer(b"".join(cells), dtype=np.uint8)).tobytes()


def _check_cells(path, header: list[str], columns) -> None:
    """The writers' one check, before the file is opened: IoError naming the
    first header name, or else the first written label in column order, that
    UTF-8 cannot encode or csv cannot read (a NUL, ``_CSV_NUL``), checked by
    dictionary entry; LengthMismatch for a written code outside its
    dictionary. Every other cell is typed, so any value can be written."""
    def error(text: str):
        if "\0" in text and not _CSV_NUL:
            return "NUL is unreadable by csv before Python 3.11"
        try:
            text.encode()
        except UnicodeEncodeError as exc:
            return exc

    def fail(name, row, exc):
        raise IoError(f"cannot write {path}: column {name!r} row {row}: {exc}") from None

    for name in header:
        if exc := error(name):
            fail(name, 1, exc)
    for name, (tag, data, cats, missing) in zip(header[1:], columns):
        if tag is ValueTag.CATEGORICAL:
            codes = data if missing is None else data[~missing]
            if len(codes) and not 0 <= codes.min() <= codes.max() < len(cats):
                raise LengthMismatch(f"{name!r} has codes outside its {len(cats)} categories")
            bad = [code for code, label in enumerate(cats) if error(str(label))]
            rows = np.flatnonzero(np.isin(data, bad)) if bad else []  # a missing cell's is -1
            if len(rows):
                fail(name, int(rows[0]) + 2, error(str(cats[data[rows[0]]])))


def _write_csv(path, header: list[str], kind: IndexKind, index: np.ndarray, columns) -> None:
    """The header (``_quoted``), then the rows in blocks of WRITE_BLOCK_CELLS
    cells, each block one byte table (``_row_bytes``). ``columns``: (tag,
    data, categories, missing) of every value column. ``_check_cells`` runs
    before the file is opened; each dictionary entry is quoted once."""
    _check_cells(path, header, columns)
    columns = [(tag, data, None if cats is None else
                np.array([*(_quoted(str(c)) for c in cats), b""], dtype=object), missing)
               for tag, data, cats, missing in columns]
    step = max(1, WRITE_BLOCK_CELLS // (len(columns) + 1))
    try:
        with open(path, "wb") as fh:
            fh.write(b",".join(map(_quoted, header)) + b"\r\n")
            for lo in range(0, len(index), step):
                block = [(tag, data[lo:lo + step], quoted, None if missing is None else
                          missing[lo:lo + step]) for tag, data, quoted, missing in columns]
                fh.write(_row_bytes(kind, index[lo:lo + step], block, eol=True))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_matrix(matrix: FeatureMatrix, path) -> None:
    """Feature matrix to CSV: index first, NaN/None as empty cells; output is
    byte-stable for identical input."""
    names = matrix.column_names
    columns = [(c.tag, c.data, c.categories, c.missing) for c in map(matrix.__getitem__, names)]
    kind = matrix.kind if matrix.kind is not None else IndexKind.NUMERIC
    _write_csv(path, ["index", *names], kind, matrix.index, columns)


def write_series_csv(series_list: list[Series], path, index_column: str = "index") -> None:
    """Series sharing one index to CSV; load_csv reloads their values but for
    the README's exceptions. All series must be index-aligned bitwise."""
    if not series_list:
        raise LengthMismatch("write_series_csv needs at least one series")
    ref = series_list[0]
    for s in series_list:
        if s.kind is not ref.kind:
            raise KindMismatch(f"{s.name!r} and {ref.name!r} have different index kinds")
        if not _same_index(s.index, ref.index):
            raise LengthMismatch(f"{s.name!r} is not index-aligned with {ref.name!r}")
    columns = [(s.values.tag, s.values.data, s.values.categories, None) for s in series_list]
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
