"""The numpy behaviours the order builtins, the padded merges, the CSV loader
and the CSV writers rest on, one test each, so that a failure on the oldest
numpy pyproject.toml allows names the assumption that broke (see the
numpy-floor job in CI)."""

import numpy as np

U = np.uint64


def test_uint8_subtraction_wraps_around():
    c = np.frombuffer(b"/09:", dtype=np.uint8)  # the bytes around the digits
    d = c - np.uint8(48)
    assert d.dtype == np.uint8
    assert d.tolist() == [255, 0, 9, 10]
    assert (d < 10).tolist() == [False, True, True, False]


def test_true_division_of_exact_digits_by_a_power_of_ten_is_float_of_the_text():
    m = np.array([1, 15, 123456789012345, 999999999999999, 7], dtype=np.int64)
    scale = np.array([10.0, 100.0, 1e15, 1e7, 1e15])
    assert (m / scale).tolist() == [0.1, 0.15, 0.123456789012345, 99999999.9999999, 7e-15]


def test_little_endian_views_of_row_strided_byte_columns():
    b = np.frombuffer(b"2024-03-01T12:34:56" * 2, dtype=np.uint8).reshape(2, 19)
    assert b[:, 11:13].view("<u2")[:, 0].tolist() == [ord("1") | ord("2") << 8] * 2
    seps = b.take([4, 7, 13, 16], axis=1).view("<u4")[:, 0]
    assert seps.tolist() == [int.from_bytes(b"--::", "little")] * 2
    table = np.zeros((2, 16), dtype=np.uint8)
    table[:, 0], table[:, 15] = ord("a"), ord(",")
    words = table.view("<u8")
    assert words.shape == (2, 2)
    assert words[:, 1].tolist() == [ord(",") << 56] * 2
    assert words.tobytes() == table.tobytes()


def test_str_len_of_nul_padded_cells():
    cells = np.array([b"2024-03-01T00:00:00Z", b"2024-03-01T00:00:00.5Z"])
    assert np.char.str_len(cells).tolist() == [20, 22]


def test_uint64_multiplies_wrap_modulo_2_64_and_shift_by_uint64_amounts():
    a = np.array([2**63 + 3, 2**40 + 1], dtype=np.uint64)
    assert (a * U(4)).tolist() == [12, 2**42 + 4]
    assert (a >> U(32)).tolist() == [2**31, 2**8]
    assert (a << U(62)).tolist() == [2**63 | 2**62, 2**62]


def test_explicit_uint64_operands_keep_uint64():
    a = np.array([12345678, 2**64 - 1], dtype=np.uint64)
    for out in (a // U(10000), a - a // U(10) * U(10), (a * U(10486)) >> U(20), a | U(1),
                a & U(0xFF), np.where(a > U(5), a, U(0))):
        assert out.dtype == np.uint64
    assert (a // U(10000)).tolist() == [1234, (2**64 - 1) // 10000]


def test_frexp_exponent_of_a_digit_word_is_its_bit_length():
    words = np.array([0, 9, 0x0100, 0x0900000000000000], dtype=np.uint64)
    assert np.frexp(words.astype(np.float64))[1].tolist() == [0, 4, 9, 60]


def test_int64_floor_divmod_of_negative_values():
    day = 86_400 * 10**9
    ns = np.array([-1, -day, -day - 1, -2**63, 2**63 - 1], dtype=np.int64)
    q, r = np.divmod(ns, day)
    assert q.dtype == r.dtype == np.int64
    assert list(zip(q.tolist(), r.tolist())) == [divmod(v, day) for v in ns.tolist()]


def test_int32_arithmetic_with_python_ints_stays_int32_and_floors():
    days = np.array([-106_752, -1, 0, 106_751], dtype=np.int32)
    era, doe = np.divmod(days + 719_468, 146_097)
    yoe = (doe - doe // 1460 + doe // 36_524 - doe // 146_096) // 365
    for out in (era, doe, yoe, 365 * yoe + yoe // 4, (5 * doe + 2) // 153 % 12 <= 2):
        assert out.dtype in (np.int32, np.bool_)
    assert (days // 7).tolist() == [v // 7 for v in days.tolist()]


def test_single_kth_partition_along_rows_places_the_rank():
    v = np.random.default_rng(3).normal(size=(4, 9)).astype(np.float32)
    v[1, 2] = np.nan  # NaN rows are found by the row max; only their place changes
    for a, r in ((0, 4), (5, 7), (0, 0), (0, 8)):
        s = v.copy()
        s[:, a:].partition(r - a, axis=1)  # in place, through a column slice
        rows = ~np.isnan(v).any(axis=1)
        want = np.sort(v[:, a:], axis=1)[:, r - a]
        assert s[rows, r].tobytes() == want[rows].tobytes()
        assert (s[rows, a:r] <= s[rows, r:r + 1]).all()
        assert (s[rows, r + 1:] >= s[rows, r:r + 1]).all()


def test_float32_to_float64_cast_of_picks_is_exact_and_monotone():
    x = np.sort(np.array([-np.inf, -3.4e38, -1.5, -1e-45, -0.0, 0.0, 1e-45, 0.1, 3.4e38, np.inf],
                         dtype=np.float32))
    y = x.astype(np.float64)
    assert (np.diff(y) >= 0).all()
    assert y.astype(np.float32).tobytes() == x.tobytes()
    assert y.tolist() == [float(v) for v in x.tolist()]


def test_searchsorted_counts_the_quotes_before_each_field_end():
    buf = np.frombuffer(b'a,"b,c",d\n"e\n",f\n', dtype=np.uint8)
    for dtype in (np.int32, np.int64):
        quotes = np.flatnonzero(buf == ord('"')).astype(dtype)
        hits = np.flatnonzero((buf == ord(",")) | (buf == ord("\n"))).astype(dtype)
        assert hits[np.searchsorted(quotes, hits) % 2 == 0].tolist() == [1, 7, 9, 14, 16]
        assert np.searchsorted(quotes, np.arange(0, 17, 8, dtype=dtype)).tolist() == [0, 2, 4]


def test_padded_merge_identities_return_x_bitwise():
    for dtype in (np.float64, np.float32):
        x = np.array([0.0, -0.0, np.nan, -np.nan, 1.5, -np.inf, np.inf, 1e-45], dtype=dtype)
        for out in (x + dtype(-0.0), np.minimum(x, dtype(np.inf)), np.maximum(x, dtype(-np.inf))):
            assert out.dtype == dtype and out.tobytes() == x.tobytes()
        pad = np.array([[False], [True]])
        filled = np.where(pad, -0.0, np.ones((2, 3), dtype=dtype))
        assert filled.dtype == dtype
        assert filled.tobytes() == np.array([[1.0] * 3, [-0.0] * 3], dtype=dtype).tobytes()


def test_multiply_where_leaves_pad_zeros_and_raises_nothing():
    last = np.array([1e300, 2.0, np.nan, 1e300])
    first = np.array([1e300, -3.0, 1.0, -1.0])
    pad = np.array([True, False, True, False])
    with np.errstate(over="raise", invalid="raise"):
        out = np.multiply(last, first, out=np.zeros_like(last), where=~pad)
    assert out.tolist() == [0.0, -6.0, 0.0, -1e300]


def test_insert_at_repeated_indices_keeps_the_values_in_order():
    buf = np.frombuffer(b"0,1,\r\n", dtype=np.uint8)
    for at, text, want in (([4, 4, 1, 2, 2, 2], b"dqeabc", b"0e,abc1,dq\r\n"),
                           ([3], b"x", b"0,1x,\r\n"), ([], b"", b"0,1,\r\n")):
        got = np.insert(buf, np.array(at, dtype=np.intp), np.frombuffer(text, dtype=np.uint8))
        assert got.dtype == np.uint8 and got.tobytes() == want
