"""The numpy behaviours the CSV loader's decoder and the CSV writers rest on,
one test each, so that a failure on the oldest numpy pyproject.toml allows
names the assumption that broke (see the numpy-floor job in CI)."""

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
