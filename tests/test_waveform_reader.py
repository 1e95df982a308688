"""The waveform CSV reader against a line-by-line reference reader.

``read_waveform_csv`` parses a file in ``write_waveform_csv``'s grammar with
an exact numpy kernel, which hands ``float`` the rows it cannot prove, and any
other file with the line reader; every file must give the reference reader's
array, bit for bit, or its MalformedFile. This module needs numpy and
hypothesis only, so it runs at the oldest numpy the package allows.
"""

import decimal
import math
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uwbagsim import waveform
from uwbagsim.errors import MalformedFile
from uwbagsim.waveform import WAVEFORM_CSV_HEADER, read_waveform_csv, write_waveform_csv

from strategies import EQUIVALENCE, FLOATS, LINE_READER_CHARS, LINE_READER_ENDS, csv_texts

HEADER = b"sample_index,time_ns,value\n"


def _reference_read_waveform_csv(path):
    """The original split loop, plus the rules that a scan holds a sample and
    that every sample is finite: the reference both parse paths must match."""
    values = []
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MalformedFile(str(path), 1, "empty file")
    if lines[0].strip() != "sample_index,time_ns,value":
        raise MalformedFile(str(path), 1, "expected header 'sample_index,time_ns,value'")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise MalformedFile(str(path), lineno, f"expected 3 fields, got {len(parts)}")
        try:
            values.append(float(parts[2]))
        except ValueError as exc:
            raise MalformedFile(str(path), lineno, str(exc)) from None
    if not values:
        raise MalformedFile(str(path), 0, "the scan holds no sample")
    for i, value in enumerate(values):
        if not math.isfinite(value):
            raise MalformedFile(str(path), 0, f"sample {i} is not finite")
    return np.array(values)


def _read_or_error(read, path):
    try:
        return read(path)
    except MalformedFile as exc:
        return exc


def _assert_reads_as_reference(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a reader that warns fails too
        got = _read_or_error(read_waveform_csv, path)
    want = _read_or_error(_reference_read_waveform_csv, path)
    if isinstance(want, MalformedFile):
        assert isinstance(got, MalformedFile)
        assert (got.line, got.reason) == (want.line, want.reason)
        return
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "blob, line",
    [
        (b"sample_index,time_ns,value\n0,0.0,1.0\n1,0.061\n", 3),
        # undecodable text is no line of the file
        (b"sample_index,time_ns,value\n0,0.0,1.0\n1,0.061,\xff\n", 0),
        # a sample that is not finite fails an invariant of the whole scan, not a line
        (b"sample_index,time_ns,value\n0,0.0,1.0\n1,0.061,nan\n", 0),
        (b"sample_index,time_ns,value\n0,0.0,1.0\n1,0.061,-inf\n2,0.122,inf\n", 0),
        # a header alone is a scan without samples
        (b"sample_index,time_ns,value\n", 0),
    ],
    ids=["short-row", "not-utf8", "nan-sample", "inf-sample", "header-only"],
)
def test_waveform_csv_malformed(blob, line, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(blob)
    with pytest.raises(MalformedFile) as err:
        read_waveform_csv(path)
    assert err.value.line == line
    assert str(path) in str(err.value)


@EQUIVALENCE
@given(text=csv_texts(WAVEFORM_CSV_HEADER,
                      st.lists(st.tuples(st.integers(0, 2000), FLOATS, FLOATS), max_size=8),
                      line_reader_faults=True))
def test_waveform_csv_reader_matches_reference_reader(text, tmp_path_factory):
    # a header padded with spaces and undecodable text are left out: there
    # the two readers differ by design
    path = tmp_path_factory.getbasetemp() / "scan.csv"
    path.write_bytes(text.encode())
    _assert_reads_as_reference(path)


# Files on which the kernel and the line reader could part ways, each with the
# reference reader's outcome to match.
EDGE_FILES = {
    "canonical": HEADER + b"0,0,1.5\n1,0.061,-2e-3\n",
    "no-final-newline": HEADER + b"0,0,1.5\n1,0.061,-0",
    "empty-lines": HEADER + b"\n0,0,1.5\n\n1,0.061,2\n\n",
    "crlf": HEADER.replace(b"\n", b"\r\n") + b"0,0,1.5\r\n1,0.061,2\r\n",
    "crlf-body": HEADER + b"0,0,1.5\r\n1,0.061,2\r\n",
    "lone-cr": HEADER.replace(b"\n", b"\r") + b"0,0,1.5\r1,0.061,2\r",
    "lone-cr-body": HEADER + b"0,0,1.5\r1,0.061,2\n",
    **{f"{name}-{where}": HEADER + row
       for name, c in [("vt", b"\x0b"), ("ff", b"\x0c"), ("fs", b"\x1c"), ("gs", b"\x1d"),
                       ("rs", b"\x1e"), ("us", b"\x1f")]
       for where, row in [("inside", b"0,0,1" + c + b"5\n"), ("end", b"0,0,1.5" + c + b"\n"),
                          ("lead", b"0,0," + c + b"1.5\n")]},
    "space-line": HEADER + b"0,0,1\n \n1,0,2\n",
    "tab-line": HEADER + b"0,0,1\n\t\n",
    "padded-fields": HEADER + b"0,0, 1.5 \n1,0,\t2\n",
    "underscore": HEADER + b"0,0,1_5\n",
    "underscore-exponent": HEADER + b"0,0,1e1_0\n",
    "four-fields": HEADER + b"0,0,1,4\n",
    "four-fields-later": HEADER + b"0,0,1\n1,0,2,9\n",
    "two-fields": HEADER + b"0,0\n",
    "empty-value": HEADER + b"0,0,\n",
    "nan": HEADER + b"0,0,1\n1,0,nan\n",
    "nan-payload": HEADER + b"0,0,nan(1)\n",
    "inf": HEADER + b"0,0,inf\n",
    "minus-infinity": HEADER + b"0,0,-Infinity\n",
    "overflow": HEADER + b"0,0,1e400\n",
    "extremes": HEADER + b"0,0,5e-324\n1,0,-0\n2,0,1.7976931348623157e+308\n",
    "header-alone": HEADER,
    "header-without-newline": HEADER.rstrip(b"\n"),
    "blank-body": HEADER + b"\n \n\t\n",
    "empty-file": b"",
    "upper-header": HEADER.upper() + b"0,0,1\n",
    "bom": b"\xef\xbb\xbf" + HEADER + b"0,0,1\n",
    "hex": HEADER + b"0,0,0x10\n",
    "quoted": HEADER + b'0,0,"1.5"\n',
    "nul": HEADER + b"0,0,1\x005\n",
    "comment": HEADER + b"0,0,1 # note\n",
    "comment-line": HEADER + b"# note\n0,0,1\n",
    "index-and-time-unread": HEADER + b"x,y,1.5\n",
    "non-ascii-digit": HEADER + "0,0,\u0661\n".encode(),
    "no-break-space": HEADER + "0,0,\u00a01.5\n".encode(),
    "next-line-in-index": HEADER + "0\x85,0,1.5\n".encode(),
    "line-separator-in-time": HEADER + "0,0\u2028.5,1.5\n".encode(),
    # six fields on a line after three: a comma count of two a line on average
    "six-fields-later": HEADER + b"0,0,1\n1,0,2,3,4,5\n",
    "e-before-value": HEADER + b"0,2e,12\n",
    "dot-in-exponent": HEADER + b"0,0,1e+5.\n",
    "two-dots": HEADER + b"0,0,1.2.3\n",
    "one-digit-exponent": HEADER + b"0,0,1.5e-5\n",
    "four-digit-exponent": HEADER + b"0,0,1e+0005\n",
    "upper-exponent": HEADER + b"0,0,1E+05\n",
    "plus-sign": HEADER + b"0,0,+1.5\n",
    "bare-sign": HEADER + b"0,0,-\n",
    "bare-dot": HEADER + b"0,0,.\n",
    "bare-exponent": HEADER + b"0,0,e+05\n",
    "dot-forms": HEADER + b"0,0,.5\n1,0,5.\n2,0,-.5\n3,0,5.e+05\n4,0,007\n",
    "eighteen-digits": HEADER + b"0,0,123456789012345678\n1,0,1.2345678901234567890e-05\n",
    "leading-zeros": HEADER + b"0,0,0.000000000000000000001\n1,0,00000000000000000000001\n",
    "value-of-24-bytes": HEADER + b"0,0,-0.000012345678901234567\n",
    "value-of-25-bytes": HEADER + b"0,0,-0.0000012345678901234567\n",
    "ties": HEADER + b"0,0,9007199254740993\n1,0,4503599627370496.5\n2,0,4503599627370497.5\n",
    "twenty-two-digits": HEADER + b"0,0,123456789012345678901.5\n",
    "unsigned-value-of-25-bytes": HEADER + b"0,0,0.00000012345678901234567\n",
    "exponent-sign": HEADER + b"0,0,1e*05\n",
    "colon-in-value": HEADER + b"0,0,1:5\n",
    "trailing-text": HEADER + b"0,0,1\n2",
    "vt-in-index": HEADER + b"0\x0b,0,1.5\n",
    "cr-in-time": HEADER + b"0,0\r5,1.5\n",
}


@pytest.mark.parametrize("blob", EDGE_FILES.values(), ids=EDGE_FILES.keys())
def test_edge_files_read_as_the_reference_reads_them(blob, tmp_path):
    path = tmp_path / "scan.csv"
    path.write_bytes(blob)
    _assert_reads_as_reference(path)


# --- which path a file takes ----------------------------------------------------


def _scan():
    rng = np.random.default_rng(7)
    extremes = [-0.0, 0.0, 5e-324, 1.7976931348623157e308]
    return np.concatenate([rng.normal(0.0, 1e-4, 300), extremes])


def _spy_on_line_reader(monkeypatch):
    """Paths that reach the line reader, which still parses them."""
    calls = []
    line_reader = waveform._parse_csv_columns

    def spy(path, *args):
        calls.append(path)
        return line_reader(path, *args)

    monkeypatch.setattr(waveform, "_parse_csv_columns", spy)
    return calls


def _line_reader_must_not_run(*args):
    raise AssertionError("a canonical scan reached the line reader")


def test_written_scan_takes_the_fast_path(tmp_path, monkeypatch):
    samples = _scan()
    path = tmp_path / "scan.csv"
    write_waveform_csv(samples, path)
    monkeypatch.setattr(waveform, "_parse_csv_columns", _line_reader_must_not_run)
    assert read_waveform_csv(path).tobytes() == samples.tobytes()


def test_crlf_scan_takes_the_line_reader(tmp_path, monkeypatch):
    samples = _scan()
    path = tmp_path / "scan.csv"
    write_waveform_csv(samples, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    calls = _spy_on_line_reader(monkeypatch)
    assert read_waveform_csv(path).tobytes() == samples.tobytes()
    assert calls == [path]


def test_four_field_row_takes_the_line_reader(tmp_path, monkeypatch):
    # a kernel that read only each line's last field would read the 4-field row
    path = tmp_path / "scan.csv"
    path.write_bytes(HEADER + b"0,0,1.5,9\n1,0.061,2\n")
    calls = _spy_on_line_reader(monkeypatch)
    with pytest.raises(MalformedFile) as err:
        read_waveform_csv(path)
    assert (err.value.line, err.value.reason) == (2, "expected 3 fields, got 4")
    assert calls == [path]


@pytest.mark.parametrize("c", LINE_READER_ENDS + LINE_READER_CHARS + ["\x1d", "\x1e"])
def test_a_character_loadtxt_reads_otherwise_takes_the_line_reader(c, tmp_path, monkeypatch):
    path = tmp_path / "scan.csv"
    path.write_bytes(HEADER + f"0,0,1.5{c}1,0.061,2\n".encode())
    calls = _spy_on_line_reader(monkeypatch)
    _assert_reads_as_reference(path)
    assert calls == [path]


# --- the kernel: exact where it reads, float() on what it leaves ----------------


def _float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# any finite double, the extremes and subnormals often
FINITE = st.one_of(
    st.integers(0, 2**64 - 1).map(_float).filter(math.isfinite),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


def _kernel_reads(texts):
    """The value fields ``texts`` as the kernel reads them, which it must not leave to
    the line reader, and as float() reads each."""
    got = waveform._parse_canonical_scan(
        HEADER + "".join(f"{i},0,{t}\n" for i, t in enumerate(texts)).encode())
    assert got is not None
    return got.tobytes(), np.array([float(t) for t in texts]).tobytes()


@EQUIVALENCE
@given(samples=st.lists(FINITE, min_size=1, max_size=40))
def test_any_finite_double_reads_back_bit_equal(samples, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "written.csv"
    write_waveform_csv(np.array(samples), path)
    with mock.patch.object(waveform, "_parse_csv_columns", _line_reader_must_not_run):
        assert read_waveform_csv(path).tobytes() == np.array(samples).tobytes()


@EQUIVALENCE
@given(samples=st.lists(FINITE, min_size=1, max_size=40), digits=st.integers(1, 17))
def test_g_spellings_read_as_float_reads_them(samples, digits):
    got, want = _kernel_reads([f"{v:.{digits}g}" for v in samples])
    assert got == want


def _tie_spellings(d, e):
    """D * 10**e as digits and exponent, and as one digit, a dot, the rest and exponent."""
    digits = str(d)
    return [f"{digits}e{e:+03d}", f"{digits[0]}.{digits[1:] or '0'}e{e + len(digits) - 1:+03d}"]


@EQUIVALENCE
@given(
    e=st.integers(-1, 6),
    r=st.integers(0, 2**52),
    shift=st.integers(0, 2),
    nudge=st.sampled_from([-1, 0, 0, 1]),
    negative=st.booleans(),
)
def test_halfway_values_read_as_float_reads_them(e, r, shift, nudge, negative):
    # m * 2**(e + shift), m odd of 54 bits, lies halfway between two doubles; with
    # 5**e dividing m (or e = -1, m * 5 over 10) it is D * 10**e for a D of at most
    # 17 digits. The nudged D sits one digit off the tie.
    if e >= 0:
        lo, hi = -(-(2**53) // 5**e), (2**54 - 1) // 5**e
        m = 5**e * (lo + r % (hi - lo) | 1)
        d = m // 5**e << shift
    else:
        m, d = (2**53 + r) | 1, 5 * ((2**53 + r) | 1)
    assert m.bit_length() == 54 and m % 2 == 1
    texts = ["-" * negative + t for t in _tie_spellings(d + nudge, e)]
    got, want = _kernel_reads(texts)
    assert got == want


@EQUIVALENCE
@given(k=st.integers(-1073, 1023), eighths=st.integers(0, 8), digits=st.integers(15, 17))
def test_values_at_a_power_of_two_read_as_float_reads_them(k, eighths, digits):
    # between a power of two and the double below it, where the spacing halves
    x = decimal.Decimal(math.ldexp(1.0, k))
    below = decimal.Decimal(math.nextafter(math.ldexp(1.0, k), 0.0))
    with decimal.localcontext(decimal.Context(prec=1200)):
        mantissa, exponent = f"{below + (x - below) * eighths / 8:.{digits - 1}e}".split("e")
    got, want = _kernel_reads([f"{mantissa}e{int(exponent):+03d}"])
    assert got == want
