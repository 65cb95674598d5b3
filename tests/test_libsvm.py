"""Parser tests: format examples, error reporting, round-trips, fuzzing, and
the columnar path checked against the line parser."""

import gzip
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agghb import libsvm
from agghb.libsvm import (
    MAX_INDEX,
    LibsvmFormatError,
    _parse_columnar,
    _parse_lines,
    load_libsvm,
    parse_libsvm,
    to_dataset,
)

from oracles import LibsvmRecord, as_records, serialize_libsvm


class TestParse:
    def test_basic_record(self):
        result = parse_libsvm("+1 1:0.5 3:-2.0")
        (rec,) = as_records(result)
        assert rec.label == 1.0
        assert rec.entries == ((1, 0.5), (3, -2.0))
        assert result.n_features == 3

    def test_label_only_record(self):
        result = parse_libsvm("-1")
        assert as_records(result)[0].label == -1.0
        assert as_records(result)[0].entries == ()
        assert result.n_features == 0

    def test_malformed_value_reports_line(self):
        with pytest.raises(LibsvmFormatError) as exc:
            parse_libsvm("1 2:abc")
        assert exc.value.line == 1
        assert "2:abc" in str(exc.value)

    def test_non_numeric_label_reports_line(self):
        with pytest.raises(LibsvmFormatError) as exc:
            parse_libsvm("+1 1:2.0\nfoo 1:1.0")
        assert exc.value.line == 2

    def test_missing_colon(self):
        with pytest.raises(LibsvmFormatError, match="no ':'"):
            parse_libsvm("1 23")

    def test_nonfinite_value_rejected(self):
        with pytest.raises(LibsvmFormatError, match="non-finite"):
            parse_libsvm("1 1:inf")

    def test_zero_index_rejected(self):
        with pytest.raises(LibsvmFormatError, match="index < 1"):
            parse_libsvm("1 0:1.0")

    def test_duplicate_index_rejected(self):
        with pytest.raises(LibsvmFormatError, match="duplicate"):
            parse_libsvm("1 2:1.0 2:3.0")

    def test_out_of_order_reordered_with_counter(self):
        result = parse_libsvm("1 3:1.0 1:2.0\n-1 1:1.0 2:2.0")
        assert result.reordered == 1
        assert as_records(result)[0].entries == ((1, 2.0), (3, 1.0))

    def test_blank_lines_and_comments_skipped(self):
        text = "# header comment\n\n+1 1:1.0  # trailing note\n   \n-1 2:0.5\n"
        result = parse_libsvm(text)
        assert len(as_records(result)) == 2
        assert as_records(result)[0].entries == ((1, 1.0),)

    def test_tabs_and_multiple_spaces(self):
        result = parse_libsvm("1\t1:1.0   2:2.0\t\t3:3.0")
        assert as_records(result)[0].entries == ((1, 1.0), (2, 2.0), (3, 3.0))

    def test_index_beyond_int64_rejected(self):
        with pytest.raises(LibsvmFormatError, match="index >") as exc:
            parse_libsvm("1 1:1.0 99999999999999999999:2")
        assert exc.value.line == 1
        assert "99999999999999999999:2" in str(exc.value)

    def test_largest_int64_index_accepted(self):
        assert parse_libsvm(f"1 {MAX_INDEX}:2").n_features == MAX_INDEX

    def test_invalid_utf8_bytes_structured_error(self):
        with pytest.raises(LibsvmFormatError, match="UTF-8"):
            parse_libsvm(b"\xff\xfe\x00 1:1.0")

    @pytest.mark.parametrize("source", [
        b"\xef\xbb\xbf+1 1:0.5\n-1 1:1\n", "\ufeff+1 1:0.5\n-1 1:1\n", ["\ufeff+1 1:0.5", "-1 1:1"],
    ], ids=["bytes", "str", "lines"])
    def test_byte_order_mark_skipped(self, source):
        assert_same_parse(parse_libsvm(source), parse_libsvm("+1 1:0.5\n-1 1:1\n"))

    @pytest.mark.parametrize("lines, bad_line", [
        (["\ufeff\ufeff+1 1:0.5", "-1 1:1"], 1), (["\ufeff+1 1:0.5", "\ufeff-1 1:1"], 2),
    ], ids=["two_marks", "second_line"])
    @pytest.mark.parametrize("kind", [bytes, str, list])
    def test_only_one_leading_byte_order_mark_skipped(self, lines, bad_line, kind):
        text = "\n".join(lines)
        source = {bytes: text.encode("utf-8"), str: text, list: lines}[kind]
        with pytest.raises(LibsvmFormatError, match="not numeric") as exc:
            parse_libsvm(source)
        assert exc.value.line == bad_line


class TestToDataset:
    def test_keeps_plus_minus_one(self):
        parsed = parse_libsvm("1 1:1.0\n-1 2:2.0")
        data = to_dataset(parsed)
        np.testing.assert_array_equal(data.labels, [1.0, -1.0])

    def test_zero_one_mapped(self):
        parsed = parse_libsvm("0 1:1.0\n1 2:2.0")
        data = to_dataset(parsed)
        np.testing.assert_array_equal(data.labels, [-1.0, 1.0])

    def test_three_labels_rejected_listing_values(self):
        parsed = parse_libsvm("1 1:1.0\n2 1:1.0\n3 1:1.0")
        with pytest.raises(ValueError) as exc:
            to_dataset(parsed)
        assert "1.0" in str(exc.value) and "3.0" in str(exc.value)

    # Of two values the larger maps to +1; a lone value maps to +1 when
    # positive.  The first five sets are those loaded before this rule, and
    # each maps as it did then.
    @pytest.mark.parametrize("raw, expected", [
        ([-1, 1, 1], [-1, 1, 1]),
        ([0, 1, 0], [-1, 1, -1]),
        ([1, 1], [1, 1]),
        ([-1], [-1]),
        ([0, 0], [-1, -1]),
        ([1, 2, 1], [-1, 1, -1]),
        ([2, 4], [-1, 1]),
        ([5, -2], [1, -1]),
        ([-1, 0], [-1, 1]),
        ([2], [1]),
    ], ids=["-1,1", "0,1", "1", "-1", "0", "1,2", "2,4", "-2,5", "-1,0", "2"])
    def test_label_rule(self, raw, expected):
        text = "".join(f"{label} 1:1.0\n" for label in raw)
        labels = to_dataset(parse_libsvm(text)).labels
        assert labels.dtype == np.float64
        assert labels.tobytes() == np.array(expected, dtype=float).tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero records"):
            to_dataset(parse_libsvm(""))

    def test_matrix_layout_zero_based(self):
        parsed = parse_libsvm("1 1:7.0 3:-1.0\n-1 2:4.0")
        data = to_dataset(parsed)
        dense = data.features.toarray()
        np.testing.assert_array_equal(dense, [[7.0, 0.0, -1.0], [0.0, 4.0, 0.0]])

    def test_n_override(self):
        parsed = parse_libsvm("1 1:1.0")
        data = to_dataset(parsed, n_features=5)
        assert data.n == 5

    def test_n_override_below_max_rejected(self):
        parsed = parse_libsvm("1 4:1.0")
        with pytest.raises(ValueError, match="below"):
            to_dataset(parsed, n_features=3)

    def test_all_zero_row_kept(self):
        parsed = parse_libsvm("-1\n+1 2:1.0")
        data = to_dataset(parsed)
        assert data.M == 2
        np.testing.assert_array_equal(data.features.toarray()[0], [0.0, 0.0])


class TestFiles:
    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "sample.libsvm.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("+1 1:1.5\n-1 2:-0.5\n")
        result = load_libsvm(path)
        assert len(as_records(result)) == 2
        assert result.n_features == 2

    def test_plain_file(self, tmp_path):
        path = tmp_path / "sample.libsvm"
        path.write_text("1 1:1.0\n")
        assert len(as_records(load_libsvm(path))) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(LibsvmFormatError, match="cannot read"):
            load_libsvm(tmp_path / "nope.libsvm")

    def test_corrupt_gzip(self, tmp_path):
        path = tmp_path / "bad.gz"
        path.write_bytes(b"this is not gzip")
        with pytest.raises(LibsvmFormatError):
            load_libsvm(path)


entry_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=60),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    ),
    max_size=8,
    unique_by=lambda e: e[0],
)


@st.composite
def record_strategy(draw):
    label = draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
    entries = tuple(sorted(draw(entry_lists), key=lambda e: e[0]))
    return LibsvmRecord(label=label, entries=entries)


class TestRoundTrip:
    @given(st.lists(record_strategy(), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_serialize_parse_roundtrip(self, records):
        text = serialize_libsvm(records)
        result = parse_libsvm(text)
        assert as_records(result) == tuple(records)

    def test_serialize_empty(self):
        assert serialize_libsvm([]) == ""


class TestFuzz:
    @given(st.binary(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_never_panics_on_bytes(self, blob):
        try:
            result = parse_libsvm(blob)
        except LibsvmFormatError:
            return
        assert result.n_features >= 0
        assert_same_parse(result, _parse_lines(blob.decode("utf-8-sig").splitlines()))

    @given(st.text(max_size=400))
    @example(text="\ufeff")
    @example(text="\ufeff+1 1:0.5\n-1 2:1\n")
    @settings(max_examples=300, deadline=None)
    def test_never_panics_on_text(self, text):
        try:
            result = parse_libsvm(text)
        except LibsvmFormatError:
            return
        # One leading byte-order mark is dropped, as utf-8-sig does for bytes.
        assert_same_parse(result, _parse_lines(text.removeprefix("\ufeff").splitlines()))


def assert_same_parse(got, want):
    """Bit-identical columnar arrays (dtype included) and equal counters."""
    for name in ("labels", "indptr", "indices", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.n_features == want.n_features
    assert got.reordered == want.reordered


def _full_width(digits: str) -> str:
    return "".join(chr(ord(c) - ord("0") + 0xFF10) for c in digits)


# Numbers at the limits of the byte path's numpy conversion (at most 18
# digits, a mantissa of at most 2^53) and of the float() syntax it takes.
EDGE_NUMBERS = [
    "0.123456789012345", "0.1234567890123456", "0.12345678901234567",  # 15-17 digits
    "123456789012345", "-1234567890123456", "12345678901234567",
    "9007199254740992", "9007199254740993", "-900719925474099.3",  # 2^53, 2^53 + 1
    "0." + "0" * 21 + "1", "0." + "0" * 22 + "1", "1." + "0" * 22,  # 22, 23 fraction digits
    "123456789012345678", "1234567890123456789", "0." + "0" * 16 + "1",  # 18, 19 digits
    "12345678901234567890", "." + "0" * 18 + "1",  # 20 bytes, 19 or 20 digits
    "5.", ".5", "+.5", "-0", "-0.0", "000.25", "+0", "-.0",
]
# Accepted spellings, each as int() and float() read them.
good_labels = st.sampled_from(
    ["1", "-1", "+1", "0", "-0", "2.5", "1e3", "1_0", _full_width("1")] + EDGE_NUMBERS
)
good_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.sampled_from(["1", "-0", "+2", "1_5", "1e-300", _full_width("12") + ".5"]
                    + EDGE_NUMBERS),
)
# "\x1f" is whitespace to str.split() but does not end a line.
separators = st.sampled_from([" ", "\t", "  ", " \t ", "\u3000", "\x1f"])
# Indices of 18 and 19 digits, the longest the byte path converts and the
# shortest it leaves to int().
big_indices = st.sampled_from([10**17, 10**18 - 1, 10**18, MAX_INDEX])


@st.composite
def good_lines(draw):
    label = draw(good_labels)
    index_set = st.one_of(st.integers(min_value=1, max_value=60), big_indices)
    indices = sorted(draw(st.sets(index_set, max_size=6)))
    tokens = [label]
    for idx in indices:
        spelled = draw(st.sampled_from(
            [str(idx), f"+{idx}", f"00{idx}", _full_width(str(idx)),
             f"{idx:018d}", f"{idx:019d}"]
        ))
        tokens.append(f"{spelled}:{draw(good_values)}")
    line = tokens[0]
    for tok in tokens[1:]:
        line += draw(separators) + tok
    return draw(st.sampled_from(["", " ", "\t"])) + line


# Each one makes the byte path hand its block to the line parser: a comment,
# a line the line parser re-sorts, or a rule the byte path checks on whole
# arrays or a token that neither it nor int()/float() converts.  (Non-ASCII
# blocks go there too; see TestBytePath.)  The first two are accepted
# there, the rest are errors.
FALLBACK_TRIGGERS = {
    "comment": "+1 1:1.0 # note\n-1 2:1.0\n",
    "out_of_order": "+1 3:1.0 1:2.0\n-1 2:1.0\n",
    "duplicate": "+1 2:1.0 2:3.0\n",
    "index_zero": "+1 0:1.0\n",
    "float_index": "+1 1.0:1.0\n",
    "two_dots": "+1 1:1.2.3\n",
    "two_colons": "+1 1:2:3\n",
    "colon_count_balanced": "+1 1:2:3 23\n",
    "empty_value": "-1 2:1\n+1 1:\n",
    "empty_index": "+1 :2\n",
    "no_colon": "+1 23\n",
    "inf_value": "+1 1:inf\n",
    "nan_label": "nan 1:1\n",
    "int64_overflow": "+1 1:1.0 99999999999999999999:2\n",
}
bad_lines = st.one_of(
    st.sampled_from([t.splitlines()[0] for t in FALLBACK_TRIGGERS.values()]),
    st.sampled_from(["x 1:1", "1:2 3:4", "1 1:nan", "1 1:1e400", "1 -2:1", "1 0x1:1"]),
)


@st.composite
def libsvm_texts(draw):
    """(text, clean): clean texts hold only accepted lines without comments."""
    clean = draw(st.booleans())
    line = st.one_of(good_lines(), st.sampled_from(["", "  ", "\t"]))
    if not clean:
        line = st.one_of(line, bad_lines)
    lines = draw(st.lists(line, max_size=10))
    text = "".join(l + draw(st.sampled_from(["\n", "\r\n"])) for l in lines)
    return text, clean


def parse_or_error(parse, source):
    try:
        return parse(source)
    except LibsvmFormatError as exc:
        return (str(exc), exc.line)


class TestColumnarMatchesLineParser:
    @given(libsvm_texts())
    @settings(max_examples=400, deadline=None)
    def test_same_result_or_same_error(self, case):
        text, clean = case
        lines = text.splitlines()
        want = parse_or_error(_parse_lines, lines)
        fast = _parse_columnar(lines)
        if clean and text.isascii():
            assert fast is not None
        if fast is not None:
            assert not isinstance(want, tuple), want
            assert_same_parse(fast, want)
        for block_lines in (libsvm.BLOCK_LINES, 3):
            with mock.patch.object(libsvm, "BLOCK_LINES", block_lines):
                got = parse_or_error(parse_libsvm, text)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert_same_parse(got, want)

    @pytest.mark.parametrize("text", FALLBACK_TRIGGERS.values(), ids=FALLBACK_TRIGGERS)
    def test_trigger_falls_back(self, text):
        lines = text.splitlines()
        assert _parse_columnar(lines) is None
        want = parse_or_error(_parse_lines, lines)
        got = parse_or_error(parse_libsvm, text)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_parse(got, want)

    def test_error_in_later_block_keeps_file_line_number(self):
        text = "+1 1:1\n" * 7 + "+1 1:zap\n"
        with mock.patch.object(libsvm, "BLOCK_LINES", 3):
            with pytest.raises(LibsvmFormatError) as exc:
                parse_libsvm(text)
        assert exc.value.line == 8

    def test_blocks_join_into_one_matrix(self):
        text = "+1 1:1 3:2\n\n-1\n0 2:5 # c\n1 4:1 2:3\n-1 1:7\n"
        with mock.patch.object(libsvm, "BLOCK_LINES", 2):
            got = parse_libsvm(text)
        assert_same_parse(got, _parse_lines(text.splitlines()))
        assert got.reordered == 1

    @pytest.mark.parametrize("number", EDGE_NUMBERS)
    def test_edge_numbers_bit_for_bit(self, number):
        lines = [f"{number} 1:{number} {'0' * 17}2:1 {'0' * 18}3:{number}"]
        fast = _parse_columnar(lines)
        assert fast is not None
        assert_same_parse(fast, _parse_lines(lines))


A9A_GROUPS = (5, 8, 5, 16, 5, 7, 14, 6, 5, 2, 2, 2, 5, 41)


def a9a_shaped(n_lines: int, seed: int = 0) -> str:
    """Lines shaped like the a9a set: ``+1``/``-1`` labels and one-hot
    ``k:1`` entries over 123 columns, one per group of columns."""
    rng = np.random.default_rng(seed)
    offsets = np.cumsum((0,) + A9A_GROUPS[:-1]) + 1
    cols = offsets + (rng.random((n_lines, len(A9A_GROUPS))) * A9A_GROUPS).astype(np.int64)
    keep = rng.random(cols.shape) >= 0.02
    labels = np.where(rng.random(n_lines) < 0.24, "+1", "-1")
    return "".join(
        label + "".join(f" {c}:1" for c, k in zip(row, keep_row) if k) + "\n"
        for label, row, keep_row in zip(labels.tolist(), cols.tolist(), keep.tolist())
    )


class TestBytePath:
    def test_a9a_shaped_blocks_never_reach_line_parser(self):
        text = a9a_shaped(3 * libsvm.BLOCK_LINES + 100)
        want = _parse_lines(text.splitlines())
        with mock.patch.object(libsvm, "_parse_lines", side_effect=AssertionError):
            got = parse_libsvm(text.encode())
        assert_same_parse(got, want)

    @pytest.mark.parametrize("swap", [("1", _full_width("1")), (" ", "\u3000")],
                             ids=["full_width_digit", "ideographic_space"])
    def test_non_ascii_block_goes_to_line_parser(self, swap):
        lines = a9a_shaped(3 * libsvm.BLOCK_LINES).splitlines()
        at = libsvm.BLOCK_LINES + 7  # in the second block
        lines[at] = lines[at].replace(*swap)
        text = "\n".join(lines)
        with mock.patch.object(libsvm, "_parse_lines", wraps=_parse_lines) as spy:
            got = parse_libsvm(text)
        assert [c.kwargs["first_line"] for c in spy.call_args_list] == [libsvm.BLOCK_LINES + 1]
        assert_same_parse(got, _parse_lines(lines))

    # tracemalloc peak of the string-token parser the byte path replaced, on
    # the same 20,000 lines; per-block position arrays must not lift it.
    STRING_PATH_PEAK = 17_213_114

    def test_peak_memory(self):
        data = a9a_shaped(20_000).encode()
        tracemalloc.start()
        try:
            parse_libsvm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * self.STRING_PATH_PEAK
