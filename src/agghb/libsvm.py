"""LIBSVM text-format parsing into binary-classification datasets.

The format is one sample per line: a numeric label followed by
``index:value`` pairs with 1-based, strictly increasing indices.  Blank
lines are skipped and ``#`` starts a comment (whole-line or trailing).
Files ending in ``.gz`` are transparently decompressed.

A parse yields one columnar :class:`ParseResult` (labels plus compressed-row
``indptr``/``indices``/``values``), which :func:`to_dataset` turns into the
feature matrix without another pass over the samples.  The input is text or
UTF-8 bytes; one leading byte-order mark is skipped.  Every input reaches
the parser as UTF-8 bytes whose ``\\n`` bytes are all its line breaks: input
whose lines all end in ``\\n`` or ``\\r\\n`` as it is (text is encoded first;
:func:`load_libsvm` passes the file's bytes), and any other input split at
every line break of ``str.splitlines()`` (a lone ``\\r``, ``\\x0c``,
``\\u2028``, ...) and joined again with ``\\n``, so that line numbers stay
the file's.  Its ``\\n`` positions are found once, it is cut into blocks of
:data:`BLOCK_LINES` lines, one byte slice each, and the blocks' columns are
written into arrays sized up front: one sample per line at most, one entry
per ``:``.

A block's bytes are split into tokens at the bytes ``str.split()`` splits
on and checked on whole arrays: a label first on each line, one ``:`` per
entry with an index before it and a value after it, index >= 1, finite
labels and values, and indices strictly increasing within a line.  Indices
of at most 18 digits are converted in numpy, and so are labels and values
of at most 18 digits with at most a leading sign and one ``.``: as
mantissa / 10^k, which is correctly rounded, and so bit for bit what
``float`` gives, when the mantissa is at most 2^53.  Every other number (an
exponent, ``_``, ``inf``, a ``+``-signed index, a longer mantissa such as
most 17-digit ``repr`` output) goes through Python's ``int``/``float`` one
by one.  A block that is not ASCII, holds a ``#``, breaks a rule or has a
token that does not convert (including an index beyond int64) is parsed
again, as text lines, by the line-by-line parser.  That parser alone
reports errors with their file line number and re-sorts lines whose indices
arrive out of order; the tests use it as the oracle for the block checks.
Parsing by blocks keeps only one block's byte arrays alive: read by
:func:`load_libsvm`, the ``tracemalloc`` peak is 2.0 to 2.4 times the size
of the result's arrays.

All failure modes raise :class:`LibsvmFormatError` carrying the offending
line number; the parser never raises anything else on malformed input.
"""

from __future__ import annotations

import codecs
import gzip
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .problems import Dataset

BLOCK_LINES = 4096
# Largest file index that is still a CSR column index and column count.
MAX_INDEX = np.iinfo(np.int64).max

# The byte path converts fields of at most this many digits in numpy, where
# their mantissas are exact in int64 (10^18 < 2^63); 10^k is exact in float64.
_FAST_DIGITS = 18
_POW10 = 10.0 ** np.arange(_FAST_DIGITS + 1)
# Spaces after a block: the longest field _fields reads by columns.
_PAD = b" " * (_FAST_DIGITS + 2)
# The bytes besides "\n" and "\r" that end a line for str.splitlines(): ASCII
# ones, and the UTF-8 forms of U+0085, U+2028 and U+2029.
_OTHER_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_UTF8_BREAKS = tuple(brk.encode() for brk in "\x85\u2028\u2029")


class LibsvmFormatError(ValueError):
    """Malformed LIBSVM input; ``line`` is the 1-based line number (0 = file level)."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass(frozen=True, eq=False)
class ParseResult:
    """Parsed samples in compressed-row form.

    Sample ``i`` has raw label ``labels[i]`` and its entries at positions
    ``indptr[i]:indptr[i + 1]`` of ``indices`` (0-based columns, strictly
    increasing) and ``values``.
    """

    labels: np.ndarray  # (M,) float64
    indptr: np.ndarray  # (M + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    values: np.ndarray  # (nnz,) float64
    n_features: int     # max 1-based index seen (0 when no entries at all)
    reordered: int      # lines whose indices arrived out of order


def _result(labels, counts, indices, values, reordered: int) -> ParseResult:
    """Assemble a parse from per-row entry counts and flat 0-based entries."""
    indices = np.asarray(indices, dtype=np.int64)
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return ParseResult(
        labels=np.asarray(labels, dtype=float),
        indptr=indptr,
        indices=indices,
        values=np.asarray(values, dtype=float),
        n_features=int(indices.max()) + 1 if indices.size else 0,
        reordered=reordered,
    )


def _columns(buf: bytes, breaks: np.ndarray) -> tuple | None:
    """Labels, entry counts, 0-based indices and values of lines, or None
    when they are not ASCII, hold a ``#`` or one of them needs the line parser.

    ``buf`` is the lines with a space before them and :data:`_PAD` after
    them; ``breaks`` are the positions in ``buf`` of the breaks after them
    (the last may lie past the lines).  The spaces bound the first and last
    token, and let :func:`_fields` read columns past the end of the last field.
    """
    if not buf.isascii() or b"#" in buf:
        return None
    b = np.frombuffer(buf, dtype=np.uint8)
    solid = (b > 32) | ((b - 14) < 14) | (b < 9)  # not an ASCII space of str.split()
    edges = np.flatnonzero(solid[1:] != solid[:-1])
    del solid
    edges += 1
    start, stop = edges[0::2], edges[1::2]  # tokens: runs of solid bytes
    # A line's first token is its label; the others are its entries.
    label = np.zeros(start.size + 1, dtype=bool)
    label[0] = True
    label[np.searchsorted(start, breaks)] = True
    label = label[:-1]
    entry = ~label
    l_start, l_stop = start[label], stop[label]
    e_start, e_stop = start[entry], stop[entry]
    # Position arrays are the block's largest; each is dropped once read.
    del edges, start, stop
    # One ':' per entry and none in a label, with bytes on both sides of it.
    colon = np.flatnonzero(b == ord(":"))
    if colon.size != e_start.size or np.any(colon <= e_start) or np.any(colon >= e_stop - 1):
        return None
    labels = _fields(buf, l_start, l_stop, float)
    idx = _fields(buf, e_start, colon, int)
    del e_start
    colon += 1  # now where the values start
    values = _fields(buf, colon, e_stop, float)
    if labels is None or idx is None or values is None:
        return None
    if not (np.isfinite(labels).all() and np.isfinite(values).all()):
        return None
    first_entry = label[:-1][entry[1:]]  # entries right after their label
    if idx.size and (idx.min() < 1 or not np.all(first_entry[1:] | (idx[1:] > idx[:-1]))):
        return None
    counts = np.diff(np.flatnonzero(np.append(label, True))) - 1
    idx -= 1
    return labels, counts, idx, values


def _fields(buf: bytes, start: np.ndarray, stop: np.ndarray, convert) -> np.ndarray | None:
    """``convert`` (``int`` or ``float``) of each field ``buf[start:stop]``,
    or None when one of them does not convert or an index exceeds int64.

    Plain fields of at most :data:`_FAST_DIGITS` digits are read in numpy,
    one column of bytes at a time, as mantissa / 10^k.  When the mantissa is
    at most 2^53 both operands are exact in float64, so the quotient is
    correctly rounded, bit for bit what ``float`` gives.  When no field of
    the call has a ``.`` (k = 0) the division is skipped, and when none has a
    sign so is the negation.  Every other field goes through ``convert`` one
    by one.  ``buf`` must end in ``_PAD``.
    """
    b = np.frombuffer(buf, dtype=np.uint8)
    width = stop - start
    mantissa = np.zeros(width.size, dtype=np.int64)
    # Byte counts and columns fit uint8 (at most len(_PAD) columns are read).
    n_digits = np.zeros(width.size, dtype=np.uint8)
    n_dots = np.zeros(width.size, dtype=np.uint8)
    dot_col = np.zeros(width.size, dtype=np.uint8)
    dots = convert is not int and b"." in buf
    first = b[start]
    for col in range(min(int(width.max(initial=0)), len(_PAD))):
        byte = b[start + col] if col else first
        inside = width > col
        digit = byte - ord("0")  # uint8: wraps round for bytes below '0'
        is_digit = (digit < 10) & inside
        n_digits += is_digit
        mantissa *= 1 + is_digit * np.uint8(9)  # a Horner step on digits only
        mantissa += digit * is_digit
        if dots:
            is_dot = (byte == ord(".")) & inside
            n_dots += is_dot
            dot_col += is_dot * np.uint8(col)
    if convert is int:
        fast = (n_digits == width) & (width <= _FAST_DIGITS)
        out = mantissa
    else:
        signed = (first == ord("+")) | (first == ord("-"))
        fast = ((n_digits + n_dots + signed == width) & (n_dots <= 1) & (n_digits >= 1)
                & (n_digits <= _FAST_DIGITS) & (mantissa <= 2**53))
        if n_dots.any():
            fraction = (width - 1 - dot_col) * (n_dots > 0)
            out = mantissa / _POW10.take(fraction, mode="clip")
        else:
            out = mantissa.astype(float)  # mantissa / 10^0
        if signed.any():
            out *= 1 - 2 * (first == ord("-"))
    slow = np.flatnonzero(~fast)
    try:
        out[slow] = [convert(buf[a:z]) for a, z in zip(start[slow].tolist(), stop[slow].tolist())]
    except (ValueError, OverflowError):
        return None
    return out


def _parse_lines(lines: Iterable[str], first_line: int = 1) -> ParseResult:
    """Parse line by line, raising the first error with its line number."""
    labels: list[float] = []
    counts: list[int] = []
    indices: list[int] = []
    values: list[float] = []
    reordered = 0
    for lineno, raw in enumerate(lines, start=first_line):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise LibsvmFormatError(
                f"label token {tokens[0]!r} is not numeric", lineno
            ) from None
        if not np.isfinite(label):
            raise LibsvmFormatError(f"label {tokens[0]!r} is not finite", lineno)

        entries: list[tuple[int, float]] = []
        seen: set[int] = set()
        out_of_order = False
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise LibsvmFormatError(f"token {tok!r} has no ':' separator", lineno)
            try:
                idx = int(idx_s)
            except ValueError:
                raise LibsvmFormatError(
                    f"token {tok!r} has non-integer index", lineno
                ) from None
            if idx < 1:
                raise LibsvmFormatError(f"token {tok!r} has index < 1", lineno)
            if idx > MAX_INDEX:
                raise LibsvmFormatError(
                    f"token {tok!r} has index > {MAX_INDEX}", lineno
                )
            try:
                val = float(val_s)
            except ValueError:
                raise LibsvmFormatError(
                    f"token {tok!r} has non-numeric value", lineno
                ) from None
            if not np.isfinite(val):
                raise LibsvmFormatError(f"token {tok!r} has non-finite value", lineno)
            if idx in seen:
                raise LibsvmFormatError(f"duplicate feature index {idx}", lineno)
            if entries and idx < entries[-1][0]:
                out_of_order = True
            seen.add(idx)
            entries.append((idx, val))

        if out_of_order:
            entries.sort(key=lambda e: e[0])
            reordered += 1
        labels.append(label)
        counts.append(len(entries))
        indices.extend(idx - 1 for idx, _ in entries)  # columns are 0-based
        values.extend(val for _, val in entries)

    return _result(labels, counts, indices, values, reordered)


def _fits_byte_path(data: bytes) -> bool:
    """Whether the lines of UTF-8 ``data`` end only in ``\\n`` or ``\\r\\n``,
    so that its ``\\n`` bytes are all its line breaks."""
    # Searching for a multi-byte break is slow, and ASCII holds none.
    breaks = _OTHER_BREAKS if data.isascii() else _OTHER_BREAKS + _UTF8_BREAKS
    if any(brk in data for brk in breaks):
        return False
    if b"\r" not in data:
        return True
    b = np.frombuffer(data, dtype=np.uint8)
    cr = np.flatnonzero(b == ord("\r"))
    return bool(cr[-1] + 1 < b.size and np.all(b[cr + 1] == ord("\n")))


def _parse_bytes(data: bytes) -> ParseResult:
    """Parse UTF-8 bytes whose ``\\n`` bytes are all their line breaks by
    blocks of :data:`BLOCK_LINES` lines, each cut as one byte slice, into
    arrays sized up front; a block :func:`_columns` refuses is decoded and
    goes to the line parser.  ``"surrogatepass"`` lets a lone surrogate in
    text reach that parser, which reports it."""
    b = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    n_lines = ends.size + (not data.endswith(b"\n") and len(data) > 0)
    labels = np.empty(n_lines)
    counts = np.empty(n_lines, dtype=np.int64)
    # An entry holds one ':'; a ':' in a comment leaves the arrays' tails unwritten.
    indices = np.empty(np.count_nonzero(b == ord(":")), dtype=np.int64)
    values = np.empty(indices.size)
    view = memoryview(data)
    m = nnz = reordered = 0
    for first in range(0, n_lines, BLOCK_LINES):
        last = min(first + BLOCK_LINES, n_lines)
        lo = int(ends[first - 1]) + 1 if first else 0
        hi = int(ends[last - 1]) + 1 if last <= ends.size else len(data)
        # In the block's buffer, byte p of the file sits at p - lo + 1.
        block = _columns(b"".join((b" ", view[lo:hi], _PAD)), ends[first:last] - (lo - 1))
        if block is None:
            parsed = _parse_lines(data[lo:hi].decode("utf-8", "surrogatepass").splitlines(),
                                  first_line=first + 1)
            block = parsed.labels, np.diff(parsed.indptr), parsed.indices, parsed.values
            reordered += parsed.reordered
        block_labels, block_counts, block_indices, block_values = block
        labels[m:m + block_labels.size] = block_labels
        counts[m:m + block_counts.size] = block_counts
        indices[nnz:nnz + block_indices.size] = block_indices
        values[nnz:nnz + block_values.size] = block_values
        m += block_labels.size
        nnz += block_indices.size
    # Blank lines hold no sample, so m may fall short of n_lines.
    return _result(labels[:m], counts[:m], indices[:nnz], values[:nnz], reordered)


def parse_libsvm(source: str | bytes) -> ParseResult:
    """Parse LIBSVM text or UTF-8 bytes into compressed-row samples.

    Input whose lines all end in ``\\n`` or ``\\r\\n`` goes to the byte parser
    as it is (text is encoded first).  Any other input is split into lines
    and joined again with ``\\n`` before it goes there.  A block the columnar
    checks refuse goes to the line parser, which reports errors with their
    file line numbers.
    """
    if isinstance(source, str):
        data = source.removeprefix("\ufeff").encode("utf-8", "surrogatepass")
    elif isinstance(source, bytes):
        data = source.removeprefix(codecs.BOM_UTF8)
        if not data.isascii():
            try:  # only a check; its error counts positions from the first byte
                source.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise LibsvmFormatError(f"input is not valid UTF-8: {exc}") from None
    else:
        raise TypeError(f"parse_libsvm takes str or bytes, not {type(source).__name__}")
    del source
    if not _fits_byte_path(data):
        text = data.decode("utf-8", "surrogatepass")
        data = "\n".join(text.splitlines()).encode("utf-8", "surrogatepass")
        del text
    return _parse_bytes(data)


def load_libsvm(path: str | Path) -> ParseResult:
    """Parse a LIBSVM file from disk, decompressing ``.gz`` files."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(path, "rb") as fh:
            return parse_libsvm(fh.read())  # the parse holds the only reference
    except (OSError, EOFError, zlib.error) as exc:
        raise LibsvmFormatError(f"cannot read {path}: {exc}") from None


def to_dataset(parsed: ParseResult, n_features: int | None = None) -> Dataset:
    """Build a Dataset with +-1 labels from a parse, its features filled
    straight from the parse's compressed rows: dense when narrow, CSR
    otherwise (see :class:`Dataset`).

    Of two label values the larger maps to +1 and the smaller to -1, so
    {-1, +1} is kept and {0, 1}, {1, 2} or {2, 4} map their smaller value to
    -1; a lone value maps to +1 when positive and to -1 otherwise.  Three or
    more values are refused.  ``n_features`` overrides the inferred column
    count (some files omit trailing all-zero columns).
    """
    raw_labels = parsed.labels
    distinct = np.unique(raw_labels)
    if distinct.size > 2:
        raise ValueError(
            f"label set {distinct.tolist()} has more than two values; "
            "a binary classification set has two"
        )
    lower = distinct[0] if distinct.size == 2 else 0.0
    labels = np.where(raw_labels > lower, 1.0, -1.0)

    n = feature_count(parsed, n_features)
    return Dataset.from_rows(parsed.values, parsed.indices, parsed.indptr, n, labels)


def feature_count(parsed: ParseResult, n_features: int | None) -> int:
    """``n_features`` if given, else the largest index seen; it may not be below that index."""
    if n_features is None:
        return parsed.n_features
    if n_features < parsed.n_features:
        raise ValueError(f"n_features={n_features} is below the largest seen index "
                         f"{parsed.n_features}")
    return n_features
