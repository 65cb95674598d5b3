"""LIBSVM text-format parsing into binary-classification datasets.

The format is one sample per line: a numeric label followed by
``index:value`` pairs with 1-based, strictly increasing indices.  Blank
lines are skipped and ``#`` starts a comment (whole-line or trailing).
Files ending in ``.gz`` are transparently decompressed.

A parse yields one columnar :class:`ParseResult` (labels plus compressed-row
``indptr``/``indices``/``values``), which :func:`to_dataset` turns into the
CSR matrix without another pass over the samples.  Text is parsed in blocks
of :data:`BLOCK_LINES` lines.  Each block first takes a columnar path: it
splits every line into tokens, every ``index:value`` token once at its
colon, converts all labels, indices and values with numpy's string
conversion (which applies Python's ``int``/``float`` to each string) and
checks the strict rules on whole arrays: one ``:`` per token, index >= 1,
finite labels and values, and indices strictly increasing within a row.  A
block holding a ``#``, failing any check, or whose conversion raises
(including ``OverflowError`` for an index beyond int64) is parsed again by
the line-by-line parser.  That parser alone reports errors with their line
number and re-sorts lines whose indices arrive out of order; the tests use
it as the oracle for the columnar path.  Parsing by blocks keeps the token
strings of only one block alive at a time, which holds peak memory near the
size of the result instead of that of every token of the file.

All failure modes raise :class:`LibsvmFormatError` carrying the offending
line number; the parser never raises anything else on malformed input.
"""

from __future__ import annotations

import gzip
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .problems import Dataset

BLOCK_LINES = 4096
# Largest file index that is still a CSR column index and column count.
MAX_INDEX = np.iinfo(np.int64).max
# A token with two or more colons, in tokens joined by single spaces.
_MULTI_COLON = re.compile(r":[^ :]*:")


class LibsvmFormatError(ValueError):
    """Malformed LIBSVM input; ``line`` is the 1-based line number (0 = file level)."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass(frozen=True)
class LibsvmRecord:
    """One parsed sample: raw label and (1-based index, value) pairs."""

    label: float
    entries: tuple[tuple[int, float], ...]


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

    @property
    def records(self) -> tuple[LibsvmRecord, ...]:
        """The samples as records with 1-based indices, for :func:`serialize_libsvm`."""
        cols = (self.indices + 1).tolist()
        vals = self.values.tolist()
        bounds = self.indptr.tolist()
        return tuple(
            LibsvmRecord(label=label, entries=tuple(zip(cols[a:b], vals[a:b])))
            for label, a, b in zip(self.labels.tolist(), bounds, bounds[1:])
        )


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


def _parse_columnar(lines: Sequence[str]) -> ParseResult | None:
    """Parse a block of lines with whole-array conversions and checks, or
    return None when the block needs the line parser."""
    if any("#" in line for line in lines):
        return None
    rows = [tokens for tokens in map(str.split, lines) if tokens]
    entries = list(chain.from_iterable(tokens[1:] for tokens in rows))
    joined = " ".join(entries)
    if joined.count(":") != len(entries) or _MULTI_COLON.search(joined):
        return None  # some token has no ':' or more than one
    parts = joined.replace(" ", ":").split(":") if entries else []
    try:
        labels = np.array([tokens[0] for tokens in rows], dtype=float)
        idx = np.array(parts[0::2], dtype=np.int64)
        values = np.array(parts[1::2], dtype=float)
    except (ValueError, OverflowError):
        return None
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) - 1
    if not (np.isfinite(labels).all() and np.isfinite(values).all()):
        return None
    if idx.size:
        row = np.repeat(np.arange(len(rows)), counts)
        if idx.min() < 1 or np.any((np.diff(row) == 0) & (np.diff(idx) <= 0)):
            return None
    return _result(labels, counts, idx - 1, values, reordered=0)


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


def parse_libsvm(source: str | bytes | Iterable[str]) -> ParseResult:
    """Parse LIBSVM text into compressed-row samples."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LibsvmFormatError(f"input is not valid UTF-8: {exc}") from None
    lines = source.splitlines() if isinstance(source, str) else list(source)

    blocks = []
    for start in range(0, len(lines), BLOCK_LINES):
        block = lines[start:start + BLOCK_LINES]
        parsed = _parse_columnar(block)
        blocks.append(parsed if parsed is not None
                      else _parse_lines(block, first_line=start + 1))
    if len(blocks) == 1:
        return blocks[0]
    if not blocks:
        return _parse_lines(())
    return _result(
        np.concatenate([b.labels for b in blocks]),
        np.concatenate([np.diff(b.indptr) for b in blocks]),
        np.concatenate([b.indices for b in blocks]),
        np.concatenate([b.values for b in blocks]),
        sum(b.reordered for b in blocks),
    )


def load_libsvm(path: str | Path) -> ParseResult:
    """Parse a LIBSVM file from disk, decompressing ``.gz`` files."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(path, "rb") as fh:
            data = fh.read()
    except (OSError, gzip.BadGzipFile) as exc:
        raise LibsvmFormatError(f"cannot read {path}: {exc}") from None
    return parse_libsvm(data)


def serialize_libsvm(records: Iterable[LibsvmRecord]) -> str:
    """Render records back to LIBSVM text with canonical index order.

    Values are written with full round-trip precision, so
    ``parse(serialize(parse(text)))`` reproduces the records exactly.
    """
    lines = []
    for rec in records:
        parts = [repr(float(rec.label))]
        parts.extend(
            f"{int(idx)}:{float(val)!r}"
            for idx, val in sorted(rec.entries, key=lambda e: e[0])
        )
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def to_dataset(parsed: ParseResult, n_features: int | None = None) -> Dataset:
    """Build a compressed-row Dataset with +-1 labels from a parse.

    Of two label values the larger maps to +1 and the smaller to -1, so
    {-1, +1} is kept and {0, 1}, {1, 2} or {2, 4} map their smaller value to
    -1; a lone value maps to +1 when positive and to -1 otherwise.  Three or
    more values are refused.  ``n_features`` overrides the inferred column
    count (some files omit trailing all-zero columns).
    """
    raw_labels = parsed.labels
    if raw_labels.size == 0:
        raise ValueError("cannot build a dataset from zero records")

    distinct = np.unique(raw_labels)
    if distinct.size > 2:
        raise ValueError(
            f"label set {distinct.tolist()} has more than two values; "
            "a binary classification set has two"
        )
    lower = distinct[0] if distinct.size == 2 else 0.0
    labels = np.where(raw_labels > lower, 1.0, -1.0)

    n = feature_count(parsed, n_features)
    features = sp.csr_matrix(
        (parsed.values, parsed.indices, parsed.indptr), shape=(raw_labels.size, n)
    )
    return Dataset(features=features, labels=labels)


def feature_count(parsed: ParseResult, n_features: int | None) -> int:
    """``n_features`` if given, else the largest index seen; it may not be below that index."""
    if n_features is None:
        return parsed.n_features
    if n_features < parsed.n_features:
        raise ValueError(f"n_features={n_features} is below the largest seen index "
                         f"{parsed.n_features}")
    return n_features
