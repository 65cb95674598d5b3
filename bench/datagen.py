"""Seeded LIBSVM inputs for the benchmark workloads.

Both generators are pure functions of their seed and return the file text,
so the same seed always gives byte-identical inputs.  The program under test
only ever sees the written files.
"""

from __future__ import annotations

import numpy as np

AUSTRALIAN_M, AUSTRALIAN_N = 690, 14

A9A_M = 32561
# One-hot group widths of the census features a9a encodes (14 attributes,
# 123 binary columns); each sample sets at most one column per group.
A9A_GROUPS = (5, 8, 5, 16, 5, 7, 14, 6, 5, 2, 2, 2, 5, 41)
A9A_N = sum(A9A_GROUPS)
A9A_POSITIVE_SHARE = 0.24
A9A_MISSING = 0.02  # chance that a sample leaves one attribute unset


def australian_text(seed: int, M: int = AUSTRALIAN_M, n: int = AUSTRALIAN_N,
                    decay: float = -2.5) -> str:
    """Credit-approval-shaped data: unit-variance, strongly collinear columns,
    one indicator column and noisy linear labels (not separable).

    Kept independent of the test suite's copy; at seed 7 it must reproduce
    that text byte for byte, which ``bench/tests`` checks.
    """
    rng = np.random.default_rng(seed)
    mix = rng.standard_normal((n, n))
    u, _, vt = np.linalg.svd(mix)
    T = (u * np.logspace(0.0, decay, n)) @ vt
    X = rng.standard_normal((M, n)) @ T
    X /= X.std(axis=0)
    X[np.abs(X) < 0.05] = 0.0
    X[:, 0] = (rng.random(M) < 0.5).astype(float)
    w_true = rng.standard_normal(n)
    z = X @ w_true
    z /= z.std()
    labels = np.where(z + 1.2 * rng.standard_normal(M) > 0, 1, -1)
    lines = []
    for i in range(M):
        entries = " ".join(
            f"{j + 1}:{float(X[i, j])!r}" for j in range(n) if X[i, j] != 0.0
        )
        lines.append(f"{labels[i]} {entries}".strip())
    return "\n".join(lines) + "\n"


def a9a_text(seed: int, M: int = A9A_M) -> str:
    """Adult-census-shaped data: binary one-hot features over 123 columns
    (about 11% dense), labels from a noisy linear rule with about 24%
    positives, written as ``+1``/``-1`` like the LIBSVM a9a file."""
    rng = np.random.default_rng(seed)
    cols = np.empty((M, len(A9A_GROUPS)), dtype=np.int64)
    start = 0
    for g, width in enumerate(A9A_GROUPS):
        probs = rng.dirichlet(np.full(width, 0.7))
        cols[:, g] = start + rng.choice(width, size=M, p=probs)
        start += width
    present = rng.random(cols.shape) >= A9A_MISSING
    w = rng.standard_normal(A9A_N)
    score = np.where(present, w[cols], 0.0).sum(axis=1)
    score = score / score.std() + 0.8 * rng.logistic(size=M)
    positive = score > np.quantile(score, 1.0 - A9A_POSITIVE_SHARE)
    lines = []
    for i in range(M):
        label = "+1" if positive[i] else "-1"
        feats = " ".join(f"{c + 1}:1" for c in cols[i][present[i]])
        lines.append(f"{label} {feats}".strip())
    return "\n".join(lines) + "\n"


ACCEPTANCE_SEED = 7


def australian_shuffled(seed: int) -> str:
    """The acceptance suite's data set (``australian_text(7)``) with its rows
    in an order drawn from ``seed``.

    The workload seed permutes rows instead of redrawing the matrix because
    the cost of the gradient-descent reference solve depends on the drawn
    matrix's conditioning: across generator seeds 0-5 it spans 11-33 s on a
    2-CPU host, and at seeds 2 and 4 the l2 = 0 reference stops at its
    10**6-step cap short of the 1e-10 certificate.  A row order leaves the
    objective and its conditioning unchanged, so the work per op stays put.
    """
    lines = australian_text(ACCEPTANCE_SEED).splitlines()
    order = np.random.default_rng(seed).permutation(len(lines))
    return "\n".join(lines[i] for i in order) + "\n"


def text_facts(text: str) -> dict:
    """Shape of LIBSVM text counted without the package's parser."""
    M = nnz = n = 0
    labels: dict[str, int] = {}
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        M += 1
        label = f"{float(tokens[0]):g}"
        labels[label] = labels.get(label, 0) + 1
        nnz += len(tokens) - 1
        if len(tokens) > 1:
            n = max(n, int(tokens[-1].partition(":")[0]))
    return {"M": M, "n": n, "nnz": nnz, "bytes": len(text.encode()),
            "labels": dict(sorted(labels.items(), key=lambda kv: float(kv[0])))}
