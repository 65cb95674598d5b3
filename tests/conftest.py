"""Shared fixtures: datasets for the regression problems.

The credit-approval benchmark file (690 samples, 14 features) is used when
present, located via $AGGHB_DATA_DIR or a ./data directory.  When absent, a
deterministic synthetic stand-in with the same shape is generated and pushed
through the full LIBSVM text path, so every parser and problem surface is
exercised either way.
"""

import gzip
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from agghb.libsvm import load_libsvm, parse_libsvm, to_dataset
from agghb.problems import _DENSE_FALLBACK_COLS, Dataset

AUSTRALIAN_M, AUSTRALIAN_N = 690, 14

# Damaged .gz files: gzip reads the first to EOFError and the second, a valid
# header before a deflate block of the reserved type, to zlib.error.
DAMAGED_GZIP = {
    "truncated": gzip.compress(b"+1 1:1.5\n-1 2:0.25\n" * 200, mtime=0)[:30],
    "bad_deflate": b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff" + b"\xff" * 8,
}


def find_australian() -> Path | None:
    candidates = []
    env = os.environ.get("AGGHB_DATA_DIR")
    if env:
        candidates += [Path(env) / "australian", Path(env) / "australian.txt"]
    here = Path(__file__).resolve().parent.parent
    candidates += [here / "data" / "australian", here / "data" / "australian.txt"]
    for c in candidates:
        if c.exists():
            return c
    return None


def synthetic_libsvm_text(M: int = AUSTRALIAN_M, n: int = AUSTRALIAN_N,
                          seed: int = 7, decay: float = -2.5) -> str:
    """LIBSVM text for a binary classification problem shaped like the
    credit-approval benchmark as LIBSVM ships it: columns normalized to unit
    standard deviation, an indicator column, and strongly collinear
    continuous columns (dummy groups and related measurements make real
    credit features near-collinear, which is what conditions the logistic
    landscape).  Labels follow a noisy linear rule, so the data is not
    separable and the optimum is finite.  ``decay`` sets the collinearity:
    latent factor strengths span 10**0 .. 10**decay.
    """
    rng = np.random.default_rng(seed)
    mix = rng.standard_normal((n, n))
    u, _, vt = np.linalg.svd(mix)
    T = (u * np.logspace(0.0, decay, n)) @ vt
    X = rng.standard_normal((M, n)) @ T
    X /= X.std(axis=0)
    X[np.abs(X) < 0.05] = 0.0  # mild sparsity, like omitted zero entries
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


@pytest.fixture(scope="session")
def australian_file(tmp_path_factory) -> Path:
    real = find_australian()
    if real is not None:
        return real
    path = tmp_path_factory.mktemp("data") / "australian-like.libsvm"
    path.write_text(synthetic_libsvm_text())
    return path


@pytest.fixture(scope="session")
def australian_dataset(australian_file):
    return to_dataset(load_libsvm(australian_file))


@pytest.fixture(scope="session")
def small_dataset():
    """Tiny dataset for cheap unit tests (40 samples, 6 features)."""
    text = synthetic_libsvm_text(M=40, n=6, seed=11)
    return to_dataset(parse_libsvm(text))


@pytest.fixture(scope="session")
def wide_dataset():
    """Sparse dataset wide enough for the CSR branch of the logistic
    objectives (200 samples, 80 features, about 15% nonzero)."""
    rng = np.random.default_rng(5)
    M, n = 200, 80
    assert n > _DENSE_FALLBACK_COLS
    dense = rng.standard_normal((M, n)) * (rng.random((M, n)) < 0.15)
    z = dense @ rng.standard_normal(n) + rng.standard_normal(M)
    return Dataset(features=sp.csr_matrix(dense), labels=np.where(z > 0, 1.0, -1.0))
