"""Small numeric helpers shared across modules."""

from __future__ import annotations

import numpy as np


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis.

    Single implementation used by every module so that batched rows and
    single vectors go through the identical reduction (bit-stable results
    regardless of batch shape).
    """
    a = np.asarray(a, dtype=float)
    return np.sqrt(np.add.reduce(a * a, axis=-1))


def finite_row_norms(a: np.ndarray) -> np.ndarray:
    """row_norms for rows whose squared norm may overflow.

    Rows with a finite squared norm take row_norms's arithmetic.  A
    finite row whose squared norm overflows takes its norm as
    max|entry| * ||row / max|entry|||, so no overflow warning is raised
    for a norm that is mended here.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        nrm = row_norms(a)
    if np.any(np.isinf(nrm)):
        big = np.max(np.abs(a), axis=-1)
        fix = np.isinf(nrm) & np.isfinite(big)
        unit = a / np.where(fix, big, 1.0)[..., None]
        nrm = np.where(fix, big * row_norms(unit), nrm)
    return nrm


def clip_rows(a: np.ndarray, bound: float) -> tuple:
    """Scale the rows of a to Euclidean norm at most bound.

    Returns (rows, over), where over marks the rows that were scaled;
    rows is a itself when none was.  The clipped oracle, clip_batch and
    ball projection all go through here.  A finite row whose squared
    norm overflows takes its norm from finite_row_norms, so it lands on
    norm bound instead of being scaled to zero.  The squaring still
    raises numpy's overflow warning: clip_batch and project silence it
    per call, run_trials once per block, as np.errstate costs 1.5 us,
    a few percent of a kernel step, if entered here on every step.
    """
    a = np.asarray(a, dtype=float)
    nrm = row_norms(a)
    over = nrm > bound
    if not np.any(over):
        return a, over
    if np.any(np.isinf(nrm)):
        nrm = finite_row_norms(a)
        over = nrm > bound
    scale = np.where(over, bound / np.where(over, nrm, 1.0), 1.0)
    return a * scale[..., None], over


def as_vector(x, d: int | None = None) -> np.ndarray:
    """Coerce to a float64 1-D array; optionally check its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {v.shape}")
    if d is not None and v.shape[0] != d:
        raise ValueError(f"dimension mismatch: expected {d}, got {v.shape[0]}")
    return v
