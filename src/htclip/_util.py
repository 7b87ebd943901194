"""Small numeric helpers shared across modules."""

from __future__ import annotations

import numpy as np

# a norm below this has a subnormal (or zero) square
_SQRT_TINY = float(np.sqrt(np.finfo(float).tiny))


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis.

    Single implementation used by every module so that batched rows and
    single vectors go through the identical reduction (bit-stable results
    regardless of batch shape).

    The squares are summed in np.add.reduce's order along the last axis.
    An axis of 2 to 7 entries is summed left to right, column by column:
    numpy sums an axis that short left to right too, so the bits are the
    same, but reducing it costs a length-d inner loop per row (12 us
    against 3.6 us at 1,000 x 4).  From 8 entries on numpy sums with 8
    interleaved accumulators, whose order differs, so that axis is
    reduced by np.add.reduce itself.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[-1] if a.ndim else 0
    if not 2 <= d < 8:
        return np.sqrt(np.add.reduce(a * a, axis=-1))
    sq = a * a
    s = sq[..., 0] + sq[..., 1]
    for j in range(2, d):
        s += sq[..., j]
    del sq  # freed before the result is allocated, as on the path above
    return np.sqrt(s)


def finite_row_norms(a: np.ndarray) -> np.ndarray:
    """row_norms for rows whose squared norm may overflow or underflow.

    Rows whose squared norm is a normal float take row_norms's
    arithmetic.  A finite nonzero row whose squared norm overflows, or
    falls below the smallest normal float, takes its norm as
    max|entry| * ||row / max|entry|||, so no overflow warning is raised
    for a norm that is mended here and a tiny row keeps its norm.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        nrm = row_norms(a)
    off = np.isinf(nrm) | (nrm < _SQRT_TINY)
    if np.any(off):
        big = np.max(np.abs(a), axis=-1)
        fix = off & np.isfinite(big) & (big > 0)
        unit = a / np.where(fix, big, 1.0)[..., None]
        nrm = np.where(fix, big * row_norms(unit), nrm)
    return nrm


def clip_rows(a: np.ndarray, bound: float) -> tuple:
    """Scale the rows of a to Euclidean norm at most bound, a float or
    one bound per row.

    Returns (rows, over), where over marks the rows that were scaled;
    rows is a itself when none was.  The clipped oracle, clip_batch and
    ball projection all go through here.  A finite row whose squared
    norm overflows takes its norm from finite_row_norms, so it lands on
    norm bound instead of being scaled to zero.  The squaring still
    raises numpy's overflow warning: clip_batch and project silence it
    per call, run_trials once per batch, as np.errstate costs 1.5 us,
    a few percent of a kernel step, if entered here on every step.
    """
    a = np.asarray(a, dtype=float)
    nrm = row_norms(a)
    over = nrm > bound
    if not over.any():
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
