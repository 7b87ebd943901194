"""Norm clipping, clipping-error decomposition, and bound verification.

The clipped oracle is g^c = min(1, tau/||g||) g.  Against the true mean
f = E[g | F] its error splits into a variance part d^u = g^c - E[g^c | F]
and a bias part d^b = E[g^c | F] - f.  Under declared moment bounds
(p, sigma_s, sigma_l) the following hold, with chi = 1 if
(1 - alpha) tau >= ||f||:

  (1) ||d^u|| <= 2 tau                                  always
  (2) E ||d^u||^2 <= 4 sigma_l^p tau^{2-p}              always
  (3) ||E d^u (d^u)^T|| <= 4 sigma_s^p tau^{2-p} + 4 ||f||^2
  (4) chi: same LHS <= 4 sigma_s^p tau^{2-p}
                      + 4 alpha^{1-p} sigma_l^p ||f||^2 tau^{-p}
  (5) ||d^b|| <= sqrt2 (sigma_l^{p-1} + ||f||^{p-1}) sigma_s tau^{1-p}
               + 2 (sigma_l^p + ||f||^p) ||f|| tau^{-p}
  (6) chi: ||d^b|| <= sigma_s sigma_l^{p-1} tau^{1-p}
                    + alpha^{1-p} sigma_l^p ||f|| tau^{-p}

Verifiers check measured quantities against these bounds, exactly (finite
support) or by Monte Carlo with standard-error margins.
"""

from __future__ import annotations

import contextlib
import math
import mmap
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from ._util import as_vector, clip_rows, finite_row_norms, row_norms
from .noise import (
    GradOracle,
    _draw_ahead,
    _SupportWalk,
    directional_bound_independent,
)
from .schedules import _check_moments, _check_power

__all__ = [
    "BOUND_NAMES",
    "clip",
    "clip_batch",
    "clip_bounds",
    "ClipErrorReport",
    "clip_error_exact",
    "clip_error_mc",
    "operator_norm",
]

BOUND_NAMES = (
    "du_max_norm",
    "du_sq_mean",
    "du_cov_opnorm",
    "du_cov_opnorm_chi",
    "db_norm",
    "db_norm_chi",
)

# largest finite support size the exact verifier will enumerate
EXACT_SUPPORT_CAP = 1_000_000

# the measured quantities of a report, in order
_MEASURED = ("du_max_norm", "du_sq_mean", "du_cov_opnorm", "db_norm")


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not (tau > 0):
        raise ValueError("clipping threshold tau must be positive")
    return tau


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0 and 1.0 / alpha < math.inf):  # bounds take alpha^(1-p)
        raise ValueError("clipping margin alpha must lie in (0, 1), with 1/alpha finite")
    return alpha


def clip_batch(G: np.ndarray, tau: float) -> np.ndarray:
    """Clip rows of G to Euclidean norm at most tau (tau = inf passes through)."""
    tau = _check_tau(tau)
    with np.errstate(over="ignore"):  # squared norms clip_rows mends
        return clip_rows(G, tau)[0]


def clip(g: np.ndarray, tau: float) -> np.ndarray:
    """Clip a single vector; same code path as the batched version."""
    g = np.asarray(g, dtype=float)
    return clip_batch(g[None, :], tau)[0]


def _term(coef: float, tau: float, expo: float) -> float:
    # coef * tau**expo with 0 * inf resolved to 0, and a power past the floats to inf
    if coef == 0.0:
        return 0.0
    try:
        return coef * tau**expo
    except OverflowError:
        return math.inf


def clip_bounds(
    p: float,
    sigma_s: float,
    sigma_l: float,
    f_norm: float,
    tau: float,
    alpha: float,
) -> tuple:
    """The six clipping-error bounds at threshold tau; see module docstring.

    Entries 4 and 6 are only meaningful when chi = 1, i.e. when
    (1 - alpha) tau >= f_norm; they are returned regardless.
    """
    tau = _check_tau(tau)
    p, ss, sl = _check_moments(p, sigma_s, sigma_l)
    _check_power(p, sl)
    alpha = _check_alpha(alpha)
    fn = float(f_norm)
    if fn < 0:
        raise ValueError("need f_norm >= 0")
    b1 = 2.0 * tau
    b2 = _term(4.0 * sl**p, tau, 2.0 - p)
    b3 = _term(4.0 * ss**p, tau, 2.0 - p) + 4.0 * fn * fn
    b4 = _term(4.0 * ss**p, tau, 2.0 - p) + _term(
        4.0 * alpha ** (1.0 - p) * sl**p * fn * fn, tau, -p
    )
    b5 = _term(
        math.sqrt(2.0) * (sl ** (p - 1.0) + fn ** (p - 1.0)) * ss, tau, 1.0 - p
    ) + _term(2.0 * (sl**p + fn**p) * fn, tau, -p)
    b6 = _term(ss * sl ** (p - 1.0), tau, 1.0 - p) + _term(
        alpha ** (1.0 - p) * sl**p * fn, tau, -p
    )
    return b1, b2, b3, b4, b5, b6


@dataclass(frozen=True)
class ClipErrorReport:
    """Measured clipping-error statistics against their theoretical bounds.

    passes[i] is True/False per bound in BOUND_NAMES order, or None for
    the chi-conditional bounds when chi = 0.  margins are the 3-standard-
    error Monte Carlo allowances (all zero for exact enumeration).
    """

    method: str
    tau: float
    alpha: float
    chi: int
    f_norm: float
    p: float
    sigma_s: float
    sigma_l: float
    measured: dict
    bounds: tuple
    margins: dict = field(default_factory=dict)
    n_samples: Optional[int] = None

    @property
    def passes(self) -> tuple:
        m = self.measured
        g = self.margins.get
        out = [
            m["du_max_norm"] <= self.bounds[0],
            m["du_sq_mean"] <= self.bounds[1] + 3.0 * g("du_sq_mean", 0.0),
            m["du_cov_opnorm"] <= self.bounds[2] + 3.0 * g("du_cov_opnorm", 0.0),
            None,
            m["db_norm"] <= self.bounds[4] + 3.0 * g("db_norm", 0.0),
            None,
        ]
        if self.chi:
            out[3] = m["du_cov_opnorm"] <= self.bounds[3] + 3.0 * g("du_cov_opnorm", 0.0)
            out[5] = m["db_norm"] <= self.bounds[5] + 3.0 * g("db_norm", 0.0)
        return tuple(out)

    def ok(self) -> bool:
        return all(p is not False for p in self.passes)

    def to_dict(self) -> dict:
        out = asdict(self)
        out.update(
            bounds=dict(zip(BOUND_NAMES, self.bounds)),
            passes=dict(zip(BOUND_NAMES, self.passes)),
            ok=self.ok(),
        )
        return out


def _report_inputs(oracle: GradOracle, x, grad_true, tau, alpha):
    x = as_vector(x, oracle.d)
    if grad_true is None:
        grad_true = oracle.mean_grad(x)
    grad_true = as_vector(grad_true, oracle.d)
    tau = _check_tau(tau)
    alpha = _check_alpha(alpha)
    fn = float(finite_row_norms(grad_true))
    if not fn * fn < math.inf:  # every bound takes fn^p or fn^2
        raise ValueError(f"the mean gradient's norm f_norm = {fn:g} has no finite square")
    chi = int((1.0 - alpha) * tau >= fn)
    return x, grad_true, tau, alpha, fn, chi


def _report(method, tau, alpha, fn, chi, moments, measured, margins, n_samples):
    """The report of the measured values (in _MEASURED order) against the
    bounds under the moments (p, sigma_s, sigma_l)."""
    p, sigma_s, sigma_l = moments
    return ClipErrorReport(
        method=method,
        tau=tau,
        alpha=alpha,
        chi=chi,
        f_norm=fn,
        p=p,
        sigma_s=sigma_s,
        sigma_l=sigma_l,
        measured=dict(zip(_MEASURED, measured)),
        bounds=clip_bounds(p, sigma_s, sigma_l, fn, tau, alpha),
        margins=margins,
        n_samples=n_samples,
    )


def clip_error_exact(
    oracle: GradOracle,
    x,
    tau: float,
    alpha: float = 0.5,
    grad_true=None,
) -> ClipErrorReport:
    """Zero-tolerance bound verification by finite-support enumeration.

    The moment pair used for the bounds is computed from the same
    enumeration: sigma_l^p exactly, sigma_s^p as the independent-
    coordinate directional bound capped by sigma_l^p (the supported
    discrete oracles all have independent coordinates).

    The support is walked in fixed blocks of rows on every core
    (noise._SupportWalk), with no (states, d) array.  A first pass sums
    each block's means and moments, a second its centred clipped rows'
    largest norm, mean square and second moment.  Each block writes its
    sums to its own slot and the slots are added in block order, a
    window of at most 2 MiB of slots at a time: at d = 12 a claimer
    holds one run of 3^6-row blocks and its temporaries, and at large d
    the held memory is a few d x d matrices, as for one pass over all
    states.  A block's products stay below the sizes at which numpy's
    bundled OpenBLAS, with its default thresholds, splits a product
    across threads.  With that BLAS the report is the same for any core
    count and any OpenBLAS thread count (another BLAS may split its sums
    elsewhere), and a support of one block takes the expressions of one
    pass over all states, bit for bit.
    """
    x, grad_true, tau, alpha, fn, chi = _report_inputs(
        oracle, x, grad_true, tau, alpha
    )
    supp = oracle.product_support(EXACT_SUPPORT_CAP)
    if supp is None:
        raise ValueError("exact verification requires a finitely supported oracle")
    walk = _SupportWalk(oracle, x, *supp, width=oracle.d)
    d = oracle.d
    p = oracle.noise.p

    # pass 1, per block: probs @ G, the probs @ ||noise||^p of sigma_l^p,
    # the probs @ |noise|^p of the coordinate moments, probs @ clip(G).
    # The walk's module threads clip with clip_rows (clip_batch is the
    # traced API) under the error state clip_batch sets.
    def first(a, b, G, probs, out):
        P = probs[:, None, :]
        out[:, :d] = (P @ G)[:, 0]
        noise = G - grad_true
        out[:, d] = (P @ (row_norms(noise) ** p)[..., None])[:, 0, 0]
        np.abs(noise, out=noise)
        noise **= p
        out[:, d + 1 : 2 * d + 1] = (P @ noise)[:, 0]
        with np.errstate(over="ignore"):
            out[:, 2 * d + 1 :] = (P @ clip_rows(G, tau)[0])[:, 0]

    (total,) = walk.sums(first, (3 * d + 1,))
    mean = total[:d]
    if float(row_norms(mean - grad_true)) > 1e-8 * (1.0 + fn):
        raise ValueError("grad_true does not match the oracle mean at x")
    sig_l_p = float(total[d])
    sig_s_p = min(directional_bound_independent(total[d + 1 : 2 * d + 1], p), sig_l_p)
    sigma_l = sig_l_p ** (1.0 / p)
    sigma_s = sig_s_p ** (1.0 / p)
    mean_c = total[2 * d + 1 :]

    # pass 2, per block: the largest ||d^u||, probs @ ||d^u||^2 and the
    # weighted second moment of d^u = clip(G) - mean_c
    peaks = np.empty(walk.blocks)

    def second(a, b, G, probs, sq, cov):
        with np.errstate(over="ignore"):
            du = clip_rows(G, tau)[0]
        du -= mean_c
        du_norms = row_norms(du)
        peaks[a:b] = np.max(du_norms, axis=1)
        sq[:, 0] = (probs[:, None, :] @ (du_norms**2)[..., None])[:, 0, 0]
        np.matmul((du * probs[..., None]).transpose(0, 2, 1), du, out=cov)

    sq, cov = walk.sums(second, (1,), (d, d))
    du_max = float(np.max(peaks))
    du_sq = float(sq[0])
    cov_op = operator_norm(cov)
    db = float(row_norms(mean_c - grad_true))

    return _report(
        "exact-enumeration", tau, alpha, fn, chi, (p, sigma_s, sigma_l),
        (du_max, du_sq, cov_op, db), {}, int(walk.states),
    )


def clip_error_mc(
    oracle: GradOracle,
    x,
    tau: float,
    alpha: float = 0.5,
    n_samples: int = 1_000_000,
    rng: Optional[np.random.Generator] = None,
    grad_true=None,
) -> ClipErrorReport:
    """Monte Carlo bound verification with 3-standard-error margins.

    Two passes of n_samples fresh draws each: pass 1 estimates E[g^c]
    (whose per-coordinate variances give the bias margin), pass 2
    estimates the centered moments around that estimate.  Bounds use the
    oracle's declared (p, sigma_s, sigma_l).

    Pass 1 streams its draws in chunks and frees them before pass 2
    starts.  Pass 2 writes the centred rows d^u into one preallocated
    n * d * 8-byte buffer: the projection margin needs each row's
    projection on the top eigenvector of the full covariance, which is
    known only after the last chunk, so streaming pass 2 would cost a
    third pass of draws.  n * d is capped at 8e7 (a 640 MB buffer).

    The chunks come from noise._draw_ahead, which draws stable and
    Gaussian chunks one ahead on the sampler threads while this thread
    clips and sums the one before; the sums stay here, in chunk order,
    so the report has the bytes of inline draws.  Pass 1's draws hold
    three (chunk, d) buffers at most (two states, one exponential
    scratch), and it drops a chunk's clipped rows before it takes the
    next.  Pass 2 draws each chunk straight into its slice of the
    buffer, which its clipped and centred rows then overwrite, so it
    holds the buffer, the stable scratch and a chunk's gradients and
    clipped rows; while it works on chunk k it writes to a word of
    each page of slice k + 2, so that the draw of that slice, which a
    module thread fills serially, takes no page faults.  After the
    draws the buffer is read into two n-vectors, the squared norms of
    d^u and their projections' squares, and freed before their
    standard deviations are taken: the verifier holds at most the
    buffer, two n-vectors and about one chunk more.
    """
    x, grad_true, tau, alpha, fn, chi = _report_inputs(
        oracle, x, grad_true, tau, alpha
    )
    n = int(n_samples)
    if n < 10_000:
        raise ValueError("Monte Carlo verification needs at least 10^4 samples")
    d = oracle.d
    if n * d > 80_000_000:
        raise ValueError(
            f"n_samples * d = {n * d} exceeds 8e7: pass 2 holds its centred "
            "draws in one n * d * 8-byte buffer"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    chunk = 1 << 15
    starts = range(0, n, chunk)
    sizes = [min(chunk, n - a) for a in starts]
    x_row = x[None, :]
    # the sums may leave the floats only for draws whose squared norms
    # have no finite square, which the check below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        # pass 1: mean of the clipped oracle, with per-coordinate variances
        s1 = np.zeros(d)
        s1_sq = np.zeros(d)
        with contextlib.closing(_draw_ahead(oracle, rng, sizes)) as draws:
            for states in draws:
                G = clip_batch(oracle.grad_rows(x_row, states), tau)
                s1 += np.add.reduce(G, axis=0)
                G *= G
                s1_sq += np.add.reduce(G, axis=0)
                del G  # before the next chunk's rows come
        del draws, states  # the chunk buffers go before du comes
        mean_c = s1 / n
        var_c = np.maximum(s1_sq / n - mean_c**2, 0.0)
        db = float(row_norms(mean_c - grad_true))
        db_margin = math.sqrt(float(np.add.reduce(var_c)) / n)

        # pass 2: centered moments around the pass-1 mean, each chunk
        # drawn into its slice of the one (n, d) buffer and overwritten
        # there by its clipped and centred rows
        du = np.empty((n, d))
        page = mmap.PAGESIZE // du.itemsize
        outs = [du[a : a + m] for a, m in zip(starts, sizes)]
        with contextlib.closing(_draw_ahead(oracle, rng, sizes, outs)) as draws:
            for k, states in enumerate(draws):
                if k + 2 < len(outs):  # fault in the slice drawn next but one
                    outs[k + 2].reshape(-1)[::page] = 0.0
                np.subtract(
                    clip_batch(oracle.grad_rows(x_row, states), tau), mean_c,
                    out=outs[k],
                )
        del draws, states, outs
        # squared row norms after the last draw, in the same row slices
        du_norms_sq = np.empty(n)
        for a, m in zip(starts, sizes):
            rows = du[a : a + m]
            du_norms_sq[a : a + m] = np.add.reduce(rows * rows, axis=-1)
        del rows
    peak = float(np.max(du_norms_sq))
    if not 4.0 * n * peak * peak < math.inf:  # the margins sum n such squares
        raise ValueError(f"the centred clipped draws' largest squared norm {peak:g} "
                         f"is too large to sum n_samples = {n} of its squares")
    du_max = math.sqrt(peak)
    du_sq = float(np.mean(du_norms_sq))
    cov = du.T @ du / n
    cov_op, top = _sym_eig_max(cov)
    proj_sq = du @ top
    del du  # the standard deviations below each take an n-vector
    proj_sq *= proj_sq
    du_sq_margin = float(np.std(du_norms_sq, ddof=1)) / math.sqrt(n)
    del du_norms_sq
    cov_margin = float(np.std(proj_sq, ddof=1)) / math.sqrt(n)

    spec = oracle.noise
    return _report(
        "monte-carlo", tau, alpha, fn, chi, (spec.p, spec.sigma_s, spec.sigma_l),
        (du_max, du_sq, float(cov_op), db),
        dict(zip(_MEASURED[1:], (du_sq_margin, cov_margin, db_margin))), n,
    )


# ---------------------------------------------------------------------------
# symmetric operator norm


def _sym_eig_max(A: np.ndarray):
    """(largest |eigenvalue|, a corresponding unit vector) of symmetric A."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("operator norm requires a square matrix")
    if A.shape[0] == 0:
        raise ValueError("operator norm requires a nonempty matrix")
    if float(np.max(np.abs(A - A.T))) > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    vals, vecs = np.linalg.eigh(0.5 * (A + A.T))
    k = int(np.argmax(np.abs(vals)))
    return abs(float(vals[k])), vecs[:, k]


def operator_norm(A: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix.

    Raises if A is not symmetric within 1e-10.
    """
    val, _ = _sym_eig_max(A)
    return val
