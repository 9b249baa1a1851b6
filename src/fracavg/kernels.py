"""Special functions and singular-kernel quadrature weights.

Everything fractional in this package reduces to three primitives: the gamma
function, the one-parameter Mittag-Leffler series, and the exact product
integrals of the power-law kernel (t - s)^(beta - 1) over uniform grid cells.
All three are pure functions; values returned here are immutable, and the
weights, each in a form that does not cancel at long lags, come back as one
read-only array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

ML_MAX_TERMS = 10_000
# log_mittag_leffler switches from the series to the large-z asymptote once
# z^(1/beta) reaches this: the asymptote's remainder is then below
# exp(-50) ~ 2e-22 relative, and for beta >= 1/2 the series needs at most
# ~220 terms below it
ML_ASYMPTOTE_W = 50.0


@dataclass(frozen=True)
class FractionalOrder:
    """Order of the memory kernel, restricted to the open interval (1/2, 1).

    Orders at or below 1/2 break the square-integrability of the stochastic
    convolution kernel and are rejected at construction.
    """

    beta: float

    def __post_init__(self):
        beta = float(self.beta)
        if not 0.5 < beta < 1.0:
            raise ValueError(
                f"fractional order must lie in the open interval (0.5, 1); got {beta!r}"
            )
        object.__setattr__(self, "beta", beta)


def as_order(beta) -> FractionalOrder:
    """Coerce a float into a validated FractionalOrder (passes instances through)."""
    if isinstance(beta, FractionalOrder):
        return beta
    return FractionalOrder(float(beta))


def gamma_fn(x: float) -> float:
    """Gamma function on the positive half line.

    Relative error is at the libm level (well below 1e-12 on [0.5, 10],
    which the test suite pins against high-precision reference values).

    Raises
    ------
    ValueError
        If ``x <= 0``.
    """
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"gamma_fn requires a positive argument; got {x!r}")
    return math.gamma(x)


def mittag_leffler(
    beta: float,
    z: float,
    tol: float = 1e-12,
    max_terms: int = ML_MAX_TERMS,
) -> float:
    """One-parameter Mittag-Leffler value sum_k z^k / Gamma(k*beta + 1).

    Direct series evaluation with relative-tolerance truncation: summation
    stops once the current term is below ``tol`` times the partial sum *and*
    the terms have entered their decaying phase.  Only nonnegative arguments
    are supported (that is all the error-bound calculator ever needs), so the
    series has positive terms and the result is monotone nondecreasing in z.

    For ``beta == 1`` this reduces to ``exp(z)``.

    Raises
    ------
    ConvergenceError
        If ``max_terms`` terms do not reach the tolerance.
    ValueError
        If ``beta`` is outside (0, 1], ``z`` is negative, or ``tol <= 0``.
    """
    value, _ = mittag_leffler_terms(beta, z, tol, max_terms)
    return value


def mittag_leffler_terms(
    beta: float,
    z: float,
    tol: float = 1e-12,
    max_terms: int = ML_MAX_TERMS,
) -> tuple[float, int]:
    """Mittag-Leffler value plus the number of series terms consumed."""
    beta, z = _check_mittag_leffler_args(beta, z, tol)
    if z == 0.0:
        return 1.0, 1

    total = 1.0  # k = 0 term
    term = 1.0
    prev = math.inf
    for k in range(1, max_terms + 1):
        # ratio form keeps every intermediate finite even when Gamma(k*beta+1)
        # itself would overflow
        term *= z * math.exp(math.lgamma((k - 1) * beta + 1.0) - math.lgamma(k * beta + 1.0))
        total += term
        if not math.isfinite(total):
            raise ConvergenceError(
                f"Mittag-Leffler series overflowed after {k} terms (beta={beta:g}, z={z:g})"
            )
        if term <= tol * total and term <= prev:
            return total, k + 1
        prev = term
    raise ConvergenceError(
        f"Mittag-Leffler series did not reach tol={tol:g} within {max_terms} terms "
        f"(beta={beta:g}, z={z:g})"
    )


def log_mittag_leffler(
    beta: float,
    z: float,
    tol: float = 1e-12,
    max_terms: int = ML_MAX_TERMS,
) -> tuple[float, int]:
    """Natural log of E_beta(z) plus the number of terms consumed.

    For w = z^(1/beta) below ML_ASYMPTOTE_W this is the log of
    ``mittag_leffler_terms``, whose value there is at most about
    exp(ML_ASYMPTOTE_W)/beta and cannot overflow.  Beyond it the leading term
    of the large-z expansion E_beta(z) = exp(w)/beta - sum_k z^-k/Gamma(1 - k
    beta) is used, whose remainder is below exp(-w) relative; it counts as
    one term.  Same arguments and errors as ``mittag_leffler``; the value
    overflows (ConvergenceError) only where w itself exceeds float64.
    """
    beta, z = _check_mittag_leffler_args(beta, z, tol)
    if z == 0.0:
        return 0.0, 1
    try:
        w = z ** (1.0 / beta)
    except OverflowError:
        raise ConvergenceError(
            f"log of the Mittag-Leffler function overflowed (beta={beta:g}, z={z:g})"
        ) from None
    if w >= ML_ASYMPTOTE_W:
        return w - math.log(beta), 1
    value, n_terms = mittag_leffler_terms(beta, z, tol, max_terms)
    return math.log(value), n_terms


def _check_mittag_leffler_args(beta, z, tol) -> tuple[float, float]:
    beta = float(beta)
    z = float(z)
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"mittag_leffler requires beta in (0, 1]; got {beta!r}")
    if z < 0.0:
        raise ValueError(f"mittag_leffler requires z >= 0; got {z!r}")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive; got {tol!r}")
    return beta, z


def build_kernel_weights(beta, step: float, n: int) -> np.ndarray:
    """Product-integration weights for a length-``n`` uniform grid, read-only.

    ``weights[j]`` is the exact integral of (t_n - s)^(beta - 1) over the
    cell [t_j, t_{j+1}], with t_j = j * step and t_n = n * step:

        weights[j] = ((t_n - t_j)^beta - (t_n - t_{j+1})^beta) / beta
                   = L^beta (1 - (1 - 1/L)^beta) step^beta / beta,  L = n - j.

    The closed-form cell integrals remove all quadrature error from the
    singular kernel.  Each weight is computed in the second form, as
    L^beta (-expm1(beta log1p(-1/L))) step^beta / beta, which does not
    cancel: it is within a few ulps of the exact cell integral at every lag
    L, where the difference of powers loses ~L ulps.  The weights are
    strictly positive, increase with j (the singularity concentrates mass
    near s = t_n) and telescope: their sum is t_n^beta / beta to a few ulps
    regardless of ``n``.
    """
    b = as_order(beta).beta
    step = float(step)
    if step <= 0.0:
        raise ValueError(f"step must be positive; got {step!r}")
    if int(n) != n or n < 1:
        raise ValueError(f"n must be an integer >= 1; got {n!r}")
    lags = np.arange(int(n), 0, -1, dtype=float)  # (t_n - t_j) / step for j = 0..n-1
    with np.errstate(divide="ignore"):  # at lag 1, log1p(-1) = -inf: the cell is step^beta / beta
        weights = lags**b * -np.expm1(b * np.log1p(-1.0 / lags)) * step**b / b
    weights.setflags(write=False)
    return weights
