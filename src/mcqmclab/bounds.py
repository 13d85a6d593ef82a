"""Closed-form calculators for the explicit inequalities and constants used
throughout the laboratory, so experiments can be checked against theory.

All logarithms are natural except the explicit dyadic ``log2`` in the
Beck-type formulas.  Calculators are pure total functions; a discrepancy
bound exceeding 1 is vacuous and is returned as-is rather than clamped.

Every calculator takes keyword arguments only, exactly the quantities it
reads and none with a default: the sample size ``n``, the burn-in length
``n0``, the state dimension ``d``, ``lambda0`` = max{Lambda, 0} and ``beta``,
the absolute L2 operator norm on mean-zero functions, ``nu_norm`` =
||dnu/dpi||_2 and ``nu_norm_centered`` = ||dnu/dpi - 1||_2, ``cover_size`` =
|Gamma_delta| (an int of any size, or inf), the cover's ``delta`` and the
deviation level ``c``.  Each raises ValueError unless lambda0 and beta lie
in [0, 1], n, d and cover_size are at least 1, n0 is at least 0 and the
norms, delta and c are not negative.
"""

from __future__ import annotations

import math

__all__ = [
    "hoeffding_tail",
    "main_discrepancy_bound",
    "corollary_main_bound",
    "tv_average_bound",
    "burn_in_bound",
    "beck_bound",
    "ballwalk_gap_bound",
]


def _check(lambda0: float, counts: tuple, nonnegative: tuple, beta: float = 0.0, n0: int = 0) -> None:
    """ValueError unless lambda0 and beta lie in [0, 1], every count is at
    least 1, n0 at least 0 and every other input at least 0."""
    if not (0.0 <= lambda0 <= 1.0):
        raise ValueError("lambda0 must lie in [0, 1]")
    if not (0.0 <= beta <= 1.0):
        raise ValueError("beta must lie in [0, 1]")
    if min(counts) < 1 or n0 < 0:
        raise ValueError("counts must be positive (n0 nonnegative)")
    if min(nonnegative) < 0:
        raise ValueError("nonnegative inputs required")


def _gap_factor(lambda0: float) -> float:
    """``sqrt((1+L0)/(1-L0))``; ValueError where lambda0 leaves no spectral
    gap."""
    if lambda0 >= 1.0:
        raise ValueError("lambda0 must be < 1")
    return math.sqrt((1.0 + lambda0) / (1.0 - lambda0))


def hoeffding_tail(*, n: int, lambda0: float, nu_norm: float, c: float) -> float:
    """Tail probability bound
    ``2 * nu_norm * exp(-(1-L0)/(1+L0) * c^2 * n)``, capped at 1."""
    _check(lambda0, (n,), (nu_norm, c))
    if c <= 0:
        raise ValueError("c must be positive")
    if lambda0 >= 1.0:
        return 1.0
    rate = (1.0 - lambda0) / (1.0 + lambda0)
    val = 2.0 * nu_norm * math.exp(-rate * c**2 * n)
    return min(val, 1.0)


def main_discrepancy_bound(*, n: int, lambda0: float, nu_norm: float, cover_size: int, delta: float) -> float:
    """Existence bound on the star-discrepancy via a delta-cover:
    ``sqrt((1+L0)/(1-L0)) * sqrt(2 log(|cover|^2 nu_norm)) / sqrt(n) + delta``.

    A negative radicand (possible only for nu_norm < 1 with a trivial cover)
    degenerates to ``delta``.  log|cover|^2 is taken as 2 log|cover|: finite
    for an int cover size of any magnitude, inf for an infinite one.
    """
    _check(lambda0, (n, cover_size), (nu_norm, delta))
    gap_factor = _gap_factor(lambda0)
    radicand = 2.0 * (2.0 * math.log(cover_size) + math.log(nu_norm))
    if radicand < 0.0:
        return delta
    return gap_factor * math.sqrt(radicand) / math.sqrt(n) + delta


def corollary_main_bound(*, n: int, d: int, lambda0: float, nu_norm: float) -> float:
    """Specialized anchored-box bound for n >= 16:
    ``sqrt((1+L0)/(1-L0)) * sqrt(2) (log nu_norm + d log n + 3 d^2 log(5d))^{1/2}
    / sqrt(n) + 8 / n^{3/4}``."""
    _check(lambda0, (n, d), (nu_norm,))
    if n < 16:
        raise ValueError("requires n >= 16")
    gap_factor = _gap_factor(lambda0)
    inner = math.log(nu_norm) + d * math.log(n) + 3 * d**2 * math.log(5 * d)
    return gap_factor * math.sqrt(2.0) * math.sqrt(inner) / math.sqrt(n) + 8.0 / n**0.75


def tv_average_bound(*, n: int, lambda0: float, nu_norm_centered: float) -> float:
    """TV bound for the averaged operator:
    ``(1 - L0^n) / (n (1 - L0)) * nu_norm_centered``."""
    _check(lambda0, (n,), (nu_norm_centered,))
    _gap_factor(lambda0)  # refuses lambda0 = 1
    return (1.0 - lambda0**n) / (n * (1.0 - lambda0)) * nu_norm_centered


def burn_in_bound(
    *, n: int, n0: int, lambda0: float, beta: float, nu_norm_centered: float, cover_size: int, delta: float
) -> tuple[float, float]:
    """Pull-back discrepancy bound with burn-in n0; returns the pair
    (mixed-gap form, simplified form).

    mixed  = sqrt((1+L0)/(1-L0)) sqrt(2 log(|cover|^2 (1 + beta^{n0} cnorm)))/sqrt(n)
             + (1-L0^n) beta^{n0} cnorm / (n (1-L0)) + delta
    simple = 4 sqrt(log(|cover|^2 (1 + beta^{n0} cnorm))) / sqrt(n (1-beta))
             + 2 beta^{n0} cnorm / (n (1-beta)) + delta
    """
    _check(lambda0, (n, cover_size), (nu_norm_centered, delta), beta, n0)
    gap_factor = _gap_factor(lambda0)
    if beta >= 1.0:
        raise ValueError("beta must be < 1")
    damp = beta**n0 * nu_norm_centered
    log_term = 2.0 * math.log(cover_size) + math.log1p(damp)
    mixed = (
        gap_factor * math.sqrt(2.0 * log_term) / math.sqrt(n)
        + (1.0 - lambda0**n) * damp / (n * (1.0 - lambda0))
        + delta
    )
    simple = (
        4.0 * math.sqrt(log_term) / math.sqrt(n * (1.0 - beta))
        + 2.0 * damp / (n * (1.0 - beta))
        + delta
    )
    return mixed, simple


def beck_bound(r: int, d: int) -> float:
    """Existence bound for anchored-box discrepancy of an r-point set:
    ``63 sqrt(d) (2 + log2 r)^{(3d+1)/2} / r``, and inf (vacuous) where the
    power overflows a float."""
    if r < 1:
        raise ValueError("r must be >= 1")
    try:
        power = (2.0 + math.log2(r)) ** ((3 * d + 1) / 2)
    except OverflowError:
        return math.inf
    return 63.0 * math.sqrt(d) * power / r


def ballwalk_gap_bound(alpha: float, d: int) -> tuple[float, float]:
    """Optimal ball-walk radius and spectral-gap lower bound:
    ``gamma* = min{1/sqrt(d+1), 1/alpha}`` and
    ``1 - Lambda >= 3.125e-6 / (d+1) * min{1/(d+1), 1/alpha}``; for the
    uniform density (alpha = 0) ``1/sqrt(d+1)`` and ``3.125e-6 / (d+1)^2``."""
    if alpha < 0 or d < 1:
        raise ValueError("need alpha >= 0 and d >= 1")
    if alpha == 0:
        return 1.0 / math.sqrt(d + 1), 3.125e-6 / (d + 1) ** 2
    gamma_star = min(1.0 / math.sqrt(d + 1), 1.0 / alpha)
    gap = 3.125e-6 / (d + 1) * min(1.0 / (d + 1), 1.0 / alpha)
    return gamma_star, gap

