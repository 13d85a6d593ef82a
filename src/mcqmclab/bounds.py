"""Closed-form calculators for the explicit inequalities and constants used
throughout the laboratory, so experiments can be checked against theory.

All logarithms are natural except the explicit dyadic ``log2`` in the
Beck-type formulas.  Calculators are pure total functions; a discrepancy
bound exceeding 1 is "vacuous" (see :func:`is_vacuous`) and is returned
as-is rather than clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BoundInputs",
    "hoeffding_tail",
    "main_discrepancy_bound",
    "corollary_main_bound",
    "tv_average_bound",
    "spectral_tv_bound",
    "burn_in_bound",
    "beck_bound",
    "ballwalk_gap_bound",
    "theorem59_error_bound",
    "is_vacuous",
]


@dataclass(frozen=True)
class BoundInputs:
    """Bundle of the quantities the calculators consume.

    Only the fields a given calculator reads need to be meaningful.
    """

    n: int = 1                      # sample size
    n0: int = 0                     # burn-in length
    d: int = 1                      # state dimension
    lambda0: float = 0.0            # max{Lambda, 0}, spectral parameter in [0,1]
    beta: float = 0.0               # absolute L2 operator norm on mean-zero functions
    nu_norm: float = 1.0            # ||dnu/dpi||_2
    nu_norm_centered: float = 0.0   # ||dnu/dpi - 1||_2
    cover_size: int = 1             # |Gamma_delta|
    delta: float = 0.0
    c: float = 0.0                  # deviation level

    def __post_init__(self):
        if not (0.0 <= self.lambda0 <= 1.0):
            raise ValueError("lambda0 must lie in [0, 1]")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")
        if min(self.n, self.d, self.cover_size) < 1 or self.n0 < 0:
            raise ValueError("counts must be positive (n0 nonnegative)")
        if min(self.nu_norm, self.nu_norm_centered, self.delta, self.c) < 0:
            raise ValueError("nonnegative inputs required")


def is_vacuous(bound: float) -> bool:
    """True when a discrepancy/probability bound says nothing (exceeds 1)."""
    return bound > 1.0


def hoeffding_tail(inp: BoundInputs) -> float:
    """Tail probability bound
    ``2 * nu_norm * exp(-(1-L0)/(1+L0) * c^2 * n)``, capped at 1."""
    if inp.c <= 0:
        raise ValueError("c must be positive")
    if inp.lambda0 >= 1.0:
        return 1.0
    rate = (1.0 - inp.lambda0) / (1.0 + inp.lambda0)
    val = 2.0 * inp.nu_norm * math.exp(-rate * inp.c**2 * inp.n)
    return min(val, 1.0)


def main_discrepancy_bound(inp: BoundInputs) -> float:
    """Existence bound on the star-discrepancy via a delta-cover:
    ``sqrt((1+L0)/(1-L0)) * sqrt(2 log(|cover|^2 nu_norm)) / sqrt(n) + delta``.

    A negative radicand (possible only for nu_norm < 1 with a trivial cover)
    degenerates to ``delta``.
    """
    if inp.lambda0 >= 1.0:
        raise ValueError("lambda0 must be < 1")
    radicand = 2.0 * math.log(inp.cover_size**2 * inp.nu_norm)
    if radicand < 0.0:
        return inp.delta
    gap_factor = math.sqrt((1.0 + inp.lambda0) / (1.0 - inp.lambda0))
    return gap_factor * math.sqrt(radicand) / math.sqrt(inp.n) + inp.delta


def corollary_main_bound(inp: BoundInputs) -> float:
    """Specialized anchored-box bound for n >= 16:
    ``sqrt((1+L0)/(1-L0)) * sqrt(2) (log nu_norm + d log n + 3 d^2 log(5d))^{1/2}
    / sqrt(n) + 8 / n^{3/4}``."""
    if inp.n < 16:
        raise ValueError("requires n >= 16")
    if inp.lambda0 >= 1.0:
        raise ValueError("lambda0 must be < 1")
    gap_factor = math.sqrt((1.0 + inp.lambda0) / (1.0 - inp.lambda0))
    inner = math.log(inp.nu_norm) + inp.d * math.log(inp.n) + 3 * inp.d**2 * math.log(5 * inp.d)
    return gap_factor * math.sqrt(2.0) * math.sqrt(inner) / math.sqrt(inp.n) + 8.0 / inp.n**0.75


def tv_average_bound(inp: BoundInputs) -> float:
    """TV bound for the averaged operator:
    ``(1 - L0^n) / (n (1 - L0)) * nu_norm_centered``."""
    if inp.lambda0 >= 1.0:
        raise ValueError("lambda0 must be < 1")
    return (1.0 - inp.lambda0**inp.n) / (inp.n * (1.0 - inp.lambda0)) * inp.nu_norm_centered


def spectral_tv_bound(inp: BoundInputs) -> float:
    """TV bound under an absolute spectral gap: ``beta^n * nu_norm_centered``."""
    if inp.beta >= 1.0:
        raise ValueError("beta must be < 1")
    return inp.beta**inp.n * inp.nu_norm_centered


def burn_in_bound(inp: BoundInputs) -> tuple[float, float]:
    """Pull-back discrepancy bound with burn-in n0; returns the pair
    (mixed-gap form, simplified form).

    mixed  = sqrt((1+L0)/(1-L0)) sqrt(2 log(|cover|^2 (1 + beta^{n0} cnorm)))/sqrt(n)
             + (1-L0^n) beta^{n0} cnorm / (n (1-L0)) + delta
    simple = 4 sqrt(log(|cover|^2 (1 + beta^{n0} cnorm))) / sqrt(n (1-beta))
             + 2 beta^{n0} cnorm / (n (1-beta)) + delta
    """
    if inp.beta >= 1.0:
        raise ValueError("beta must be < 1")
    cnorm = inp.nu_norm_centered
    damp = inp.beta**inp.n0 * cnorm
    log_term = math.log(inp.cover_size**2 * (1.0 + damp))
    gap_factor = math.sqrt((1.0 + inp.lambda0) / (1.0 - inp.lambda0))
    mixed = (
        gap_factor * math.sqrt(2.0 * log_term) / math.sqrt(inp.n)
        + (1.0 - inp.lambda0**inp.n) * damp / (inp.n * (1.0 - inp.lambda0))
        + inp.delta
    )
    simple = (
        4.0 * math.sqrt(log_term) / math.sqrt(inp.n * (1.0 - inp.beta))
        + 2.0 * damp / (inp.n * (1.0 - inp.beta))
        + inp.delta
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


def theorem59_error_bound(alpha: float, d: int, n: int) -> float:
    """Worst-case integration error for the Metropolis ball walk on
    log-concave, log-Lipschitz densities:
    ``5000 sqrt(d) max{sqrt(2d), sqrt(alpha)}
      (alpha + d log n + 3 d^2 log(5d))^{1/2} / sqrt(n) + 8/n^{3/4}``.

    Uses ||dnu/dpi||_2 <= exp(alpha) internally.
    """
    if n < 16:
        raise ValueError("requires n >= 16")
    inner = alpha + d * math.log(n) + 3 * d**2 * math.log(5 * d)
    return (
        5000.0
        * math.sqrt(d)
        * max(math.sqrt(2 * d), math.sqrt(alpha))
        * math.sqrt(inner)
        / math.sqrt(n)
        + 8.0 / n**0.75
    )
