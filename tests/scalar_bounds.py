"""Scalar reference calculators that the package does not use: the radical
inverse the vectorized Halton digit loop must match bit for bit, and the
paper's theoretical delta-cover size bound, which the quantile cover and
the corollary bound are checked against.
"""

import math


def radical_inverse(i: int, base: int) -> float:
    """Radical inverse of i >= 1 in the given base."""
    inv = 0.0
    f = 1.0 / base
    while i > 0:
        inv += (i % base) * f
        i //= base
        f /= base
    return inv


def cover_size_bound(delta: float, d: int, epsilon: float) -> int:
    """Theoretical delta-cover size bound
    ``(2 + ceil((2 C_{eps,d} / delta)^{1/(1-eps)}))^d`` with
    ``C_{eps,d} = 4^eps ((3d+1) / (2 e eps log 2))^{(3d+1)/2}``."""
    if not (0.0 < delta <= 1.0) or not (0.0 < epsilon < 1.0):
        raise ValueError("need 0 < delta <= 1 and 0 < epsilon < 1")
    c_eps = 4.0**epsilon * ((3 * d + 1) / (2 * math.e * epsilon * math.log(2.0))) ** (
        (3 * d + 1) / 2
    )
    inner = (2.0 * c_eps / delta) ** (1.0 / (1.0 - epsilon))
    return int(2 + math.ceil(inner)) ** d
