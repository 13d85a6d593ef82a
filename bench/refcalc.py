"""Reference computations the benchmark checks the program's outputs against.

They are written from the documented formulas, not from ``src/``:

* the SplitMix64 driver stream (``x_i = mix64(seed + (i + 1) * golden)``),
  so the benchmark can rebuild the drivers that ``mcqmc run`` consumed;
* scalar replays of the Metropolis ball walk (d = 1, 2) and of the
  lazy-direct kernel;
* the exp-linear density ``exp(alpha * x)`` on [-1, 1]: CDF and quantile;
* the uniform disc: box mass and marginal CDF from the antiderivative
  ``G(x) = (x sqrt(1 - x^2) + asin x) / 2`` of ``sqrt(1 - x^2)``;
* the exp-linear disc ``exp(alpha * x1)`` on the unit disc: box mass by a
  Gauss-Legendre rule after ``x = sin(theta)``, split where the integrand
  has kinks, so every piece is smooth;
* star discrepancy: the Kolmogorov-Smirnov formula for d = 1 and a numpy
  critical-grid scan with 2-D prefix counts for d = 2.

Boxes are open anchored boxes ``(-inf, c)``; corner entries may be +inf.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


# ---------------------------------------------------------------------------
# SplitMix64 driver stream
# ---------------------------------------------------------------------------


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def split_seed(seed: int, label: int) -> int:
    """Seed of the child stream with the given label."""
    return mix64((seed & MASK64) ^ mix64(((2 * label + 1) * GOLDEN) & MASK64))


def uniforms(seed: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms in [0, 1) of the stream ``seed``."""
    i = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & MASK64) + i * np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def driver(seed: int, n: int, s: int) -> np.ndarray:
    return uniforms(seed, n * s).reshape(n, s)


# ---------------------------------------------------------------------------
# Chain replays
# ---------------------------------------------------------------------------


def ballwalk_gamma_star(alpha: float, d: int) -> float:
    """Optimal proposal radius ``min{1/sqrt(d+1), 1/alpha}``."""
    g = 1.0 / math.sqrt(d + 1)
    return min(g, 1.0 / alpha) if alpha > 0 else g


def ballwalk_driver_dim(d: int) -> int:
    """Driver coordinates per step: proposal (d, or 2 for the sign and
    radius when d = 1) plus one acceptance coordinate."""
    return (d if d >= 2 else 2) + 1


def ballwalk_replay(u: np.ndarray, gamma: float, alpha: float, d: int):
    """Metropolis ball walk on the unit ball with density exp(alpha * x_1).

    Row 0 of ``u`` draws x_1 uniformly from the ball; row i proposes
    y = x + z with z uniform in the gamma-ball (direction from the leading
    coordinates, radius gamma * v^(1/d)), rejects y outside the ball, and
    accepts iff v_last <= exp(log rho(y) - log rho(x)).

    Returns (states (n, d), moves, boundary_rejections).
    """
    if d not in (1, 2):
        raise ValueError("scalar replay implemented for d = 1, 2")
    rows = u.tolist()
    p = ballwalk_driver_dim(d) - 1
    inv_d = 1.0 / d

    def step(v, radius):
        r = radius * v[p - 1] ** inv_d
        if d == 1:
            return [r * (-1.0 if v[0] < 0.5 else 1.0)]
        ang = 2.0 * math.pi * v[0]
        return [r * math.cos(ang), r * math.sin(ang)]

    x = step(rows[0], 1.0)
    states = [x]
    moves = boundary = 0
    for v in rows[1:]:
        z = step(v, gamma)
        y = [xi + zi for xi, zi in zip(x, z)]
        if sum(yi * yi for yi in y) > 1.0:
            boundary += 1
        else:
            log_ratio = alpha * y[0] - alpha * x[0]
            if log_ratio >= 0.0 or v[-1] <= math.exp(log_ratio):
                x = y
                moves += 1
        states.append(x)
    return np.array(states), moves, boundary


def lazy_direct_replay(u: np.ndarray, a: float, quantile) -> np.ndarray:
    """Lazy direct kernel on a 1-D target: x_1 = Q(u_0[0]); each step draws
    a fresh Q(u[0]) when u[1] < a and stays otherwise."""
    rows = u.tolist()
    x = float(quantile(rows[0][0]))
    states = [x]
    for v in rows[1:]:
        if v[1] < a:
            x = float(quantile(v[0]))
        states.append(x)
    return np.array(states).reshape(-1, 1)


# ---------------------------------------------------------------------------
# Exp-linear density on [-1, 1]
# ---------------------------------------------------------------------------


def exp_linear_cdf(alpha: float):
    lo, z = math.exp(-alpha), math.exp(alpha) - math.exp(-alpha)

    def cdf(t):
        t = np.clip(np.asarray(t, float), -1.0, 1.0)
        return (np.exp(alpha * t) - lo) / z

    return cdf


def exp_linear_quantile(alpha: float):
    lo, z = math.exp(-alpha), math.exp(alpha) - math.exp(-alpha)

    def quantile(p):
        return np.log(np.asarray(p, float) * z + lo) / alpha

    return quantile


def quantile_cuts(quantile, delta: float) -> np.ndarray:
    """Cuts of a 1-D quantile cover: m = ceil(1 / delta) slabs of equal mass."""
    m = math.ceil(1.0 / delta)
    return np.array([float(quantile(k / m)) for k in range(1, m)])


# ---------------------------------------------------------------------------
# Disc measures
# ---------------------------------------------------------------------------


def _g(x):
    """Antiderivative of sqrt(1 - x^2)."""
    x = np.clip(x, -1.0, 1.0)
    return 0.5 * (x * np.sqrt(1.0 - x * x) + np.arcsin(x))


def uniform_disc_mass(c1, c2):
    """pi((-inf, c1) x (-inf, c2)) for the uniform unit disc, closed form.

    The x2-section at x1 = x has length L(x) = min(c2, h) + h with
    h = sqrt(1 - x^2), clipped at 0; L is h + c2 for |x| < s and 2h or 0
    (as c2 >= 0 or < 0) for |x| >= s, where s = sqrt(1 - c2^2).
    """
    c1, c2 = np.broadcast_arrays(np.asarray(c1, float), np.asarray(c2, float))
    t = np.clip(c1, -1.0, 1.0)
    c = np.clip(c2, -1.0, 1.0)
    s = np.sqrt(1.0 - c * c)
    tin = np.clip(t, -s, s)
    inner = _g(tin) - _g(-s) + c * (tin + s)
    outer = 2.0 * (_g(np.minimum(t, -s)) - _g(-1.0)) + 2.0 * (_g(np.maximum(t, s)) - _g(s))
    total = inner + np.where(c >= 0.0, outer, 0.0)
    return np.clip(total / math.pi, 0.0, 1.0)


def uniform_disc_marginal_cdf(t):
    """pi({x : x_j < t}) for either coordinate of the uniform disc."""
    return np.clip(2.0 / math.pi * (_g(np.asarray(t, float)) - _g(-1.0)), 0.0, 1.0)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def _gl(f, a, b):
    """Gauss-Legendre rule of f over [a, b], vectorized over the leading axes."""
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    theta = mid[..., None] + half[..., None] * _GL_NODES
    return half * np.sum(_GL_WEIGHTS * f(theta), axis=-1)


def _exp_disc_raw(alpha: float, c1, c2):
    """Unnormalized integral of exp(alpha * x1) over the disc below (c1, c2)."""
    c1, c2 = np.broadcast_arrays(np.asarray(c1, float), np.asarray(c2, float))
    top = np.arcsin(np.clip(c1, -1.0, 1.0))
    c = np.clip(c2, -1.0, 1.0)[..., None]
    ts = np.arccos(np.abs(c[..., 0]))  # kink at |x1| = sqrt(1 - c2^2)
    bounds = [np.full_like(top, -0.5 * math.pi), -ts, ts, np.full_like(top, 0.5 * math.pi)]
    total = np.zeros_like(top)
    for k in range(3):
        a = np.minimum(bounds[k], top)
        b = np.minimum(bounds[k + 1], top)
        if k == 1:
            f = lambda th: np.exp(alpha * np.sin(th)) * (np.cos(th) + c) * np.cos(th)
        else:
            f = lambda th: np.exp(alpha * np.sin(th)) * 2.0 * np.cos(th) ** 2 * (c >= 0.0)
        total = total + _gl(f, a, b)
    return total


def exp_linear_disc_mass(alpha: float):
    """Box-mass function of the density exp(alpha * x1) on the unit disc."""
    z = float(_exp_disc_raw(alpha, np.inf, np.inf))

    def mass(c1, c2):
        return np.clip(_exp_disc_raw(alpha, c1, c2) / z, 0.0, 1.0)

    return mass


# ---------------------------------------------------------------------------
# Star discrepancy
# ---------------------------------------------------------------------------


def ks_statistic(x, cdf) -> float:
    """Star discrepancy of 1-D points against a continuous CDF over open
    boxes: max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n)."""
    xs = np.sort(np.asarray(x, float).ravel())
    n = xs.size
    f = np.asarray(cdf(xs), float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def star_discrepancy_grid(points, mass, cells_per_chunk: int = 1 << 16) -> float:
    """Exact star discrepancy of 2-D points over open anchored boxes.

    Per axis the critical corners are every distinct coordinate, counted
    strictly (point excluded) and non-strictly (the limit from above), plus
    +inf.  Counts come from a 2-D prefix sum of the rank occupancy, masses
    from ``mass(c1, c2)``, evaluated a chunk of rows at a time so memory
    stays bounded for large grids.
    """
    pts = np.asarray(points, float)
    n = pts.shape[0]
    vx, rx = np.unique(pts[:, 0], return_inverse=True)
    vy, ry = np.unique(pts[:, 1], return_inverse=True)
    occ = np.zeros((vx.size, vy.size))
    np.add.at(occ, (rx, ry), 1.0)
    below = np.zeros((vx.size + 1, vy.size + 1))
    below[1:, 1:] = occ.cumsum(axis=0).cumsum(axis=1)  # #{rank_x < i, rank_y < j}
    my = np.append(vy, np.inf)
    cols = np.arange(vy.size + 1)
    col_idx = (cols, np.minimum(cols + 1, vy.size))  # strict, non-strict
    mx = np.append(vx, np.inf)
    best = 0.0
    rows_per_chunk = max(1, cells_per_chunk // my.size)
    for start in range(0, mx.size, rows_per_chunk):
        rows = np.arange(start, min(start + rows_per_chunk, mx.size))
        m = mass(mx[rows, None], my[None, :])
        for r in (rows, np.minimum(rows + 1, vx.size)):
            for c in col_idx:
                emp = below[np.ix_(r, c)] / n
                best = max(best, float(np.max(np.abs(emp - m))))
    return best


def critical_corners(points) -> int:
    """Corners an exact scan evaluates: prod_j (2 u_j + 1), u_j the number
    of distinct coordinates on axis j."""
    pts = np.asarray(points, float).reshape(len(points), -1)
    return int(np.prod([2 * np.unique(pts[:, j]).size + 1 for j in range(pts.shape[1])]))
