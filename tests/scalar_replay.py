"""One-chain, one-step-at-a-time replay: the scalar form of the update
functions that ``run_chains`` batches.  It is kept as the reference the
batched replay must match bit for bit, and is not used by the package.
"""

import math

import numpy as np


def sphere_point(v, d: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, float))
    if d == 1:
        return np.array([-1.0 if v[0] < 0.5 else 1.0])
    if d == 2:
        ang = 2.0 * math.pi * v[0]
        return np.array([math.cos(ang), math.sin(ang)])
    if d == 3:
        z = 1.0 - 2.0 * v[0]
        ang = 2.0 * math.pi * v[1]
        r = math.sqrt(max(1.0 - z * z, 0.0))
        return np.array([r * math.cos(ang), r * math.sin(ang), z])
    raise NotImplementedError("scalar reference covers d <= 3")


def ball_point(v, gamma: float, d: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, float))
    radius = gamma * v[-1] ** (1.0 / d)
    return radius * sphere_point(v[:-1], d)


def log_rho(name: str, alpha: float, x: np.ndarray) -> float:
    return 0.0 if name == "uniform" else alpha * float(x[0])


def metropolis_step(x, u, gamma: float, d: int, name: str, alpha: float) -> np.ndarray:
    u = np.atleast_1d(np.asarray(u, float))
    p = d if d >= 2 else 2
    z = ball_point(u[:p], gamma, d)
    y = x + z
    if np.dot(y, y) > 1.0:
        return x
    log_ratio = log_rho(name, alpha, y) - log_rho(name, alpha, x)
    if log_ratio >= 0.0 or u[-1] <= math.exp(log_ratio):
        return y
    return x


def ballwalk_path(points, gamma: float, d: int, name: str, alpha: float) -> np.ndarray:
    p = d if d >= 2 else 2
    x = ball_point(points[0][:p], 1.0, d)
    states = [x]
    for u in points[1:]:
        x = metropolis_step(x, u, gamma, d, name, alpha)
        states.append(x)
    return np.array(states)


def direct_path(points, target) -> np.ndarray:
    return np.array([[target.inv_cdf(u[0])] for u in points])


def lazy_path(points, target, nu, a: float) -> np.ndarray:
    x = np.array([nu.inv_cdf(points[0][0])])
    states = [x]
    for u in points[1:]:
        if u[-1] < a:
            x = np.array([target.inv_cdf(u[0])])
        states.append(x)
    return np.array(states)


def lazy_marginal(i: int, corner, target, nu, a: float) -> float:
    w = (1.0 - a) ** i
    return w * nu.box_mass(corner)[0] + (1.0 - w) * target.box_mass(corner)[0]


def lazy_averaged_marginal(steps, corners, target, nu, a: float) -> tuple[np.ndarray, float]:
    """The lazy kernel's marginal averaged over ``steps``: w nu + (1 - w) pi,
    w the mean of Python's float pow (1 - a) ** i, with error w e_nu + (1 -
    w) e_pi; pi's own masses and error when nu is pi."""
    m_pi, e_pi = target.box_masses(corners)
    if nu is target:
        return m_pi, e_pi
    w = float(np.mean([(1.0 - a) ** i for i in steps]))
    m_nu, e_nu = nu.box_masses(corners)
    return w * m_nu + (1.0 - w) * m_pi, w * e_nu + (1.0 - w) * e_pi
