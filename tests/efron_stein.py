"""An Efron-Stein reference for the tests that uses no orthonormal basis.

For a real table over Sigma^n (coordinate 0 least significant) and a
product measure nu: E[f | x_T] averages the axes of the coordinates outside
T under their marginals, f_S follows from E[f | x_T] by inclusion-exclusion
over the subsets T of S, and ||f_S||^2 = E_nu[f_S^2].  Nothing here calls
`harmonics`, so the decomposition and the per-cell check are checked
against sums they do not share.
"""

import numpy as np


def _popcount(masks):
    return np.array([bin(int(m)).count("1") for m in masks])


def component_norm2(values, nu):
    """||f_S||^2 under nu for every support bitmask S, shape (2^n,)."""
    n, s = nu.n, nu.s
    arr = np.asarray(values, dtype=np.float64).reshape((s,) * n)
    # E[f | x_T] for every bitmask T, dropping one coordinate at a time;
    # axis n - 1 - i holds coordinate i
    cond = {(1 << n) - 1: arr}
    for i in range(n):
        for T, g in list(cond.items()):
            avg = np.average(g, axis=n - 1 - i, weights=nu.measures[i].probs)
            cond[T & ~(1 << i)] = np.expand_dims(avg, n - 1 - i)
    masks = np.arange(1 << n)
    cond = np.stack([np.broadcast_to(cond[T], arr.shape).reshape(-1)
                     for T in masks])
    # f_S = sum over T inside S of (-1)^(|S| - |T|) E[f | x_T]
    inside = (masks[:, None] & masks[None, :]) == masks[None, :]
    sign = (-1.0) ** _popcount(masks)
    comps = (inside * np.outer(sign, sign)) @ cond
    weights = np.ones(1)
    for m in reversed(nu.measures):   # point index order, as the tables
        weights = np.multiply.outer(weights, m.probs).reshape(-1)
    return (comps ** 2) @ weights


def weighted_influences(norm2, n, weight_of_level):
    """Per coordinate i, the sum of weight_of_level(|S|) ||f_S||^2 over the
    masks S that contain i, shape (n,)."""
    masks = np.arange(1 << n)
    w = norm2 * weight_of_level(_popcount(masks))
    return np.array([w[(masks >> i) & 1 == 1].sum() for i in range(n)])


def level_norm2(norm2, n):
    """Sum of ||f_S||^2 over the masks S of each level 0..n."""
    return np.bincount(_popcount(np.arange(1 << n)), weights=norm2,
                       minlength=n + 1)
