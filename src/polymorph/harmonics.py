"""Orthogonal decompositions, influences and noise stability.

Every function f in L2(Sigma^n, nu) with nu a full-support product measure
splits as f = sum_S f_S over subsets S of coordinates, where f_S depends
only on the coordinates in S and has zero conditional expectation whenever
any coordinate outside a superset of S is fixed.  The decomposition is
computed through per-coordinate orthonormal bases e_0 = 1, e_1, ...,
e_{s-1} of L2(Sigma, nu_i); for binary alphabets e_1 is pinned to
phi(x) = (x - p) / sqrt(p (1 - p)) so that scalar coefficients match the
usual p-biased Fourier expansion.

Coefficient tensors use the same mixed-radix flat encoding as function
tables (coordinate 0 least significant); for s = 2 the flat index of a
coefficient is exactly the bitmask of its support.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, UnsupportedError, ValidationError
from .funcspace import (FunctionTable, ProductMeasure, _coordinates, _digits,
                        _integer, _kron)

IDENTITY_TOL = 1e-9


def _transform(arr: np.ndarray, mats) -> np.ndarray:
    """Apply mats[k] along coordinate k of every cell of a (cells, s, ..., s)
    tensor laid out like a cell view: the last axis holds coordinate 0.
    Each step multiplies the last axis and rotates it to the front, so after
    k steps every axis is back in place."""
    shape, s = arr.shape, arr.shape[-1]
    for mat in mats:
        arr = (arr.reshape(-1, s) @ mat.T).reshape(shape[0], -1, s).transpose(
            0, 2, 1)
    return arr.reshape(shape)


def _energy(stack: np.ndarray, measures) -> tuple:
    """Transform a (T, s, ..., s) stack laid out like a cell view (the last
    axis holds measures[0]) once, check Parseval per table, and return the
    coefficients (T, s^k), the Efron-Stein energy E (T, 2^k) with E[t, S] =
    ||f_S||^2 for the support bitmask S, and the 0/1 support bits (k, 2^k),
    row i flagging the masks that hold coordinate i.  At s >= 3 each axis
    of the squared coefficients collapses to (constant, non-constant); at
    s = 2 a coefficient index already is its support mask."""
    T, k, s = len(stack), len(measures), measures[0].s
    if not all(m.full_support for m in measures):
        raise ValidationError("decomposition needs a full-support measure")
    coeffs = _transform(stack, [m.forward for m in measures]).reshape(T, -1)
    c2 = coeffs ** 2
    total = stack.reshape(T, -1) ** 2 @ _kron(m.probs for m in measures)
    # phrased so that a NaN fails it
    if not np.all(np.abs(c2.sum(axis=1) - total)
                  <= IDENTITY_TOL * np.maximum(1.0, total)):
        raise ValidationError("Parseval identity failed beyond tolerance")
    for j in range(k) if s > 2 else ():  # the most significant axis first
        X = c2.reshape(-1, s, s ** (k - 1 - j))
        c2 = np.stack((X[:, 0], X[:, 1:].sum(axis=1)), axis=1)
    return coeffs, c2.reshape(T, -1), _digits(k, 2)


class Decomposition:
    """The orthogonal decomposition of one bit or real function table."""

    def __init__(self, f: FunctionTable, nu: ProductMeasure):
        if f.codomain == "sym":
            raise UnsupportedError(
                "numeric harmonics need bit or real codomain; expand sym "
                "functions into indicator tables first")
        if nu.n != f.n or nu.s != f.s:
            raise DomainError("measure does not match the function domain")
        self.n, self.s = f.n, f.s
        self.nu = nu
        arr = f.as_real().reshape((1,) + (self.s,) * self.n)
        coeffs, E, self._bits = _energy(arr, nu.measures)
        self.bases = [m.basis for m in nu.measures]
        self.coeffs, self.norm2_by_mask = coeffs[0], E[0]
        self._levels = self._bits.sum(axis=0, dtype=np.int64)
        self.level_norm2 = np.bincount(self._levels, weights=E[0],
                                       minlength=self.n + 1)
        self.total_norm2 = float(np.dot(nu.weights(), f.as_real() ** 2))

    def _mask_of(self, S) -> int:
        return sum(1 << i for i in set(_coordinates(S, self.n)))

    def norm2(self, S) -> float:
        """Squared norm of the component f_S."""
        return float(self.norm2_by_mask[self._mask_of(S)])

    def coefficient(self, S) -> float:
        """Scalar biased-Fourier coefficient; binary alphabets only."""
        if self.s != 2:
            raise UnsupportedError("scalar coefficients are defined for s = 2")
        return float(self.coeffs[self._mask_of(S)])

    def _inverse(self, coeffs: np.ndarray) -> np.ndarray:
        arr = coeffs.reshape((1,) + (self.s,) * self.n)
        return _transform(arr, [b.T for b in self.bases]).reshape(-1)

    def component(self, S) -> np.ndarray:
        """Dense table of the component f_S (plain real values)."""
        mask = self._mask_of(S)
        masks = (1 << np.arange(self.n)) @ (_digits(self.n, self.s) != 0)
        return self._inverse(np.where(masks == mask, self.coeffs, 0.0))

    def reconstruct(self) -> np.ndarray:
        """Sum of all components; equals the input table up to roundoff."""
        return self._inverse(self.coeffs)

    def _weigh(self, i: int, w: np.ndarray) -> float:
        """Energy of the supports that hold coordinate i, weighted by w."""
        i, = _coordinates([i], self.n)
        return float(self.norm2_by_mask @ (self._bits[i] * w))

    def low_degree_influence(self, i: int, d: int) -> float:
        return self._weigh(i, self._levels <= _integer(d, "degree d"))

    def _powers(self, rho: float) -> np.ndarray:
        """rho^|S| per support mask S, for rho in [-1, 1] (NaN fails)."""
        if not -1.0 <= rho <= 1.0:
            raise DomainError(f"rho must lie in [-1, 1], got {rho!r}")
        return rho ** self._levels

    def noisy_influence(self, i: int, rho: float) -> float:
        return self._weigh(i, self._powers(rho))

    def stability(self, rho: float) -> float:
        return float(self.norm2_by_mask @ self._powers(rho))

    def export_rows(self) -> str:
        """One text row per nonempty-mass subset: S=<1-based list> norm2=<v>.

        Rows are sorted by level, then lexicographically by coordinate list;
        the empty set prints as ``S=``.  Zero-mass subsets are skipped.
        """
        entries = []
        for mask in range(1 << self.n):
            v = float(self.norm2_by_mask[mask])
            if mask != 0 and v == 0.0:
                continue
            coords = tuple(i + 1 for i in range(self.n) if (mask >> i) & 1)
            entries.append((len(coords), coords, v))
        entries.sort(key=lambda t: (t[0], t[1]))
        return "\n".join(
            f"S={','.join(map(str, coords))} norm2={v!r}"
            for _, coords, v in entries) + "\n"


def low_degree_influence(f: FunctionTable, i: int, d: int, nu: ProductMeasure) -> float:
    """Inf_i of the degree-<= d part: sum of ||f_S||^2 over S containing i, |S| <= d."""
    return Decomposition(f, nu).low_degree_influence(i, d)


def noisy_influence(f: FunctionTable, i: int, rho: float, nu: ProductMeasure) -> float:
    """Sum of rho^|S| ||f_S||^2 over S containing i."""
    return Decomposition(f, nu).noisy_influence(i, rho)


def noise_stability(f: FunctionTable, rho: float, nu: ProductMeasure) -> float:
    """Stab_rho[f] = sum_S rho^|S| ||f_S||^2, from the decomposition."""
    return Decomposition(f, nu).stability(rho)
