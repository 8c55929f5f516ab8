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
from .funcspace import FunctionTable, Measure, ProductMeasure

IDENTITY_TOL = 1e-9


def _axis_of(coord: int, n: int) -> int:
    # values.reshape((s,)*n) puts coordinate n-1 on axis 0
    return n - 1 - coord


def _apply_along_axis(mat: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(mat, arr, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def orthonormal_basis(measure: Measure) -> np.ndarray:
    """Rows e_0 = 1, e_1, ..., orthonormal under the weighted inner product.

    Binary measures get e_1(x) = (x - p) / sqrt(p (1 - p)) exactly.
    """
    if not measure.full_support:
        raise ValidationError("decomposition needs a full-support measure")
    probs = measure.probs
    s = measure.s
    if s == 2:
        p = float(probs[1])
        sigma = np.sqrt(p * (1.0 - p))
        return np.array([[1.0, 1.0], [(0.0 - p) / sigma, (1.0 - p) / sigma]])
    # complete sqrt(nu) to an orthonormal basis of R^s, then unweight
    root = np.sqrt(probs)
    mat = np.eye(s)
    mat[:, 0] = root
    q, _ = np.linalg.qr(mat)
    if q[0, 0] * root[0] < 0:
        q = -q
    basis = q.T / root[np.newaxis, :]
    basis[0] = 1.0
    return basis


class Decomposition:
    """The orthogonal decomposition of one function table."""

    def __init__(self, f: FunctionTable, nu: ProductMeasure):
        if nu.n != f.n or nu.s != f.s:
            raise DomainError("measure does not match the function domain")
        self.n, self.s = f.n, f.s
        self.nu = nu
        self.bases = [orthonormal_basis(m) for m in nu.measures]
        arr = f.as_real().reshape((self.s,) * self.n)
        for i in range(self.n):
            fwd = self.bases[i] * nu.measures[i].probs[np.newaxis, :]
            arr = _apply_along_axis(fwd, arr, _axis_of(i, self.n))
        self.coeffs = arr.reshape(-1)
        # support bitmask and level of every coefficient index
        idx = np.arange(self.s ** self.n)
        masks = np.zeros(idx.size, dtype=np.int64)
        levels = np.zeros(idx.size, dtype=np.int64)
        for i in range(self.n):
            nonzero = (idx // self.s ** i) % self.s != 0
            masks |= nonzero.astype(np.int64) << i
            levels += nonzero
        self._masks = masks
        c2 = self.coeffs ** 2
        self.norm2_by_mask = np.zeros(1 << self.n)
        np.add.at(self.norm2_by_mask, masks, c2)
        self.level_norm2 = np.bincount(levels, weights=c2, minlength=self.n + 1)
        self.coord_level_norm2 = np.zeros((self.n, self.n + 1))
        for i in range(self.n):
            sel = (masks >> i) & 1 == 1
            self.coord_level_norm2[i] = np.bincount(
                levels[sel], weights=c2[sel], minlength=self.n + 1)
        total = float(np.dot(nu.weights(), f.as_real() ** 2))
        if abs(float(c2.sum()) - total) > IDENTITY_TOL * max(1.0, total):
            raise ValidationError("Parseval identity failed beyond tolerance")
        self.total_norm2 = total

    def _mask_of(self, S) -> int:
        mask = 0
        for i in S:
            if not (0 <= i < self.n):
                raise DomainError(f"coordinate {i} outside range(0, {self.n})")
            mask |= 1 << i
        return mask

    def norm2(self, S) -> float:
        """Squared norm of the component f_S."""
        return float(self.norm2_by_mask[self._mask_of(S)])

    def coefficient(self, S) -> float:
        """Scalar biased-Fourier coefficient; binary alphabets only."""
        if self.s != 2:
            raise UnsupportedError("scalar coefficients are defined for s = 2")
        return float(self.coeffs[self._mask_of(S)])

    def _inverse(self, coeffs: np.ndarray) -> np.ndarray:
        arr = coeffs.reshape((self.s,) * self.n)
        for i in range(self.n):
            arr = _apply_along_axis(self.bases[i].T, arr, _axis_of(i, self.n))
        return arr.reshape(-1)

    def component(self, S) -> np.ndarray:
        """Dense table of the component f_S (plain real values)."""
        mask = self._mask_of(S)
        kept = np.where(self._masks == mask, self.coeffs, 0.0)
        return self._inverse(kept)

    def reconstruct(self) -> np.ndarray:
        """Sum of all components; equals the input table up to roundoff."""
        return self._inverse(self.coeffs)

    def low_degree_influence(self, i: int, d: int) -> float:
        if not (0 <= i < self.n):
            raise DomainError(f"coordinate {i} outside range(0, {self.n})")
        return float(self.coord_level_norm2[i, : d + 1].sum())

    def noisy_influence(self, i: int, rho: float) -> float:
        if not (0 <= i < self.n):
            raise DomainError(f"coordinate {i} outside range(0, {self.n})")
        pows = rho ** np.arange(self.n + 1)
        return float(np.dot(self.coord_level_norm2[i], pows))

    def stability(self, rho: float) -> float:
        pows = rho ** np.arange(self.n + 1)
        return float(np.dot(self.level_norm2, pows))

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


def fourier_expand(f: FunctionTable, p) -> Decomposition:
    """p-biased Fourier expansion of a binary-domain table."""
    if f.s != 2:
        raise UnsupportedError("fourier_expand works on binary domains")
    return Decomposition(f, ProductMeasure.p_biased(p, f.n))


def efron_stein(f: FunctionTable, nu: ProductMeasure) -> Decomposition:
    """Orthogonal decomposition for a general full-support product measure."""
    return Decomposition(f, nu)


def _numeric(f: FunctionTable) -> None:
    if f.codomain == "sym":
        raise UnsupportedError(
            "numeric harmonics need bit or real codomain; expand sym "
            "functions into indicator tables first")


def indicator_table(f: FunctionTable, symbol: int) -> FunctionTable:
    """The bit table of the event f(x) = symbol."""
    if f.codomain == "real":
        raise UnsupportedError("indicators are for discrete codomains")
    return FunctionTable(f.n, f.s, "bit", (f.values == symbol).astype(np.uint8))


def low_degree_influence(f: FunctionTable, i: int, d: int, nu: ProductMeasure) -> float:
    """Inf_i of the degree-<= d part: sum of ||f_S||^2 over S containing i, |S| <= d."""
    _numeric(f)
    return Decomposition(f, nu).low_degree_influence(i, d)


def noisy_influence(f: FunctionTable, i: int, rho: float, nu: ProductMeasure) -> float:
    """Sum of rho^|S| ||f_S||^2 over S containing i."""
    _numeric(f)
    return Decomposition(f, nu).noisy_influence(i, rho)


def noise_stability(f: FunctionTable, rho: float, nu: ProductMeasure) -> float:
    """Stab_rho[f] = sum_S rho^|S| ||f_S||^2, from the decomposition."""
    _numeric(f)
    return Decomposition(f, nu).stability(rho)


def noise_stability_resample(f: FunctionTable, rho: float, nu: ProductMeasure) -> float:
    """Stab_rho[f] = E f(x) f(y), y resampling each coordinate w.p. 1 - rho.

    Independent of the decomposition path; the two must agree to 1e-9.
    """
    _numeric(f)
    if nu.n != f.n or nu.s != f.s:
        raise DomainError("measure does not match the function domain")
    arr = f.as_real().reshape((f.s,) * f.n)
    for i in range(f.n):
        probs = nu.measures[i].probs
        op = rho * np.eye(f.s) + (1.0 - rho) * np.tile(probs, (f.s, 1))
        arr = _apply_along_axis(op, arr, _axis_of(i, f.n))
    return float(np.dot(nu.weights(), f.as_real() * arr.reshape(-1)))


def average_out(f: FunctionTable, i: int, nu: ProductMeasure) -> FunctionTable:
    """Replace f by its average over coordinate i; the result ignores x_i."""
    _numeric(f)
    if nu.n != f.n or nu.s != f.s:
        raise DomainError("measure does not match the function domain")
    if not (0 <= i < f.n):
        raise DomainError(f"coordinate {i} outside range(0, {f.n})")
    arr = f.as_real().reshape((f.s,) * f.n)
    axis = _axis_of(i, f.n)
    probs = nu.measures[i].probs.reshape(
        tuple(f.s if a == axis else 1 for a in range(f.n)))
    avg = (arr * probs).sum(axis=axis, keepdims=True)
    out = np.broadcast_to(avg, arr.shape).reshape(-1)
    return FunctionTable(f.n, f.s, "real", np.clip(out, 0.0, 1.0))
