"""Reference helpers for the tests, kept out of the package.

Each works point by point or axis by axis on a dense table (coordinate 0
least significant, so axis n - 1 - i of values.reshape((s,) * n) holds
coordinate i) and calls nothing in `harmonics`, so the engines are checked
against code they do not share.
"""

import numpy as np

from polymorph import funcspace as fs


def weight_of(nu, x):
    """nu's mass at the point x, one factor per coordinate."""
    w = 1.0
    for m, v in zip(nu.measures, x):
        w *= float(m.probs[v])
    return w


def indicator_table(f, symbol):
    """The bit table of the event f(x) = symbol."""
    return fs.FunctionTable(f.n, f.s, "bit",
                            (f.values == symbol).astype(np.uint8))


def _average(arr, i, n, probs):
    """E over coordinate i of arr, kept as an axis of length 1."""
    return np.expand_dims(np.average(arr, axis=n - 1 - i, weights=probs),
                          n - 1 - i)


def average_out(f, i, nu):
    """f averaged over coordinate i under nu, as a real table that
    ignores x_i."""
    arr = f.as_real().reshape((f.s,) * f.n)
    avg = _average(arr, i, f.n, nu.measures[i].probs)
    out = np.broadcast_to(avg, arr.shape).reshape(-1)
    return fs.FunctionTable(f.n, f.s, "real", np.clip(out, 0.0, 1.0))


def noise_stability_resample(f, rho, nu):
    """Stab_rho[f] = E f(x) f(y), y keeping each coordinate of x w.p. rho
    and resampling it from its marginal otherwise: T_rho f is rho f plus
    (1 - rho) times the average over the coordinate, one coordinate at a
    time."""
    arr = f.as_real().reshape((f.s,) * f.n)
    for i, m in enumerate(nu.measures):
        arr = rho * arr + (1.0 - rho) * _average(arr, i, f.n, m.probs)
    return float(np.dot(nu.weights(), f.as_real() * arr.reshape(-1)))


def _stab_cells_moveaxis(Gt, ops, w_free):
    """Per-cell noise stability by one tensordot per axis, each result
    axis moved back into place: the reference regularity._stab_cells must
    match."""
    X = Gt
    for a, R in enumerate(ops, start=1):
        X = np.moveaxis(np.tensordot(R, X, axes=([1], [a])), 0, a)
    return (Gt * X).reshape(Gt.shape[0], -1) @ w_free


def cell_influence_tables_moveaxis(stack, n, s, J, nu, rho):
    """Reference for regularity._cell_influence_tables, same signature and
    returns, on the moveaxis loop above."""
    G, Js, F = fs._cell_view(stack, n, s, J)
    T, C, _ = G.shape
    w_cells = fs._kron(nu.measures[c].probs for c in Js)
    w_free = fs._kron(nu.measures[c].probs for c in F)
    Gt = G.reshape((T * C,) + (s,) * len(F))
    axis_coords = list(reversed(F))  # tensor axis k+1 holds this coordinate
    ops = [rho * np.eye(s) + (1 - rho) * np.tile(nu.measures[c].probs, (s, 1))
           for c in axis_coords]
    stab = _stab_cells_moveaxis(Gt, ops, w_free)
    infs = np.zeros((T, len(F), C))
    for a, coord in enumerate(axis_coords, start=1):
        H = np.tensordot(nu.measures[coord].probs, Gt, axes=([0], [a]))
        H = np.broadcast_to(np.expand_dims(H, a), Gt.shape)
        infs[:, F.index(coord)] = (
            stab - _stab_cells_moveaxis(H, ops, w_free)).reshape(T, C)
    return w_cells, stab.reshape(T, C), infs, F


def cell_averages_pointwise(values, n, s, J, entries, probs):
    """Reference for funcspace._cell_averages, point by point: each point x
    adds values[..., x] to the cell of its digits at sorted J, weighted by
    probs[x_c] at every star c outside J and dropped when a fixed entry
    outside J differs from x_c."""
    Js = sorted(J)
    out = np.zeros(values.shape[:-1] + (s ** len(Js),))
    for code in range(s ** n):
        x = fs.decode_point(code, n, s)
        w = 1.0
        for c in range(n):
            if c in Js:
                continue
            if entries[c] is None:
                w *= float(probs[x[c]])
            elif x[c] != entries[c]:
                w = 0.0
        out[..., fs.encode_point([x[j] for j in Js], s)] += w * values[..., code]
    return out
