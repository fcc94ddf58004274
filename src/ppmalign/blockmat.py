"""Symmetric block matrices with circulant blocks.

The lifted input of the alignment problem is an (nm, nm) symmetric matrix L
of n x n blocks of size m x m.  Diagonal blocks are zero.  Off-diagonal
blocks are circulant, and every block depends on its pair only through the
observed residue: L_ij[a, b] = h((y_ij - a + b) mod m) for one length-m
generator h shared by all pairs.  So L factors as (I_n kron G) P_y, where
P_y gathers each neighbour's block cyclically shifted by its residue and
G[a, k] = h(k - a) is a single m x m circulant.

Storage is the edge list (i, j) with i > j, the residues y and h.  A product
costs O(E m r) for the residue-sorted sparse gathers plus O(n m^2 r) for the
circulant, and needs no per-pair arrays.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from .exceptions import RegularizationRequiredError
from .likelihood import NoiseDistribution, PairwiseObservations

FORMS = ("agreement", "loglik", "debiased-loglik")


def _circ_index(m: int) -> np.ndarray:
    """Index matrix turning a first column into a circulant block."""
    r = np.arange(m)
    return (r[:, None] - r[None, :]) % m


def _shift_adjacencies(n: int, m: int, ii, jj, y) -> list:
    """The m (2n, n) CSR adjacencies of the factored product, one per shift.

    Entry (i, j) of adjacency y[e] and entry (n + j, i) of adjacency
    (-y[e]) mod m count the pair e.  Sorting one int64 key per entry by
    (shift, row, column) in place gives the arrays a COO-to-CSR conversion
    would, in canonical order with repeats summed, without its temporaries.
    """
    e = ii.size
    key = np.empty(2 * e, dtype=np.int64)
    fwd, back = key[:e], key[e:]
    np.multiply(y, 2 * n, out=fwd)
    fwd += ii
    fwd *= n
    fwd += jj
    np.negative(y, out=back)
    back %= m
    back *= 2 * n
    back += jj
    back += n
    back *= n
    back += ii
    key.sort()
    counts = None
    if e and np.any(key[1:] == key[:-1]):
        key, counts = np.unique(key, return_counts=True)
    index_dtype = np.int32 if max(n, key.size) < 2**31 else np.int64
    indices = np.empty(key.size, dtype=index_dtype)
    np.remainder(key, n, out=indices, casting="unsafe")
    key //= n  # now shift * 2n + row
    indptr = np.zeros(2 * n * m + 1, dtype=index_dtype)
    np.cumsum(np.bincount(key, minlength=2 * n * m), out=indptr[1:])
    del key, fwd, back
    adj = []
    for s in range(m):
        ptr = indptr[s * 2 * n:(s + 1) * 2 * n + 1]
        lo, hi = ptr[0], ptr[-1]
        # own copies: scipy would copy a slice under half its base anyway
        data = np.ones(hi - lo) if counts is None else counts[lo:hi].astype(float)
        adj.append(sp.csr_matrix((data, indices[lo:hi].copy(), ptr - lo),
                                 shape=(2 * n, n)))
    return adj


class CirculantBlockMatrix:
    """Sparse symmetric matrix of circulant blocks sharing one generator.

    Parameters
    ----------
    n, m : int
        Number of items and labels; the operator is (n m, n m).
    ii, jj : ndarray of int
        Endpoints of the stored pairs, elementwise ii > jj.
    y : ndarray of int
        Residue of each stored pair, in 0..m-1.
    h : ndarray, shape (m,)
        Generator: block (ii[e], jj[e]) has entries h((y[e] - a + b) mod m)
        and its mirror (jj[e], ii[e]) is the transpose.
    debiased : bool
        True when h has had its mean subtracted, so every block sums to 0.
    """

    def __init__(self, n, m, ii, jj, y, h, debiased=False):
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        h = np.asarray(h, dtype=float)
        if ii.shape != jj.shape or y.shape != ii.shape or ii.ndim != 1:
            raise ValueError("edge arrays and residues must be aligned")
        if h.shape != (m,):
            raise ValueError(f"generator must have shape ({m},), got {h.shape}")
        if ii.size and not np.all(ii > jj):
            raise ValueError("blocks must be stored with i > j")
        if ii.size and (ii.max() >= n or jj.min() < 0):
            raise ValueError("block indices out of range")
        if y.size and (y.min() < 0 or y.max() >= m):
            raise ValueError("residues out of range")
        self.n = int(n)
        self.m = int(m)
        self.ii = ii
        self.jj = jj
        self.y = y
        self.h = h
        self.debiased = bool(debiased)
        # L_ij z_j = G roll(z_j, y_ij) and L_ji z_i = G^T roll(z_i, -y_ij), so
        # adjacency s gathers, into rows 0..n-1 (stored orientation) and
        # n..2n-1 (mirrored), every neighbour whose block needs shift s
        self._g = h[_circ_index(m).T]
        self._adj = _shift_adjacencies(self.n, self.m, ii, jj, y)

    @property
    def shape(self):
        return (self.n * self.m, self.n * self.m)

    @property
    def n_edges(self) -> int:
        return self.ii.size

    @functools.cached_property
    def cols(self) -> np.ndarray:
        """First column of every stored block, shape (n_edges, m)."""
        return self.h[(self.y[:, None] - np.arange(self.m)[None, :]) % self.m]

    def _apply(self, zb):
        """Product with blocks stacked in zb of shape (n, m) or (n, m, r)."""
        single = zb.ndim == 2
        if single:
            zb = zb[:, :, None]
        n, m, r = zb.shape
        # labels last, so that the circulant step is two 2-D products rather
        # than n stacked ones; both transposes are free at r = 1
        zt = np.ascontiguousarray(zb.transpose(0, 2, 1))
        acc = np.zeros((2 * n, r * m))
        for s, adj in enumerate(self._adj):
            acc += adj @ np.roll(zt, s, axis=2).reshape(n, r * m)
        acc = acc.reshape(2, n * r, m)
        out = (acc[0] @ self._g.T + acc[1] @ self._g).reshape(n, r, m).transpose(0, 2, 1)
        return out[:, :, 0] if single else out

    def matvec(self, z):
        """Blockwise product: returns w with w_i = sum_j L_ij z_j, shape (n, m)."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n, self.m):
            raise ValueError(f"expected blocks of shape {(self.n, self.m)}, got {z.shape}")
        return self._apply(z)

    def matmat(self, x):
        """Product with an (nm, r) matrix, columns treated as block vectors."""
        x = np.asarray(x, dtype=float)
        nm = self.n * self.m
        if x.ndim != 2 or x.shape[0] != nm:
            raise ValueError(f"expected shape ({nm}, r)")
        zb = x.reshape(self.n, self.m, x.shape[1])
        return self._apply(zb).reshape(nm, x.shape[1])

    def rotate(self, x):
        """Every block of the (nm, r) columns x rolled by one residue."""
        return np.roll(np.reshape(x, (self.n, self.m, -1)), 1, axis=1).reshape(np.shape(x))

    def block(self, a: int, b: int) -> np.ndarray:
        """Dense copy of block (a, b) for an observed pair, either orientation."""
        if a == b:
            raise KeyError("diagonal blocks are identically zero and not stored")
        hi, lo = (a, b) if a > b else (b, a)
        hits = np.flatnonzero((self.ii == hi) & (self.jj == lo))
        if hits.size == 0:
            raise KeyError(f"pair ({a}, {b}) not present")
        blk = self.h[(self.y[hits[0]] - _circ_index(self.m)) % self.m]
        return blk if a > b else blk.T


def build(obs: PairwiseObservations, d: NoiseDistribution | None = None,
          form: str = "agreement") -> CirculantBlockMatrix:
    """Assemble the lifted input matrix from observations.

    Forms
    -----
    agreement
        Entry 1 exactly where the residue difference matches the observed
        y, else 0 (generator h = delta_0).  Parameter-free; the
        matched-filter form for the random-corruption model.
    loglik
        Entry log P0(y - a + b mod m) (h = log P0); requires a strictly
        positive pmf.
    debiased-loglik
        Same with the mean of log P0 removed from h, which is the per-block
        grand mean; it kills the common offset direction and shrinks the
        top eigenvalue bias.
    """
    if form not in FORMS:
        raise ValueError(f"form must be one of {FORMS}, got {form!r}")
    m = obs.m
    if form == "agreement":
        h = np.zeros(m)
        h[0] = 1.0
        return CirculantBlockMatrix(obs.n, m, obs.i, obs.j, obs.y, h)
    if d is None:
        raise ValueError("likelihood forms need a noise distribution")
    if d.m != m:
        raise ValueError("distribution support and observation modulus differ")
    if np.any(d.p0 == 0):
        raise RegularizationRequiredError(int(np.argmin(d.p0)))
    h = np.log(d.p0)
    if form == "debiased-loglik":
        h = h - h.mean()
    return CirculantBlockMatrix(obs.n, m, obs.i, obs.j, obs.y, h,
                                debiased=(form == "debiased-loglik"))
