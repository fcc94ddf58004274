"""Symmetric block matrices with circulant blocks.

The lifted input of the alignment problem is an (nm, nm) symmetric matrix L
of n x n blocks of size m x m.  Diagonal blocks are zero.  Off-diagonal
blocks are circulant, and every block depends on its pair only through the
observed residue: L_ij[a, b] = h((y_ij - a + b) mod m) for one length-m
generator h shared by all pairs.  So L factors as (I_n kron G) P_y, where
P_y gathers each neighbour's block cyclically shifted by its residue and
G[a, k] = h(k - a) is a single m x m circulant.

Storage is h plus m CSR halves, one per shift, that hold one index-dtype
entry per pair; no edge list is kept.  L is symmetric, so the mirrored
gathers use the transposes of the halves, CSC views of the same arrays.
All indices are slices of one array, and all data is one shared array of
ones, as long as the fullest half: about 8 B per pair in all at m = 2 and
int32.  A product costs O(E m r) for the residue-sorted sparse gathers
plus O(n m^2 r) for the circulant; no m x m block is stored per pair.  A
gather takes all r m rolled columns through one multi-vector sparse
product per shift and half, except for one column at m = 2, where scipy's
1-D kernel runs once per shift and label, bit-identically and faster.

The build is one CSC-to-CSR conversion of the observations' stored
pattern: their keys y n + i, in (j, i) order, are its row indices as
they are, and their pointer over j its column pointer.  With the
observations alive it peaks at about 12.6 B per pair at m = 2 and int32
(the keys, the conversion's output and, after its boolean data is
freed, the ones).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .exceptions import RegularizationRequiredError
from .likelihood import NoiseDistribution, PairwiseObservations

FORMS = ("agreement", "loglik", "debiased-loglik")


def _circ_index(m: int) -> np.ndarray:
    """Index matrix turning a first column into a circulant block."""
    r = np.arange(m)
    return (r[:, None] - r[None, :]) % m


def _shift_halves(n: int, m: int, key, colptr) -> list:
    """The m stored halves of the factored product, one n x n CSR per shift.

    Entry (i, j) of half y counts the pair (i, j) with residue y.  The
    observations keep each pair as the key y n + i under a pointer over
    columns j, which is a CSC matrix of m n rows, so one conversion to CSR
    gives every shift's half, n rows each, with the columns of each row
    ascending.  The pairs are distinct, so these are the canonical arrays
    a COO-to-CSR conversion would give, without its sort or temporaries.
    The keys are the CSC indices as they are, uncopied.  The halves'
    indices are slices of the conversion's, and their data is one shared
    array of ones, as long as the fullest half.
    """
    # boolean data: the conversion's own copy of it costs a byte per pair
    stored = sp.csc_matrix((np.ones(key.size, dtype=bool), key, colptr),
                           shape=(m * n, n)).tocsr()
    indptr, indices = stored.indptr, stored.indices
    del stored  # and its boolean data, before the ones are made
    bounds = indptr[::n]
    ones = np.ones(np.diff(bounds).max())
    return [_holding(sp.csr_matrix, n, ones[:hi - lo], indices[lo:hi],
                     indptr[s * n:(s + 1) * n + 1] - lo)
            for s, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]


def _holding(kind, n: int, data, indices, indptr):
    """An n x n matrix of a compressed kind holding the very arrays given.

    scipy's constructor, and so its transpose, copies an array that is a
    slice under half its base; the arrays are set on an empty matrix
    instead, so that no half and no mirror has a copy of its own.
    """
    a = kind((n, n))
    a.data, a.indices, a.indptr = data, indices, indptr
    return a


class CirculantBlockMatrix:
    """Sparse symmetric matrix of circulant blocks sharing one generator.

    Parameters
    ----------
    obs : PairwiseObservations
        The validated edge list: n items, m labels, and the stored pairs
        i > j with residues y; the operator is (n m, n m) and keeps no
        reference to the observations.
    h : ndarray, shape (m,)
        Generator: block (i[e], j[e]) has entries h((y[e] - a + b) mod m)
        and its mirror (j[e], i[e]) is the transpose.
    """

    def __init__(self, obs: PairwiseObservations, h):
        h = np.asarray(h, dtype=float)
        if h.shape != (obs.m,):
            raise ValueError(f"generator must have shape ({obs.m},), got {h.shape}")
        self.n = obs.n
        self.m = obs.m
        self.h = h
        # L_ij z_j = G roll(z_j, y_ij) and L_ji z_i = G^T roll(z_i, -y_ij), so
        # half s gathers every stored-orientation neighbour whose block needs
        # shift s, and the transpose of half (-s) mod m every mirrored one
        self._g = h[_circ_index(self.m).T]
        self._halves = _shift_halves(self.n, self.m, obs.key, obs.colptr)
        self._transposes = [_holding(sp.csc_matrix, self.n, a.data, a.indices, a.indptr)
                            for a in self._halves]

    @property
    def shape(self):
        return (self.n * self.m, self.n * self.m)

    def _apply(self, zb):
        """Product with blocks stacked in zb of shape (n, m) or (n, m, r)."""
        single = zb.ndim == 2
        if single:
            zb = zb[:, :, None]
        n, m, r = zb.shape
        if m == 2 and r == 1:
            acc = self._gather_column(zb[:, :, 0])
        else:
            # labels last, so that the circulant step is two 2-D products
            # rather than n stacked ones; both transposes are free at r = 1
            zt = np.ascontiguousarray(zb.transpose(0, 2, 1))
            acc = np.zeros((2, n, r * m))
            # mirrored gathers in shift order too: taking half s with roll -s
            # adds the same terms in another order, which rounds differently
            for s in range(m):
                zs = np.roll(zt, s, axis=2).reshape(n, r * m)
                acc[0] += self._halves[s] @ zs
                acc[1] += self._transposes[-s % m] @ zs
            acc = acc.reshape(2, n * r, m)
        out = (acc[0] @ self._g.T + acc[1] @ self._g).reshape(n, r, m).transpose(0, 2, 1)
        return out[:, :, 0] if single else out

    def _gather_column(self, z):
        """The gathers of one column z, shape (n, m), as acc of shape (2, n, m).

        On one half, scipy's 1-D kernel takes about a third of the time of
        its multi-vector kernel at two vectors (0.48 against 1.35 ms on a
        sparse-1e4 half), so one call per (shift, label) costs less, and it
        adds the same terms in the same order, so the sums are
        bit-identical.  At larger m the m^2 calls cost more than they save.
        """
        m = self.m
        labels = np.ascontiguousarray(z.T)
        acc = np.zeros((2, m, z.shape[0]))
        for s in range(m):
            for a in range(m):
                acc[0, a] += self._halves[s] @ labels[(a - s) % m]
                acc[1, a] += self._transposes[-s % m] @ labels[(a - s) % m]
        return np.ascontiguousarray(acc.transpose(0, 2, 1))

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
        return CirculantBlockMatrix(obs, h)
    if d is None:
        raise ValueError("likelihood forms need a noise distribution")
    if d.m != m:
        raise ValueError("distribution support and observation modulus differ")
    if np.any(d.p0 == 0):
        raise RegularizationRequiredError(int(np.argmin(d.p0)))
    h = np.log(d.p0)
    if form == "debiased-loglik":
        h = h - h.mean()
    return CirculantBlockMatrix(obs, h)
