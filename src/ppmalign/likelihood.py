"""Noise models over Z_m, divergences, observation sampling, recovery thresholds.

The statistical model: n items carry hidden labels x_i in {1, ..., m}; for
each observed pair we see y_ij = x_i - x_j + eta_ij (mod m) where eta_ij is
drawn from a base distribution P0 on {0, ..., m-1} and eta_ji = -eta_ij.
Shifted versions P_l(y) = P0(y - l mod m) are the conditional laws of y
given a relative offset l, and the Kullback-Leibler divergences between P0
and its shifts drive everything: the information limits, the expected input
matrix, and the choice of regularization.

Divergences use natural log.  KL is +inf (a value, not an error) when the
first argument puts mass where the second has none.

Observed pairs are kept as one index-dtype key y n + i each, under a
pointer over j, which is the operator's CSC input as it is.  The sampler
works through the pairs in chunks of ``_CHUNK`` (2^16) pairs, so beside
the keys it holds O(n + _CHUNK) memory; the runs of j a chunk spans are
the pointer over j clipped to the chunk.  Chunking keeps every output
byte for byte, as each draw reads the stream in order, and the chunks
read it in the order whole-array draws would: every geometric block is
drawn to its full size, surplus past the last pair included, before any
noise.

The draws are numpy's, value for value, at less cost per draw.  Below
p_obs = 1/3 a geometric gap is ceil(E / -log1p(-p_obs)) of a standard
exponential E, as ``Generator.geometric`` computes it, from one fill per
chunk; from 1/3 up, where numpy searches instead, its own call is kept.
A residue's noise counts the first m - 1 cdf entries at or below a
uniform, one comparison pass per entry: O(m) per pair, which beats a
binary search up to m = 150 and loses from m = 200 (n = 1000, p_obs = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PROB_SUM_TOL = 1e-12
_INT64 = np.iinfo(np.int64)
# the largest float64 below 2^63, the largest that casts into int64
_BELOW_2_63 = float(np.nextafter(2.0**63, 0))
# pairs the samplers draw, unrank and give their noise at a time
_CHUNK = 2**16


@dataclass(frozen=True, eq=False)
class NoiseDistribution:
    """A pmf P0 over residues {0, ..., m-1}."""

    p0: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p0, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("pmf must be 1-d with m >= 2")
        if np.any(p < 0):
            raise ValueError("pmf entries must be nonnegative")
        # before the sum, which entries near the float maximum would overflow
        if np.any(p > 1):
            raise ValueError("pmf entries must not exceed 1")
        if not abs(p.sum() - 1.0) <= PROB_SUM_TOL:
            raise ValueError(f"pmf must sum to 1, got {float(p.sum())!r}")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "p0", p)

    @property
    def m(self) -> int:
        return self.p0.size

    @property
    def min_mass(self) -> float:
        return float(self.p0.min())


def random_corruption(pi0: float, m: int) -> NoiseDistribution:
    """Noise that is 0 with probability pi0 and uniform otherwise.

    P0(0) = pi0 + (1 - pi0)/m and P0(y) = (1 - pi0)/m for y != 0.
    """
    if not 0.0 <= pi0 <= 1.0:
        raise ValueError(f"pi0 must lie in [0, 1], got {pi0}")
    if m < 2:
        raise ValueError("m must be at least 2")
    p = np.full(m, (1.0 - pi0) / m)
    p[0] += pi0
    return NoiseDistribution(p)


def modified_gaussian(sigma: float, m: int) -> NoiseDistribution:
    """Discrete Gaussian-shaped noise on {-(m-1)/2, ..., (m-1)/2}, m odd.

    P{eta = z} is proportional to exp(-z^2 / (2 sigma^2)); residues are the
    values mod m, so the pmf is symmetric about 0.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"modified Gaussian noise needs odd m >= 3, got m={m}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    half = (m - 1) // 2
    z = np.arange(-half, half + 1)
    # from (z / sigma)^2, as sigma^2 overflows or underflows at the ends of
    # the float range; z / sigma is capped at 40, past which the weight is 0
    t = np.abs(z) / np.maximum(sigma, np.abs(z) / 40.0)
    w = np.exp(-0.5 * t * t)
    p = np.zeros(m)
    p[z % m] = w / w.sum()
    return NoiseDistribution(p)


def regularize(d: NoiseDistribution, varsigma: float = 0.01) -> NoiseDistribution:
    """Mix with the uniform distribution: (1 - varsigma) P0 + varsigma Unif.

    Removes zero-probability residues so log-likelihoods stay finite while
    perturbing the model by at most varsigma in total variation.
    """
    if not 0.0 < varsigma < 1.0:
        raise ValueError("varsigma must lie in (0, 1)")
    return NoiseDistribution((1.0 - varsigma) * d.p0 + varsigma / d.m)


def kl_min_max(d: NoiseDistribution) -> tuple[float, float]:
    """Min and max of KL(P0 || P_l) over nonzero offsets l = 1, ..., m-1.

    The minimum is the effective signal strength of the model; recovery is
    possible roughly when it clears log(n)/(n p_obs) scaled by a constant.
    """
    mask = d.p0 > 0
    p = d.p0[mask]
    vals = []
    for l in range(1, d.m):
        q = np.roll(d.p0, l)[mask]
        vals.append(math.inf if np.any(q == 0) else float(np.sum(p * np.log(p / q))))
    return (min(vals), max(vals))


def threshold_random_corruption(n: int, m: int, p_obs: float, constant: float = 1.01) -> float:
    """Critical pi0 scale 2 sqrt(constant * ln n / (m n p_obs)).

    constant = 1.01 (default) gives the sufficient side: above this value
    exact recovery succeeds with high probability for large n.  The
    converse holds with constant = 0.99: below that, every method fails.
    """
    if n < 2 or m < 2 or not 0 < p_obs <= 1:
        raise ValueError("need n >= 2, m >= 2, 0 < p_obs <= 1")
    return 2.0 * math.sqrt(constant * math.log(n) / (m * n * p_obs))


def threshold_kl(n: int, p_obs: float) -> tuple[float, float]:
    """(sufficient, necessary) KL_min levels: (4.01, 3.99) * ln n / (n p_obs)."""
    if n < 2 or not 0 < p_obs <= 1:
        raise ValueError("need n >= 2 and 0 < p_obs <= 1")
    base = math.log(n) / (n * p_obs)
    return (4.01 * base, 3.99 * base)


@dataclass(init=False, frozen=True, eq=False)
class PairwiseObservations:
    """Observed pairwise differences on a random subset of pairs.

    Each sampled unordered pair is stored once with i > j; the mirrored
    reading is y_ji = (m - y_ij) mod m.  A pair is kept as one integer
    ``key = y n + i`` in the index dtype of ``_edge_list``, the keys in
    (j, i) order, beside the (n + 1) pointer ``colptr``: the keys of
    column j are ``key[colptr[j]:colptr[j + 1]]``.  That is the CSC
    pattern of rows y n + i and columns j from which the operator is
    built.  ``i``, ``j`` and ``y`` are derived on access, as aligned
    arrays in the index dtype; indices are 0-based, residues lie in
    {0, ..., m-1}.  The constructor takes them in any order and checks
    them once.
    """

    n: int
    m: int
    key: np.ndarray
    colptr: np.ndarray

    def __init__(self, n: int, m: int, i, j, y):
        *columns, order = _edge_list(n, m, i, j, y)
        i, j, y = (c if order is None else c[order] for c in columns)
        # every value is in range, so y n + i < n m fits the index dtype
        key = y * n
        key += i
        self._store(n, m, key, np.searchsorted(j, np.arange(n + 1, dtype=j.dtype)))

    @classmethod
    def _from_pattern(cls, n: int, m: int, key: np.ndarray, colptr: np.ndarray):
        """Observations already in the stored form, taken unchecked and uncopied."""
        obs = cls.__new__(cls)
        obs._store(n, m, key, colptr)
        return obs

    def _store(self, n, m, key, colptr):
        for name, value in zip(("n", "m", "key", "colptr"), (n, m, key, colptr)):
            object.__setattr__(self, name, value)

    @property
    def i(self) -> np.ndarray:
        return self.key % self.n

    @property
    def j(self) -> np.ndarray:
        return np.repeat(np.arange(self.n, dtype=self.key.dtype), np.diff(self.colptr))

    @property
    def y(self) -> np.ndarray:
        return self.key // self.n

    @property
    def n_edges(self) -> int:
        return self.key.size

    def to_csv(self) -> str:
        return _csv_text("i,j,y", zip(self.i, self.j, self.y))

    @classmethod
    def from_csv(cls, text: str, n: int, m: int):
        rows = _csv_records(text, "i,j,y", (int, int, int))
        i, j, y = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        return cls(n=n, m=m, i=i, j=j, y=y)


def _index_dtype(n: int, m: int):
    """int32 when every index into the (n m)-long lifted vector fits it, else int64."""
    return np.int32 if n * m < 2**31 else np.int64


def _edge_list(n: int, m: int, *columns):
    """Validate aligned edge columns i, j, y... and return them in the index dtype.

    Needs n >= 1 items and m >= 1 labels.  Every column is a 1-d integer
    array (lists are accepted) of one length; input already in
    ``_index_dtype(n, m)`` is not copied.  The first two columns are the
    endpoints of unordered pairs, each stored once with i > j and both ends
    in 0..n-1; any further columns are residues in 0..m-1.  The last value
    returned is the permutation that sorts the pairs by (j, i), or None
    when they come sorted, as both samplers emit them; the repeat test is
    then linear and only other inputs are sorted.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 items and m >= 1 features")
    columns = [np.asarray(c) for c in columns]
    if columns[0].ndim != 1 or any(c.shape != columns[0].shape for c in columns):
        raise ValueError("edge arrays must be aligned 1-d arrays")
    if columns[0].size and any(c.dtype.kind not in "iu" for c in columns):
        raise ValueError("edge arrays must hold integers")
    i, j, *rest = columns
    if i.size and not np.all(i > j):
        raise ValueError("edges must be stored with i > j")
    if i.size and (i.max() >= n or j.min() < 0):
        raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
    if any(y.size and (y.min() < 0 or y.max() >= m) for y in rest):
        raise ValueError("residues out of range")
    # every value is in range now, so the cast is exact
    dtype = _index_dtype(n, m)
    i, j, *rest = (c.astype(dtype, copy=False) for c in columns)
    order = None
    if not _rising(i, j):
        order = np.lexsort((i, j))
        if not _rising(i[order], j[order]):
            raise ValueError("duplicate pair in observations")
    return (i, j, *rest, order)


def _rising(i, j) -> bool:
    """Whether the pairs (j, i) rise strictly in lexicographic order."""
    later, earlier = j[1:], j[:-1]
    step = later > earlier
    step |= (later == earlier) & (i[1:] > i[:-1])
    return bool(step.all())


def _csv_text(header: str, records) -> str:
    """The headed CSV text ``_csv_records`` reads: one line per record, its
    fields joined by commas, every line ending in LF."""
    return "".join(f"{line}\n" for line in (header, *(",".join(map(str, r)) for r in records)))


def _csv_records(text: str, header: str, kinds) -> list:
    """The records of a headed CSV text, field k converted by kinds[k].

    Blank lines are skipped.  A missing header, a wrong field count, an
    unconvertible field or an integer beyond int64 raises ValueError naming
    the line.
    """
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1].strip() != header:
        raise ValueError(f"expected header {header!r}")
    records = []
    for lineno, ln in lines[1:]:
        fields = ln.split(",")
        try:
            if len(fields) != len(kinds):
                raise ValueError
            record = [kind(f) for kind, f in zip(kinds, fields)]
            if any(kind is int and not _INT64.min <= v <= _INT64.max
                   for kind, v in zip(kinds, record)):
                raise ValueError
            records.append(record)
        except ValueError:
            raise ValueError(f"line {lineno}: expected {header}, got {ln!r}") from None
    return records


def sample_observations(x, d: NoiseDistribution, p_obs: float, seed: int) -> PairwiseObservations:
    """Draw noisy pairwise differences y_ij = x_i - x_j + eta (mod m).

    Each unordered pair enters independently with probability p_obs.  The
    kept pairs are found by geometric skips over the pairs in lexicographic
    order, so time and memory are O(n + E) in the number E of kept pairs,
    not O(n^2), and a given seed always yields the same observation set.
    At p_obs = 1 every pair is kept and the noise draws start where one
    uniform per pair would leave the stream, so full-observation instances
    match a per-pair sampler bit for bit; below 1 the streams differ.

    Two passes over the pairs, each in chunks of ``_CHUNK``, keep the
    memory at about one index-dtype integer per pair: the first writes
    each pair's i into its key and counts the pairs per j, the second
    draws eta, subtracts x_j once per run of j (colptr clipped to the
    chunk gives the runs), wraps the sum into 0..m-1 by sign masks and
    adds y n to the keys.  The gaps of the first
    pass are ``Generator.geometric``'s, from one exponential fill per
    chunk below p_obs = 1/3 and numpy's search from 1/3 up.  eta counts
    the first m - 1 cdf entries at or below one uniform per pair, the
    value a search with side="right" gives, at O(m) per pair; that beats
    the search up to m = 150 and loses from m = 200 (n = 1000, p_obs = 1),
    where one operator product costs O(E m) anyway.  The exponentials
    and the uniforms share one float64 chunk buffer.  The stream is read
    in the order whole-array draws would read it, so the chunk size does
    not change the output.

    Parameters
    ----------
    x : array_like of int, shape (n,)
        Hidden labels in {1, ..., m}.
    d : NoiseDistribution
        Law of the additive noise eta.
    p_obs : float in (0, 1]
        Pair sampling rate; any other value raises ValueError.
    seed : int
        Seed for the pair selection and the noise draws.
    """
    x = np.asarray(x)
    m = d.m
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least two items")
    if x.dtype.kind not in "iu":
        raise ValueError("labels must be integers")
    if np.any(x < 1) or np.any(x > m):
        raise ValueError(f"labels must lie in 1..{m}")
    n = x.size
    dtype = _index_dtype(n, m)
    x = x.astype(dtype, copy=False)
    rng = np.random.default_rng(seed)
    # one float64 chunk for the exponentials of the gaps and the uniforms of the noise
    buf = np.empty(min(_CHUNK, n * (n - 1) // 2))
    key, colptr = _pair_pattern(n, p_obs, rng, dtype, buf)
    cdf = np.cumsum(d.p0)[:-1]
    sign = 8 * key.itemsize - 1
    for lo in range(0, key.size, _CHUNK):
        i = key[lo:lo + _CHUNK]
        u = rng.random(out=buf[:i.size])
        # the runs of j over positions lo..hi - 1 are colptr's, clipped there
        hi = lo + i.size
        first = int(np.searchsorted(colptr, lo, side="right")) - 1
        end = int(np.searchsorted(colptr, hi - 1, side="right"))
        counts = np.diff(np.clip(colptr[first:end + 1], lo, hi))
        # y_ij = (x_i - x_j + eta) mod m, stored with i > j
        y = x[i]
        y -= np.repeat(x[first:first + counts.size], counts)
        # eta counts the first m - 1 cdf entries at or below u, as a search
        # with side="right" would, so it never passes m - 1
        for c in cdf:
            y += u >= c
        # the sum lies in [-(m - 1), 2m - 2], at most one m from its residue:
        # add m to the negatives, then take m off all and add it back to the
        # negatives; y >> sign is all ones on a negative and zero elsewhere
        y += (y >> sign) & m
        y -= m
        y += (y >> sign) & m
        y *= n
        i += y
    return PairwiseObservations._from_pattern(n, m, key, colptr)


def _observed_pairs(n: int, p_obs: float, rng: np.random.Generator, dtype):
    """Index arrays (a, b) of dtype, a < b, of the pairs kept at rate p_obs.

    The pairs of ``_pair_pattern``, with the pointer expanded to one a per
    pair.
    """
    b, colptr = _pair_pattern(n, p_obs, rng, dtype, np.empty(min(_CHUNK, n * (n - 1) // 2)))
    return np.repeat(np.arange(n, dtype=dtype), np.diff(colptr)), b


def _pair_pattern(n: int, p_obs: float, rng: np.random.Generator, dtype, buf: np.ndarray):
    """The pairs a < b kept at rate p_obs, as b in dtype and a pointer over a.

    The one pair sampler and the one check of p_obs for both problem
    families: outside (0, 1], NaN included, it raises ValueError.  The
    pairs come in ascending lexicographic rank, and the (n + 1) int64
    pointer ``colptr`` bounds each a's run of b, as a CSC pointer over
    columns a.  Each chunk of ranks is unranked as it is drawn, so beside
    b only O(n + ``_CHUNK``) memory is used.  The buffer for b is sized
    to the first block of draws; in the rare sweep that outlasts it, it
    grows by each further chunk.  ``buf`` is float64 scratch of
    min(``_CHUNK``, n(n - 1)/2) entries for the gap draws.
    """
    if not 0 < p_obs <= 1:
        raise ValueError(f"p_obs must lie in (0, 1], got {p_obs}")
    total = n * (n - 1) // 2
    starts = _row_starts(n)
    b = np.empty(_block_size(total, p_obs), dtype=dtype)
    colptr = np.zeros(n + 1, dtype=np.int64)
    e = 0
    for k in _kept_ranks(total, p_obs, rng, buf):
        if e + k.size > b.size:
            b = np.concatenate((b[:e], np.empty(k.size, dtype=dtype)))
        first, counts = _pair_of_rank(k, starts, b[e:e + k.size])
        colptr[first + 1:first + 1 + counts.size] += counts
        e += k.size
    np.cumsum(colptr, out=colptr)
    return b[:e], colptr


def _block_size(left: int, p_obs: float) -> int:
    """Geometric draws per block when ``left`` ranks remain: the mean kept
    count plus four standard deviations, so one block almost always ends
    the sweep."""
    mean = left * p_obs
    return min(left, int(mean + 4.0 * math.sqrt(mean)) + 16)


def _kept_ranks(total: int, p_obs: float, rng, buf: np.ndarray):
    """The ranks below ``total`` kept at rate p_obs, ascending, in chunks.

    The gaps between kept ranks are geometric(p_obs) variables (Batagelj &
    Brandes, Phys. Rev. E 71, 2005), drawn by ``_geometric`` in blocks of
    ``_block_size`` and each block in chunks of at most ``_CHUNK``: below
    p_obs = 1/3 as standard exponentials filled into ``buf`` and divided
    by the rate, from 1/3 up by ``Generator.geometric``'s search.  The
    noise that follows costs O(m) per pair (see ``sample_observations``).
    A block is drawn to its end even past the last rank: the noise draws
    that follow must start where one draw of the whole block would leave
    the stream.  At p_obs = 1 every rank is kept, and the stream is
    advanced past the ``total`` uniforms that a per-pair mask draws; that
    is one 64-bit step per float64 for the PCG64 generator ``default_rng``
    makes.  The advance also drops a 32-bit half-word that earlier bounded
    draws may have left pending.
    """
    if p_obs == 1:
        rng.bit_generator.advance(total)
        for lo in range(0, total, _CHUNK):
            yield np.arange(lo, min(lo + _CHUNK, total))
        return
    last = -1  # the last rank drawn, past the end once the sweep is over
    while last < total - 1:
        size = _block_size(total - 1 - last, p_obs)
        for lo in range(0, size, _CHUNK):
            k = _geometric(rng, p_obs, buf[:min(_CHUNK, size - lo)])
            if last >= total:
                continue
            # a gap past the end ends the sweep; capping it keeps the sum in int64
            np.minimum(k, total - last, out=k)
            np.cumsum(k, out=k)
            k += last
            stop = int(np.searchsorted(k, total))
            if stop:
                yield k[:stop]
            last = int(k[-1])


def _geometric(rng, p: float, out: np.ndarray) -> np.ndarray:
    """``rng.geometric(p, out.size)`` bit for bit, as int64, reading the
    same stream; ``out`` is float64 scratch.

    Below p = 1/3 numpy inverts one standard exponential E per draw,
    ceil(E / -log1p(-p)), and reads anything from 2^63 up as the int64
    maximum; here the exponentials are one fill of ``out``, divided by
    the rate computed once, at about half the time.  From 1/3 up numpy
    runs a search of the cdf per draw, and its own call is kept.
    """
    # numpy's own split: its constant 0.333...3 in C is this float
    if p >= 1 / 3:
        return rng.geometric(p, out.size)
    z = rng.standard_exponential(out=out)
    with np.errstate(over="ignore"):  # E / rate is inf at subnormal p
        z /= -math.log1p(-p)
    np.ceil(z, out=z)
    if z.max() < 2.0**63:
        return z.astype(np.int64)
    # only p below about 1e-17 gets here; no float from 2^63 up meets the cast
    return np.where(z < 2.0**63, np.minimum(z, _BELOW_2_63).astype(np.int64), _INT64.max)


def _row_starts(n: int) -> np.ndarray:
    """Rank of the first pair (a, a + 1) of every row a, as int64."""
    rows = np.arange(n)
    return rows * (2 * n - rows - 1) // 2


def _pair_of_rank(k: np.ndarray, starts: np.ndarray, out: np.ndarray):
    """Unrank ascending lexicographic pair ranks k to pairs (a, b), a < b.

    Row a starts at rank a(2n - a - 1)/2 (``starts``, from ``_row_starts``),
    so ``_runs`` gives each row's share of k in exact integer arithmetic,
    at O(k.size + rows spanned) a chunk.  Each b goes to ``out`` in its
    dtype; the rows come back as ``_runs`` gives them, none for empty k.
    """
    if k.size == 0:
        return 0, np.zeros(0, dtype=np.intp)
    first, counts = _runs(starts, k)
    rows = np.arange(first, first + counts.size)
    # b = k - starts[a] + a + 1, and b < n, so the cast is exact
    np.subtract(k, np.repeat(starts[rows] - rows - 1, counts), out=out, casting="unsafe")
    return first, counts


def _runs(starts: np.ndarray, k: np.ndarray):
    """The run that k[0] falls in, and the count of k in each run from it to
    the run of k[-1]; run r holds positions starts[r] up to starts[r + 1],
    empty where starts repeat.  k is nonempty and ascending.

    Only the unranking searches: its ranks have gaps.  The noise pass, whose
    positions are consecutive, clips the column pointer instead.
    """
    first = int(np.searchsorted(starts, k[0], side="right")) - 1
    end = int(np.searchsorted(starts, k[-1], side="right"))
    return first, np.diff(np.searchsorted(k, starts[first + 1:end]), prepend=0, append=k.size)


def regularize_observations(obs: PairwiseObservations, varsigma: float, seed: int) -> PairwiseObservations:
    """Rerandomize each stored residue to uniform with probability varsigma.

    Companion to regularize(): after both, the data is exactly distributed
    according to the smoothed model, so likelihood weights stay consistent.
    The uniforms that pick the pairs are drawn in chunks of ``_CHUNK``,
    then the new residues in one draw, and the pattern is shared with obs.
    """
    if not 0.0 < varsigma < 1.0:
        raise ValueError("varsigma must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    e, n = obs.n_edges, obs.n
    picked = [np.flatnonzero(rng.random(min(_CHUNK, e - lo)) < varsigma) + lo
              for lo in range(0, e, _CHUNK)]
    picked = np.concatenate([np.empty(0, dtype=np.intp), *picked])
    key = obs.key.copy()
    # keep each picked pair's i and give it a fresh residue
    key[picked] = key[picked] % n + rng.integers(0, obs.m, picked.size) * n
    return PairwiseObservations._from_pattern(n, obs.m, key, obs.colptr)
