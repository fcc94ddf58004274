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
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

PROB_SUM_TOL = 1e-12
_INT64 = np.iinfo(np.int64)


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
    w = np.exp(-(z.astype(float) ** 2) / (2.0 * sigma**2))
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


@dataclass(frozen=True, eq=False)
class PairwiseObservations:
    """Observed pairwise differences on a random subset of pairs.

    Each sampled unordered pair is stored once with i > j; the mirrored
    reading is y_ji = (m - y_ij) mod m.  Arrays ``i``, ``j``, ``y`` are
    aligned; indices are 0-based, residues lie in {0, ..., m-1}.
    """

    n: int
    m: int
    i: np.ndarray
    j: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        i, j, y = _edge_list(self.n, self.i, self.j, self.y)
        if y.size and (y.min() < 0 or y.max() >= self.m):
            raise ValueError("residues out of range")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "y", y)

    @property
    def n_edges(self) -> int:
        return self.i.size

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("i,j,y\n")
        for a, b, v in zip(self.i, self.j, self.y):
            buf.write(f"{a},{b},{v}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, n: int, m: int):
        rows = _csv_records(text, "i,j,y", (int, int, int))
        i, j, y = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        return cls(n=n, m=m, i=i, j=j, y=y)


def _edge_list(n: int, *columns):
    """Validate aligned edge columns i, j, ... and return them as int64.

    Every column is a 1-d integer array (lists are accepted) of one length;
    int64 input is not copied.  The first two columns are the endpoints of
    unordered pairs, each stored once with i > j and both ends in 0..n-1.
    The repeat test is linear when the pairs come sorted by (j, i), as both
    samplers emit them, and only sorts other inputs.
    """
    columns = [np.asarray(c) for c in columns]
    if columns[0].ndim != 1 or any(c.shape != columns[0].shape for c in columns):
        raise ValueError("edge arrays must be aligned 1-d arrays")
    if columns[0].size and any(c.dtype.kind not in "iu" for c in columns):
        raise ValueError("edge arrays must hold integers")
    i, j, *rest = (c.astype(np.int64, copy=False) for c in columns)
    if i.size and not np.all(i > j):
        raise ValueError("edges must be stored with i > j")
    if i.size and (i.max() >= n or j.min() < 0):
        raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
    if not _rising(i, j):
        order = np.lexsort((i, j))
        if not _rising(i[order], j[order]):
            raise ValueError("duplicate pair in observations")
    return (i, j, *rest)


def _rising(i, j) -> bool:
    """Whether the pairs (j, i) rise strictly in lexicographic order."""
    later, earlier = j[1:], j[:-1]
    step = later > earlier
    step |= (later == earlier) & (i[1:] > i[:-1])
    return bool(step.all())


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

    Parameters
    ----------
    x : array_like of int, shape (n,)
        Hidden labels in {1, ..., m}.
    d : NoiseDistribution
        Law of the additive noise eta.
    p_obs : float in (0, 1]
        Pair sampling rate.
    seed : int
        Seed for the pair selection and the noise draws.
    """
    x = np.asarray(x)
    m = d.m
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least two items")
    if x.dtype.kind not in "iu":
        raise ValueError("labels must be integers")
    x = x.astype(np.int64, copy=False)
    if np.any(x < 1) or np.any(x > m):
        raise ValueError(f"labels must lie in 1..{m}")
    if not 0 < p_obs <= 1:
        raise ValueError("p_obs must lie in (0, 1]")
    n = x.size
    rng = np.random.default_rng(seed)
    a, b = _observed_pairs(n, p_obs, rng)
    cdf = np.cumsum(d.p0)
    eta = np.searchsorted(cdf, rng.random(a.size), side="right")
    np.clip(eta, 0, m - 1, out=eta)
    # store with i > j: y_ij for (i, j) = (b, a)
    y = (x[b] - x[a] + eta) % m
    return PairwiseObservations(n=n, m=m, i=b, j=a, y=y)


def _observed_pairs(n: int, p_obs: float, rng: np.random.Generator):
    """Index arrays (a, b), a < b, of the pairs kept at rate p_obs.

    Pairs are ranked in lexicographic order, row a holding the ranks from
    a(2n - a - 1)/2 on, and the gaps between kept ranks are drawn as
    geometric(p_obs) variables (Batagelj & Brandes, Phys. Rev. E 71, 2005).
    At p_obs = 1 the stream is advanced past the N = n(n-1)/2 uniforms
    that a per-pair mask draws; that is one 64-bit step per float64 for
    the PCG64 generator ``default_rng`` makes.  The advance also drops a
    32-bit half-word that earlier bounded draws may have left pending.
    """
    total = n * (n - 1) // 2
    if p_obs == 1:
        rng.bit_generator.advance(total)
        return np.triu_indices(n, k=1)
    blocks = []
    last = -1  # rank of the last kept pair
    while last < total - 1:
        left = total - 1 - last
        mean = left * p_obs
        size = min(left, int(mean + 4.0 * math.sqrt(mean)) + 16)
        k = rng.geometric(p_obs, size)
        # a gap past the end ends the sweep; capping it keeps the sum in int64
        np.minimum(k, left + 1, out=k)
        np.cumsum(k, out=k)
        k += last
        stop = int(np.searchsorted(k, total))
        blocks.append(k[:stop])
        if stop < size:
            break
        last = int(k[-1])
    k = np.concatenate(blocks)
    del blocks
    return _pair_of_rank(k, n)


def _pair_of_rank(k: np.ndarray, n: int):
    """Unrank lexicographic pair ranks k over n items to (a, b), a < b.

    Row a starts at rank a(2n - a - 1)/2.  The float root of that
    quadratic, taken of its exact integer discriminant, gives a to within
    one, and one integer step each way makes it exact.
    """
    c = 2 * n - 1
    disc = np.multiply(k, -8)
    disc += c * c
    root = np.sqrt(disc)
    del disc
    np.subtract(c, root, out=root)
    root *= 0.5
    a = np.floor(root, out=root).astype(np.int64)
    del root
    a -= a * (c - a) // 2 > k
    a += (a + 1) * (c - a - 1) // 2 <= k
    b = k - a * (c - a) // 2
    b += a + 1
    return a, b


def regularize_observations(obs: PairwiseObservations, varsigma: float, seed: int) -> PairwiseObservations:
    """Rerandomize each stored residue to uniform with probability varsigma.

    Companion to regularize(): after both, the data is exactly distributed
    according to the smoothed model, so likelihood weights stay consistent.
    """
    if not 0.0 < varsigma < 1.0:
        raise ValueError("varsigma must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    repl = rng.random(obs.n_edges) < varsigma
    y = obs.y.copy()
    y[repl] = rng.integers(0, obs.m, int(repl.sum()))
    return PairwiseObservations(obs.n, obs.m, obs.i, obs.j, y)
