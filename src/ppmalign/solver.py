"""The core solver: projected power iterations on the lifted input matrix.

Starting from feasible blocks z0, each step multiplies by the input matrix
and projects every block back onto the simplex after scaling by mu:

    z <- P(mu * L z),   estimate_i = argmax of block i.

With mu = inf the projection collapses to rounding each block to its best
vertex, which is the cheapest and often the most robust choice.  Finite mu
follows the matrix scale, so it is expressed relative to a singular value
of L through a ScalingPolicy.

All error metrics are modulo a global cyclic shift of the labels, which is
unidentifiable from pairwise differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import MissingSigmaError
from .likelihood import _csv_text
from .simplex import project_blockwise

# finite-mu fixed-point tolerance for early stopping
_STALL_TOL = 1e-10


def lift(labels, m: int) -> np.ndarray:
    """One-hot blocks for labels in {1, ..., m}: an (n, m) vertex iterate."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-d")
    if labels.size and (labels.min() < 1 or labels.max() > m):
        raise ValueError(f"labels must lie in 1..{m}")
    z = np.zeros((labels.size, m))
    z[np.arange(labels.size), labels - 1] = 1.0
    return z


def labels_of(z) -> np.ndarray:
    """Per-block argmax as labels in {1, ..., m} (ties: smallest index)."""
    z = np.asarray(z, dtype=float)
    return np.argmax(z, axis=1) + 1


def mcr(a, b, m: int) -> float:
    """Misclassification rate modulo global shift.

    The fraction of positions where a and the best cyclic relabeling of b
    disagree; 0 exactly at exact recovery.  For labels in 1..m, a agrees
    with b shifted by l exactly where (a - b) mod m = l, so one count of
    those residues scores every shift.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("label vectors must be 1-d, nonempty, same length")
    agree = int(np.bincount((a - b) % m).max())
    return (a.size - agree) / a.size


@dataclass(frozen=True)
class ScalingPolicy:
    """How the projection scaling mu_t is chosen (constant across t).

    mu = c when sigma_ref is None, else c / sigma with sigma the second
    ("sigma2") or the m-th ("sigma_m") largest singular value of the matrix
    being iterated.  The default c = inf rounds every block to its best
    vertex.
    """

    c: float = math.inf
    sigma_ref: str | None = None

    def __post_init__(self):
        if self.sigma_ref not in (None, "sigma2", "sigma_m"):
            raise ValueError(f"unknown sigma reference {self.sigma_ref!r}")
        if not self.c > 0:
            raise ValueError("policy constant c must be positive")

    @classmethod
    def infinite(cls) -> "ScalingPolicy":
        return cls()

    @classmethod
    def over_sigma2(cls, c: float = 10.0) -> "ScalingPolicy":
        return cls(c, "sigma2")

    @classmethod
    def over_sigma_m(cls, c: float = 20.0) -> "ScalingPolicy":
        return cls(c, "sigma_m")

    def min_rank(self, m: int) -> int:
        """Smallest factorization rank that exposes the needed sigma."""
        if self.sigma_ref is None:
            return 1
        return 2 if self.sigma_ref == "sigma2" else m

    def resolve_mu(self, sigmas, m: int) -> float:
        """Concrete scaling for one run; needs sigma estimates when relative."""
        if self.sigma_ref is None:
            return self.c
        idx = self.min_rank(m) - 1
        if sigmas is None or len(sigmas) <= idx:
            raise MissingSigmaError(
                f"policy needs singular value #{idx + 1} but only "
                f"{0 if sigmas is None else len(sigmas)} estimates are available"
            )
        s = float(sigmas[idx])
        if not s > 0:
            raise MissingSigmaError(f"singular value #{idx + 1} estimate is {s}; cannot scale")
        return self.c / s


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one solver run."""

    estimate: np.ndarray
    z: np.ndarray
    iterates_mcr: np.ndarray | None
    iterations_run: int
    converged: bool
    mu_used: float

    @property
    def final_mcr(self) -> float:
        if self.iterates_mcr is None:
            raise ValueError("run had no ground truth; no error trace")
        return float(self.iterates_mcr[-1])

    def trace_csv(self) -> str:
        """Per-iteration error trace plus a summary comment line."""
        final = self.final_mcr
        mu = "inf" if math.isinf(self.mu_used) else f"{self.mu_used:.6g}"
        rows = ((t, f"{v:.6g}") for t, v in enumerate(self.iterates_mcr))
        return _csv_text("t,mcr", rows) + (
            f"# final_mcr={final:.6g} iterations={self.iterations_run}"
            f" converged={self.converged} mu={mu}\n"
        )


def _period(new, cur, prev) -> int:
    """1 if new repeats cur bit for bit, 2 if it repeats prev, else 0."""
    new = new.tobytes()
    if new == cur.tobytes():
        return 1
    return 2 if prev is not None and new == prev.tobytes() else 0


def _run_out_orbit(orbit, trace, left: int):
    """The iterate `left` steps on around orbit, its last iterates, oldest
    first; trace, if kept, gets the per-step entries the skipped steps
    would have appended."""
    period = len(orbit)
    if trace is not None:
        tail = trace[-period:]
        trace.extend(tail[k % period] for k in range(left))
    return orbit[(left - 1) % period]


def _power_loop(z, step, tol: float, T: int, early_stop: bool, score=None):
    """Up to T steps z <- step(z); the loop of both problem families.

    step is one operator product followed by the per-block projection, a
    step meets the stopping test when no entry moves by more than tol,
    and score, when given, maps an iterate to its trace entry.  Once an
    iterate repeats bit for bit, the rest of the budget is run out around
    its orbit without further steps.

    Returns (z, trace or None, steps counted, whether the last one stalled).
    """
    trace = None if score is None else [score(z)]
    ran = 0
    met = False
    prev = None  # the iterate before z
    while ran < T:
        z_new = step(z)
        ran += 1
        met = bool(np.max(np.abs(z_new - z)) <= tol)
        period = _period(z_new, z, prev)
        prev, z = z, z_new
        if trace is not None:
            trace.append(score(z))
        if early_stop and met:
            break
        if period:
            z = _run_out_orbit([prev, z][-period:], trace, T - ran)
            ran = T
    return z, trace, ran, met


def default_iterations(n: int) -> int:
    """Default iteration budget ceil(3 ln n); enough for exact recovery
    with room to spare in the regimes where recovery is possible."""
    return int(math.ceil(3.0 * math.log(n)))


def solve(L, z0, policy: ScalingPolicy, T: int, truth=None, sigmas=None,
          early_stop: bool = True) -> SolveReport:
    """Run projected power iterations from z0.

    Parameters
    ----------
    L : CirculantBlockMatrix
        Lifted input matrix (any object with n, m and blockwise matvec).
    z0 : ndarray, shape (n, m)
        Feasible starting blocks.
    policy : ScalingPolicy
        Choice of the projection scaling mu.
    T : int
        Iteration budget.
    truth : array_like of int, optional
        Hidden labels; when given, the misclassification rate of every
        rounded iterate is recorded (T + 1 entries when run to the end).
    sigmas : array_like, optional
        Singular-value estimates of L, required by relative policies.
    early_stop : bool
        Stop once consecutive iterates coincide: exactly (mu = inf) or
        within 1e-10 sup-norm (finite mu).

    Returns
    -------
    SolveReport

    Notes
    -----
    The update is deterministic, so once an iterate repeats bit for bit,
    as a fixed point or a 2-cycle, every later one is known.  Products
    stop there.  Without an early stop the report still covers all T
    iterations: the trace repeats the cycle, z is the iterate step T
    would reach, and ``converged`` is what every later step would find.
    """
    z = np.array(z0, dtype=float)
    if z.shape != (L.n, L.m):
        raise ValueError(f"z0 must have shape {(L.n, L.m)}")
    if T < 0:
        raise ValueError("iteration budget must be nonnegative")
    mu = policy.resolve_mu(sigmas, L.m)
    truth_arr = None if truth is None else np.asarray(truth, dtype=np.int64)
    score = None if truth_arr is None else (lambda z: mcr(labels_of(z), truth_arr, L.m))
    tol = 0.0 if math.isinf(mu) else _STALL_TOL
    z, trace, ran, met = _power_loop(z, lambda z: project_blockwise(L.matvec(z), mu),
                                     tol, T, early_stop, score)
    return SolveReport(
        estimate=labels_of(z),
        z=z,
        iterates_mcr=None if trace is None else np.asarray(trace),
        iterations_run=ran,
        converged=met,
        mu_used=mu,
    )


@dataclass(frozen=True, eq=False)
class ContractionReport:
    """One-step error ratios from randomized probes around the truth."""

    ratios: np.ndarray
    max_ratio: float
    contracted: bool


def check_contraction(L, truth, policy: ScalingPolicy, trials: int = 100,
                      seed: int = 0, sigmas=None) -> ContractionReport:
    """Probe whether one iteration shrinks the error near the truth.

    Draws corrupted copies of the truth with misclassification rate at most
    0.49, runs ``solve`` from each for a single step, and reports the worst
    ratio of the two error entries of its trace, after to before.  A max
    ratio below 1 is the empirical signature of the basin of attraction;
    above 1 flags non-contraction.
    """
    truth_arr = np.asarray(truth, dtype=np.int64)
    n, m = L.n, L.m
    if truth_arr.shape != (n,):
        raise ValueError("truth length must match the matrix")
    if n < 2:
        raise ValueError("need n >= 2: one item has no error modulo the global shift")
    if trials < 1:
        raise ValueError("need at least one probe")
    rng = np.random.default_rng(seed)
    k_max = max(1, int(math.floor(0.49 * n)))
    ratios = np.empty(trials)
    for t in range(trials):
        k = int(rng.integers(1, k_max + 1))
        pos = rng.choice(n, size=k, replace=False)
        corrupted = truth_arr.copy()
        corrupted[pos] = ((corrupted[pos] - 1 + rng.integers(1, m, size=k)) % m) + 1
        before, after = solve(L, lift(corrupted, m), policy, 1, truth_arr, sigmas).iterates_mcr
        ratios[t] = after / before
    mx = float(ratios.max())
    return ContractionReport(ratios=ratios, max_ratio=mx, contracted=mx < 1.0)
