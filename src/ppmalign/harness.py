"""Monte Carlo experiment harness: configs, sweeps, and CSV emission.

A sweep walks a grid of (n, noise parameter) cells, runs seeded independent
trials of the full pipeline in each cell (sample -> build -> factorize ->
initialize -> iterate), and aggregates recovery statistics.  Per-trial
seeds are derived from (seed, cell index, trial index), so any execution
order, or re-running a single cell, reproduces identical numbers; the
emitted CSV is byte-stable for a fixed config.

Config files are flat ``key = value`` text; command-line flags override
file values; unknown and repeated keys are rejected.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .blockmat import FORMS, build
from .exceptions import ConfigError
from .likelihood import (
    NoiseDistribution,
    modified_gaussian,
    random_corruption,
    regularize,
    regularize_observations,
    sample_observations,
    threshold_kl,
    threshold_random_corruption,
)
from .solver import ScalingPolicy, SolveReport, default_iterations, solve
from .spectral import _WARM_START_TOL, initial_guess, orthogonal_iteration

MODELS = ("random_corruption", "modified_gaussian", "custom_p0")

# pmfs with less mass than this anywhere get smoothed before taking logs
MIN_MASS = 1e-12

SWEEP_HEADER = "n,param,m,p_obs,trials,mean_mcr,exact_recovery_frac,mean_iters"
THRESHOLD_HEADER = "n,m,p_obs,pi0_sufficient,pi0_necessary,kl_sufficient,kl_necessary"


def _fmt(x: float) -> str:
    """Six significant digits, locale-free."""
    return format(float(x), ".6g")


# mu spec suffix -> ScalingPolicy.sigma_ref
_SPEC_REFS = {"sigma2": "sigma2", "sigmam": "sigma_m"}


def parse_mu_spec(spec: str) -> ScalingPolicy:
    """Parse a scaling spec: 'inf', 'c/sigma2', 'c/sigmam', or a bare number."""
    num, slash, ref = spec.strip().lower().partition("/")
    if slash and ref not in _SPEC_REFS:
        raise ConfigError(f"mu: unknown sigma reference {ref!r} (want sigma2 or sigmam)")
    try:
        c = float(num)
    except ValueError:
        raise ConfigError(f"mu: cannot parse {spec!r}") from None
    try:
        return ScalingPolicy(c, _SPEC_REFS.get(ref))
    except ValueError as exc:
        raise ConfigError(f"mu: {exc}, got {spec!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep needs; validated on construction."""

    model: str = "random_corruption"
    n_grid: tuple[int, ...] = (500,)
    param_grid: tuple[float, ...] = (0.2,)
    m: int = 2
    p_obs: float = 1.0
    policy: ScalingPolicy = field(default_factory=ScalingPolicy.infinite)
    form: str | None = None
    trials: int = 20
    T: int | None = None
    seed: int = 0
    varsigma: float = 0.01
    init_iters: int = 200
    early_stop: bool = False
    custom_p0: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"model: must be one of {MODELS}, got {self.model!r}")
        if self.custom_p0 is not None and self.model != "custom_p0":
            raise ConfigError(f"p0: only model custom_p0 takes a pmf, got model {self.model!r}")
        if self.m < 2:
            raise ConfigError(f"m: must be at least 2, got {self.m}")
        if not self.n_grid or any(n < 2 for n in self.n_grid):
            raise ConfigError(f"n: every grid value must be >= 2, got {self.n_grid}")
        if not self.param_grid:
            raise ConfigError("param: grid must be nonempty")
        if self.model == "custom_p0":
            if self.custom_p0 is None:
                raise ConfigError("p0: model custom_p0 needs an explicit pmf")
            if len(self.custom_p0) != self.m:
                raise ConfigError(f"p0: must be a length-m pmf, got {len(self.custom_p0)} "
                                  f"entries for m={self.m}")
        # the noise model's own constructor is the one check of its parameters
        key = "p0" if self.model == "custom_p0" else "param"
        for param in self.param_grid:
            try:
                self.distribution(param)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        if not 0.0 < self.p_obs <= 1.0:
            raise ConfigError(f"pobs: must lie in (0, 1], got {self.p_obs}")
        if self.form is not None and self.form not in FORMS:
            raise ConfigError(f"form: must be one of {FORMS}, got {self.form!r}")
        if self.trials < 1:
            raise ConfigError(f"trials: must be >= 1, got {self.trials}")
        if self.T is not None and self.T < 0:
            raise ConfigError(f"iters: must be >= 0, got {self.T}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if not 0.0 < self.varsigma < 1.0:
            raise ConfigError(f"varsigma: must lie in (0, 1), got {self.varsigma}")
        if self.init_iters < 1:
            raise ConfigError(f"init_iters: must be >= 1, got {self.init_iters}")

    @property
    def resolved_form(self) -> str:
        if self.form is not None:
            return self.form
        return "agreement" if self.model == "random_corruption" else "loglik"

    def distribution(self, param: float) -> NoiseDistribution:
        if self.model == "random_corruption":
            return random_corruption(param, self.m)
        if self.model == "modified_gaussian":
            return modified_gaussian(param, self.m)
        return NoiseDistribution(np.asarray(self.custom_p0, dtype=float))


def run_trial(cfg: ExperimentConfig, n: int, param: float, cell_index: int,
              trial: int) -> tuple[SolveReport, np.ndarray]:
    """One seeded end-to-end run; returns the report and the hidden truth.

    The sub-seeds for truth, edges, factorization start, column choice and
    data smoothing are all derived from (cfg.seed, cell_index, trial).
    """
    base = np.random.SeedSequence([cfg.seed, cell_index, trial])
    s_truth, s_obs, s_init, s_col, s_reg = (int(v) for v in base.generate_state(5, dtype=np.uint64))
    m = cfg.m
    truth = np.random.default_rng(s_truth).integers(1, m + 1, size=n)
    d = cfg.distribution(param)
    obs = sample_observations(truth, d, cfg.p_obs, s_obs)
    form = cfg.resolved_form
    if form != "agreement" and d.min_mass < MIN_MASS:
        # smooth both the model and the data so the likelihood stays honest
        d = regularize(d, cfg.varsigma)
        obs = regularize_observations(obs, cfg.varsigma, s_reg)
    L = build(obs, d if form != "agreement" else None, form)
    r = m - 1 if form == "debiased-loglik" else m
    r = max(r, cfg.policy.min_rank(m))
    fac = orthogonal_iteration(L, r=r, max_iters=cfg.init_iters, tol=_WARM_START_TOL, seed=s_init)
    mu0 = cfg.policy.resolve_mu(fac.S, m)
    z0 = initial_guess(L, fac, mu0, s_col)
    t_budget = cfg.T if cfg.T is not None else default_iterations(n)
    rep = solve(L, z0, cfg.policy, t_budget, truth=truth, sigmas=fac.S,
                early_stop=cfg.early_stop)
    return rep, truth


def run_sweep(cfg: ExperimentConfig) -> list[dict]:
    """All cells of the (n, param) grid; one aggregate row per cell."""
    rows = []
    cell = 0
    for n in cfg.n_grid:
        for param in cfg.param_grid:
            final = np.empty(cfg.trials)
            iters = np.empty(cfg.trials)
            for t in range(cfg.trials):
                rep, _ = run_trial(cfg, n, param, cell, t)
                final[t] = rep.final_mcr
                iters[t] = rep.iterations_run
            rows.append({
                "n": n,
                "param": param,
                "m": cfg.m,
                "p_obs": cfg.p_obs,
                "trials": cfg.trials,
                "mean_mcr": float(final.mean()),
                "exact_recovery_frac": float(np.mean(final == 0.0)),
                "mean_iters": float(iters.mean()),
            })
            cell += 1
    return rows


def sweep_csv(cfg: ExperimentConfig) -> str:
    """Run the sweep and render the canonical CSV (LF endings, 6 sig digits)."""
    buf = io.StringIO()
    buf.write(SWEEP_HEADER + "\n")
    for r in run_sweep(cfg):
        buf.write(
            f"{r['n']},{_fmt(r['param'])},{r['m']},{_fmt(r['p_obs'])},{r['trials']},"
            f"{_fmt(r['mean_mcr'])},{_fmt(r['exact_recovery_frac'])},{_fmt(r['mean_iters'])}\n"
        )
    return buf.getvalue()


def run_single(cfg: ExperimentConfig, truth_echo: bool = False) -> str:
    """One trial on a single-cell config; returns the trace CSV."""
    if len(cfg.n_grid) != 1 or len(cfg.param_grid) != 1:
        raise ConfigError("n/param: a single run needs exactly one n and one param value")
    rep, truth = run_trial(cfg, cfg.n_grid[0], cfg.param_grid[0], 0, 0)
    out = rep.trace_csv()
    if truth_echo:
        out += "# truth=" + ",".join(str(v) for v in truth) + "\n"
        out += "# estimate=" + ",".join(str(v) for v in rep.estimate) + "\n"
    return out


def threshold_table(n_grid, m: int, p_obs: float) -> str:
    """Recovery threshold table for the random-corruption model per n."""
    buf = io.StringIO()
    buf.write(THRESHOLD_HEADER + "\n")
    for n in n_grid:
        pi_s = threshold_random_corruption(n, m, p_obs, constant=1.01)
        pi_n = threshold_random_corruption(n, m, p_obs, constant=0.99)
        kl_s, kl_n = threshold_kl(n, p_obs)
        buf.write(
            f"{n},{m},{_fmt(p_obs)},{_fmt(pi_s)},{_fmt(pi_n)},{_fmt(kl_s)},{_fmt(kl_n)}\n"
        )
    return buf.getvalue()


# --- configuration text handling -------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' starts a comment line.

    A key may appear once; a repeat is an error naming both lines.
    """
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {ln_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"config line {ln_no}: key {key!r} already set on line {seen[key]}")
        seen[key] = ln_no
        out[key] = value.strip()
    return out


def _to_int(key: str, s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {s!r}") from None


def _to_float(key: str, s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {s!r}") from None


def _to_bool(key: str, s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {s!r}")


def _grid(parse):
    return lambda key, s: tuple(parse(key, item) for item in s.split(","))


# config key -> (ExperimentConfig field, value parser); "out" is the output path
_CONFIG_KEYS = {
    "model": ("model", lambda key, s: s.strip()),
    "n": ("n_grid", _grid(_to_int)),
    "param": ("param_grid", _grid(_to_float)),
    "m": ("m", _to_int),
    "pobs": ("p_obs", _to_float),
    "mu": ("policy", lambda key, s: parse_mu_spec(s)),
    "form": ("form", lambda key, s: s.strip() or None),
    "trials": ("trials", _to_int),
    "iters": ("T", _to_int),
    "seed": ("seed", _to_int),
    "varsigma": ("varsigma", _to_float),
    "init_iters": ("init_iters", _to_int),
    "early_stop": ("early_stop", _to_bool),
    "p0": ("custom_p0", _grid(_to_float)),
    "out": (None, None),
}


def build_config(mapping: dict[str, str]) -> tuple[ExperimentConfig, str | None]:
    """Turn a flat string mapping into a validated config plus output path."""
    unknown = set(mapping) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kw = {name: parse(key, mapping[key]) for key, (name, parse) in _CONFIG_KEYS.items()
          if key in mapping and name is not None}
    return ExperimentConfig(**kw), mapping.get("out")


def iterations_to_recovery(report: SolveReport) -> float:
    """First iterate index with zero error; inf if the run never got there."""
    if report.iterates_mcr is None:
        raise ValueError("run had no ground truth")
    hits = np.flatnonzero(report.iterates_mcr == 0.0)
    return float(hits[0]) if hits.size else math.inf
