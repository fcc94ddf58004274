"""Command-line entry points for the experiment harness.

Subcommands
-----------
align       one alignment run, emits the per-iteration error trace CSV
sweep       Monte Carlo grid over n and the noise parameter, aggregate CSV
match       joint feature matching on loaded or synthetic correspondences
thresholds  recovery threshold table for the random-corruption model

One table declares the flags of all four.  Their values stay text and are
parsed by the config key table, as a config file's are.  A flag the run
would not read is an error: --pi0 or --sigma under another model, and
--corrupt with --obs.  All output goes to --out (LF endings) or stdout.
Exit status is 0 on success and 2 on any configuration problem.
"""

from __future__ import annotations

import argparse
import sys

from .blockmat import FORMS
from .exceptions import ConfigError, MissingSigmaError
from .harness import (
    _CONFIG_KEYS,
    MODELS,
    ExperimentConfig,
    _to_float,
    _to_int,
    build_config,
    parse_config_text,
    run_single,
    sweep_csv,
    threshold_table,
)
from .matching import MatchObservations, input_mismatch_rate, match_solve, sample_match_observations


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"out: cannot write {out_path!r}: {exc}") from None


def _flag(args: argparse.Namespace, key: str, default=None, parse=None):
    """The flag's text through ``parse``, by default the parser of its config key;
    ``default`` when the flag is not given."""
    text = getattr(args, key)
    return default if text is None else (parse or _CONFIG_KEYS[key][1])(key, text)


def _config_mapping(args: argparse.Namespace) -> dict[str, str]:
    mapping: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                mapping = parse_config_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config: cannot read {args.config!r}: {exc}") from None
    mapping.update({k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None})
    model = mapping.get("model", ExperimentConfig.model).strip()
    # each flag sets the noise parameter ("param") of one model
    for flag, owner in (("pi0", "random_corruption"), ("sigma", "modified_gaussian")):
        if getattr(args, flag) is not None:
            if model != owner:
                raise ConfigError(f"param: --{flag} is the noise parameter of model {owner} "
                                  f"only, got model {model!r}")
            mapping["param"] = getattr(args, flag)
    return mapping


def _cmd_align(args: argparse.Namespace) -> None:
    cfg, out = build_config(_config_mapping(args))
    _write_output(run_single(cfg, truth_echo=args.truth_echo), out)


def _cmd_sweep(args: argparse.Namespace) -> None:
    cfg, out = build_config(_config_mapping(args))
    _write_output(sweep_csv(cfg), out)


def _cmd_thresholds(args: argparse.Namespace) -> None:
    if args.n is None:
        raise ConfigError("n: thresholds needs --n")
    # no ExperimentConfig: it would build a length-m pmf; the threshold functions check values
    n_grid, m, p_obs = _flag(args, "n"), _flag(args, "m", 2), _flag(args, "pobs", 1.0)
    try:
        table = threshold_table(n_grid, m, p_obs)
    except (ValueError, OverflowError) as exc:  # OverflowError: an n or m beyond float
        raise ConfigError(f"thresholds: {exc}") from None
    _write_output(table, args.out)


def _cmd_match(args: argparse.Namespace) -> None:
    n, corrupt = _flag(args, "n", 50, _to_int), _flag(args, "corrupt", 0.3, _to_float)
    m, seed, iters = _flag(args, "m", 10), _flag(args, "seed", 0), _flag(args, "iters", 50)
    truth = None
    if args.obs is not None:
        if args.corrupt is not None:
            raise ConfigError("corrupt: applies only to a synthetic instance, not to --obs")
        if args.n is None or args.m is None:
            raise ConfigError("match: loading --obs needs --n and --m")
        try:
            with open(args.obs) as fh:
                obs = MatchObservations.from_csv(fh.read(), n=n, m=m)
        except OSError as exc:
            raise ConfigError(f"obs: cannot read {args.obs!r}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"obs: {exc}") from None
    # the sampler and match_solve reject a bad n, m, corrupt, seed or iters
    try:
        if args.obs is None:
            obs, truth = sample_match_observations(n, m, corrupt, seed=seed)
        rep = match_solve(obs, T=iters, seed=seed, truth=truth)
    except ValueError as exc:
        raise ConfigError(f"match: {exc}") from None
    if truth is not None:
        print(f"synthetic instance: input mismatch rate "
              f"{input_mismatch_rate(obs, truth):.4f}", file=sys.stderr)
        print(f"final mismatch rate {rep.final_mismatch:.4f} "
              f"after {rep.iterations_run} iterations", file=sys.stderr)
    _write_output(rep.estimates_csv(), args.out)


# flag -> help text
_FLAGS = {
    "config": "flat key = value config file",
    "obs": "block CSV (i,j,row,col,value) to load",
    "seed": "master seed",
    "out": "output CSV path (default: stdout)",
    "model": f"noise model, one of {', '.join(MODELS)}",
    "n": "number of items; a comma list for sweep and thresholds",
    "m": "number of labels, or features per item for match",
    "pobs": "pair observation probability",
    "pi0": "non-corruption rate(s), model random_corruption only",
    "sigma": "noise width(s), model modified_gaussian only",
    "p0": "comma pmf, model custom_p0 only",
    "mu": "scaling policy: inf, c/sigma2, c/sigmam, or a number",
    "form": f"matrix form, one of {', '.join(FORMS)}",
    "corrupt": "corruption rate of the synthetic instance",
    "iters": "iteration budget (align, sweep: ceil(3 ln n))",
    "trials": "trials per grid cell",
}
_RUN_FLAGS = ("config", "seed", "out", "model", "n", "m", "pobs", "pi0", "sigma", "p0", "mu",
              "form", "iters")
# subcommand -> (handler, help, flags)
_COMMANDS = {
    "align": (_cmd_align, "single run with error trace", _RUN_FLAGS),
    "sweep": (_cmd_sweep, "Monte Carlo phase-transition sweep", _RUN_FLAGS + ("trials",)),
    "match": (_cmd_match, "joint feature matching; defaults n 50, m 10, corrupt 0.3, iters 50",
              ("obs", "n", "m", "corrupt", "seed", "iters", "out")),
    "thresholds": (_cmd_thresholds, "recovery threshold table; defaults m 2, pobs 1",
                   ("n", "m", "pobs", "out")),
}


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 2 with one ``error:`` line, as a bad config does;
    subparsers are built from the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ppmalign",
        description="joint discrete alignment from noisy pairwise differences",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, description=text)
        for flag in flags:
            p.add_argument(f"--{flag}", help=_FLAGS[flag])
        p.set_defaults(func=func)
    sub.choices["align"].add_argument("--truth-echo", action="store_true",
                                      help="append truth and estimate labels as comments")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ConfigError, MissingSigmaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
