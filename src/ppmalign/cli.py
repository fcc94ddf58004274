"""Command-line entry points for the experiment harness.

Subcommands
-----------
align       one alignment run, emits the per-iteration error trace CSV
sweep       Monte Carlo grid over n and the noise parameter, aggregate CSV
match       joint feature matching on loaded or synthetic correspondences
thresholds  recovery threshold table for the random-corruption model

All output goes to --out (LF endings) or stdout.  Exit status is 0 on
success and 2 on any configuration problem.
"""

from __future__ import annotations

import argparse
import sys

from .blockmat import FORMS
from .exceptions import ConfigError, MissingSigmaError
from .harness import (
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


def _add_common_flags(p: argparse.ArgumentParser, sweep: bool) -> None:
    # values stay strings: the config key table parses flags and file alike
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", help="master seed")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--model", choices=("random_corruption", "modified_gaussian", "custom_p0"))
    p.add_argument("--n", help="number of items" + (", comma list allowed" if sweep else ""))
    p.add_argument("--m", help="number of labels")
    p.add_argument("--pobs", help="pair observation probability")
    p.add_argument("--pi0", help="non-corruption rate(s) for random_corruption")
    p.add_argument("--sigma", help="noise width(s) for modified_gaussian")
    p.add_argument("--p0", help="comma pmf for model custom_p0")
    p.add_argument("--mu", help="scaling policy: inf, c/sigma2, c/sigmam, or a number")
    p.add_argument("--form", choices=FORMS)
    p.add_argument("--iters", help="iteration budget (default: ceil(3 ln n))")
    if sweep:
        p.add_argument("--trials", help="trials per grid cell")


# config keys that a flag of the same name sets; --pi0 and --sigma set "param"
_FLAG_KEYS = ("model", "n", "m", "pobs", "p0", "mu", "form", "iters", "seed", "out", "trials")


def _config_mapping(args: argparse.Namespace) -> dict[str, str]:
    mapping: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                mapping = parse_config_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config: cannot read {args.config!r}: {exc}") from None
    if args.pi0 is not None and args.sigma is not None:
        raise ConfigError("give either --pi0 or --sigma, not both")
    overrides = {key: getattr(args, key, None) for key in _FLAG_KEYS}
    overrides["param"] = args.pi0 if args.pi0 is not None else args.sigma
    mapping.update({k: v for k, v in overrides.items() if v is not None})
    return mapping


def _cmd_align(args: argparse.Namespace) -> int:
    cfg, out = build_config(_config_mapping(args))
    _write_output(run_single(cfg, truth_echo=args.truth_echo), out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg, out = build_config(_config_mapping(args))
    _write_output(sweep_csv(cfg), out)
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    if args.n is None:
        raise ConfigError("n: thresholds needs --n")
    flags = {"n": args.n, "m": args.m, "pobs": args.pobs, "out": args.out}
    cfg, out = build_config({k: v for k, v in flags.items() if v is not None})
    _write_output(threshold_table(cfg.n_grid, cfg.m, cfg.p_obs), out)
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    if args.iters is not None and args.iters < 0:
        raise ConfigError("iters: must be >= 0")
    if args.seed < 0:
        raise ConfigError("seed: must be >= 0")
    iters = 50 if args.iters is None else args.iters
    try:
        n = None if args.n is None else int(args.n)
    except ValueError:
        raise ConfigError(f"n: expected an integer, got {args.n!r}") from None
    truth = None
    if args.obs is not None:
        if n is None or args.m is None:
            raise ConfigError("match: loading --obs needs --n and --m")
        try:
            with open(args.obs) as fh:
                obs = MatchObservations.from_csv(fh.read(), n=n, m=args.m)
        except OSError as exc:
            raise ConfigError(f"obs: cannot read {args.obs!r}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"obs: {exc}") from None
    else:
        n = 50 if n is None else n
        m = 10 if args.m is None else args.m
        try:
            obs, truth = sample_match_observations(n, m, args.corrupt, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"match: {exc}") from None
        print(f"synthetic instance: input mismatch rate "
              f"{input_mismatch_rate(obs, truth):.4f}", file=sys.stderr)
    rep = match_solve(obs, T=iters, seed=args.seed, truth=truth)
    if truth is not None:
        print(f"final mismatch rate {rep.final_mismatch:.4f} "
              f"after {rep.iterations_run} iterations", file=sys.stderr)
    _write_output(rep.estimates_csv(), args.out)
    return 0


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

    p_align = sub.add_parser("align", help="single run with error trace")
    _add_common_flags(p_align, sweep=False)
    p_align.add_argument("--truth-echo", action="store_true",
                         help="append truth and estimate labels as comments")
    p_align.set_defaults(func=_cmd_align)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo phase-transition sweep")
    _add_common_flags(p_sweep, sweep=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_match = sub.add_parser("match", help="joint feature matching")
    p_match.add_argument("--obs", help="block CSV (i,j,row,col,value) to load")
    p_match.add_argument("--n", help="number of items")
    p_match.add_argument("--m", type=int, help="features per item")
    p_match.add_argument("--corrupt", type=float, default=0.3,
                         help="corruption rate for the synthetic instance")
    p_match.add_argument("--seed", type=int, default=0)
    p_match.add_argument("--iters", type=int, help="iteration budget (default 50)")
    p_match.add_argument("--out", help="estimates CSV path (default: stdout)")
    p_match.set_defaults(func=_cmd_match)

    p_thr = sub.add_parser("thresholds", help="recovery threshold table")
    p_thr.add_argument("--n", help="comma list of item counts")
    p_thr.add_argument("--m", help="number of labels (default 2)")
    p_thr.add_argument("--pobs", help="pair observation probability (default 1)")
    p_thr.add_argument("--out")
    p_thr.set_defaults(func=_cmd_thresholds)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MissingSigmaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
