import argparse
import contextlib
import dataclasses
import gc
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import examples
import ppmalign.cli
import ppmalign.harness as harness
from ppmalign.exceptions import ConfigError
from ppmalign.harness import (
    SWEEP_HEADER,
    THRESHOLD_HEADER,
    ExperimentConfig,
    build_config,
    iterations_to_recovery,
    parse_config_text,
    parse_mu_spec,
    run_single,
    run_sweep,
    run_trial,
    sweep_csv,
    threshold_table,
)
from ppmalign.likelihood import threshold_kl, threshold_random_corruption
from ppmalign.matching import sample_match_observations
from ppmalign.solver import ScalingPolicy, mcr
from ppmalign.spectral import _WARM_START_TOL


def cli(*argv, **kw):
    return subprocess.run(
        [sys.executable, "-m", "ppmalign.cli", *argv],
        capture_output=True, text=True, **kw,
    )


def _cli_in_process(argv):
    """``cli.main`` run in this process, with every warning an error, as the
    ``CompletedProcess`` that ``cli`` returns."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            status = ppmalign.cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return subprocess.CompletedProcess(argv, status, out.getvalue(), err.getvalue())


class TestConfigText:
    def test_parse_lines_and_comments(self):
        text = """
        # sweep setup
        model = random_corruption
        n = 100,200

        param = 0.2,0.3
        trials = 5
        """
        mapping = parse_config_text(text)
        assert mapping == {
            "model": "random_corruption", "n": "100,200",
            "param": "0.2,0.3", "trials": "5",
        }

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("bogus = 1\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match=r"line 4: key 'n' already set on line 2"):
            parse_config_text("# grid\nn = 20\nm = 2\nn = 30\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("model random_corruption\n")

    def test_build_config_full(self):
        cfg, out = build_config({
            "model": "modified_gaussian", "n": "50,100", "param": "1.0,2.0",
            "m": "5", "pobs": "0.5", "mu": "20/sigmam", "form": "loglik",
            "trials": "7", "iters": "12", "seed": "9", "varsigma": "0.02",
            "init_iters": "40", "early_stop": "true",
            "out": "sweep.csv",
        })
        assert cfg.n_grid == (50, 100)
        assert cfg.param_grid == (1.0, 2.0)
        assert cfg.m == 5 and cfg.p_obs == 0.5
        assert cfg.policy == ScalingPolicy.over_sigma_m(20.0)
        assert cfg.form == "loglik" and cfg.trials == 7 and cfg.T == 12
        assert cfg.seed == 9 and cfg.varsigma == 0.02
        assert cfg.init_iters == 40
        assert cfg.early_stop is True
        assert out == "sweep.csv"

    def test_init_tol_is_not_a_key(self, tmp_path):
        # the pipeline factors to _WARM_START_TOL; a config cannot set it
        with pytest.raises(ConfigError, match="unknown key 'init_tol'"):
            parse_config_text("n = 20\ninit_tol = 1e-6\n")
        with pytest.raises(ConfigError, match="init_tol"):
            build_config({"n": "20", "init_tol": "1e-6"})
        cfgfile = tmp_path / "tol.cfg"
        cfgfile.write_text("n = 20\ninit_tol = 1e-6\n")
        res = cli("align", "--config", str(cfgfile))
        assert res.returncode == 2 and "init_tol" in res.stderr
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1

    def test_build_config_bad_values(self):
        with pytest.raises(ConfigError, match="trials"):
            build_config({"trials": "many"})
        with pytest.raises(ConfigError, match="pobs"):
            build_config({"pobs": "half"})
        with pytest.raises(ConfigError, match="early_stop"):
            build_config({"early_stop": "maybe"})

    def test_custom_p0(self):
        cfg, _ = build_config({"model": "custom_p0", "m": "3",
                               "p0": "0.6,0.3,0.1", "n": "20", "param": "0"})
        assert cfg.distribution(0.0).p0 == pytest.approx([0.6, 0.3, 0.1])


class TestMuSpec:
    def test_forms(self):
        assert parse_mu_spec("inf") == ScalingPolicy.infinite()
        assert parse_mu_spec("10/sigma2") == ScalingPolicy.over_sigma2(10.0)
        assert parse_mu_spec("20/sigmam") == ScalingPolicy.over_sigma_m(20.0)
        assert parse_mu_spec("3.5") == ScalingPolicy(3.5)
        assert parse_mu_spec(" INF ") == ScalingPolicy.infinite()

    def test_errors(self):
        for bad in ("huge", "x/sigma2", "10/sigma9", "inf/sigma9", "0/sigma2", "-1/sigmam",
                    "nan/sigma2", "nan", "0", "-2"):
            with pytest.raises(ConfigError, match="mu"):
                parse_mu_spec(bad)


class TestConfigValidation:
    def test_field_named_in_message(self):
        cases = [
            ({"model": "sparse"}, "model"),
            ({"m": 1}, "m"),
            ({"n_grid": (1,)}, "n"),
            ({"param_grid": ()}, "param"),
            ({"param_grid": (1.5,)}, "param"),
            ({"p_obs": 0.0}, "pobs"),
            ({"form": "onehot"}, "form"),
            ({"trials": 0}, "trials"),
            ({"T": -1}, "iters"),
            ({"seed": -1}, "seed"),
            ({"varsigma": 1.0}, "varsigma"),
            ({"init_iters": 0}, "init_iters"),
        ]
        for kw, word in cases:
            with pytest.raises(ConfigError, match=word):
                ExperimentConfig(**kw)

    def test_gaussian_needs_odd_m(self):
        with pytest.raises(ConfigError, match="odd"):
            ExperimentConfig(model="modified_gaussian", m=4, param_grid=(1.0,))
        with pytest.raises(ConfigError, match="sigma"):
            ExperimentConfig(model="modified_gaussian", m=5, param_grid=(0.0,))

    def test_custom_needs_pmf(self):
        with pytest.raises(ConfigError, match="p0"):
            ExperimentConfig(model="custom_p0", m=3)
        with pytest.raises(ConfigError, match="p0"):
            ExperimentConfig(model="custom_p0", m=3, custom_p0=(0.5, 0.5))

    def test_custom_takes_one_param(self):
        # the pmf ignores param, so a grid would label copies of one cell
        with pytest.raises(ConfigError, match="^param: model custom_p0"):
            ExperimentConfig(model="custom_p0", m=2, custom_p0=(0.9, 0.1), param_grid=(0.1, 0.2))

    def test_pmf_needs_custom_model(self):
        for model, m in (("random_corruption", 3), ("modified_gaussian", 3)):
            with pytest.raises(ConfigError, match="p0: only model custom_p0"):
                ExperimentConfig(model=model, m=m, custom_p0=(0.5, 0.5, 0.0))

    def test_resolved_form_defaults(self):
        assert ExperimentConfig().resolved_form == "agreement"
        gauss = ExperimentConfig(model="modified_gaussian", m=5, param_grid=(1.0,))
        assert gauss.resolved_form == "loglik"
        assert ExperimentConfig(form="debiased-loglik").resolved_form == "debiased-loglik"


class TestRuns:
    def test_trial_reproducible(self):
        cfg = ExperimentConfig(n_grid=(40,), param_grid=(0.6,), m=3, trials=1,
                               T=5, seed=11)
        a, ta = run_trial(cfg, 40, 0.6, cell_index=0, trial=0)
        b, tb = run_trial(cfg, 40, 0.6, cell_index=0, trial=0)
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(a.estimate, b.estimate)
        np.testing.assert_array_equal(a.iterates_mcr, b.iterates_mcr)
        _, tc = run_trial(cfg, 40, 0.6, cell_index=0, trial=1)
        assert not np.array_equal(ta, tc)

    def test_warm_start_at_pipeline_tol(self, monkeypatch):
        tols = []
        factor = harness.orthogonal_iteration
        monkeypatch.setattr(harness, "orthogonal_iteration",
                            lambda *a, **kw: (tols.append(kw["tol"]), factor(*a, **kw))[1])
        run_trial(ExperimentConfig(), 30, 0.2, cell_index=0, trial=0)
        assert tols == [_WARM_START_TOL]

    @pytest.mark.parametrize("cfg, n, param, trials", [
        (ExperimentConfig(model="modified_gaussian", m=5, form="loglik",
                          policy=ScalingPolicy.over_sigma_m(20.0), early_stop=True), 200, 1.4, 16),
        (ExperimentConfig(m=3), 200, 0.4, 8),
        (ExperimentConfig(m=2, p_obs=20 * math.log(2000) / 2000), 2000, 0.4, 8),
    ], ids=["gauss-m5", "corruption-m3", "sparse-m2"])
    def test_recovered_outcome_independent_of_warm_start_tol(self, monkeypatch, cfg, n, param,
                                                             trials):
        # the pipeline's factor moves sigma_m by several percent and rounds
        # another start than a 1e-8 factor, but where the 1e-8 factor
        # recovers, the iterations end in the same estimate from either, up
        # to the global shift that differences cannot identify (at 2000
        # trials, gauss-m5 trial 700 ends one shift apart)
        count = examples(trials)
        recovered = 0
        for t in range(count):
            monkeypatch.setattr(harness, "_WARM_START_TOL", 1e-8)
            tight, _ = run_trial(cfg, n, param, 0, t)
            if tight.final_mcr > 0:
                continue
            recovered += 1
            monkeypatch.setattr(harness, "_WARM_START_TOL", _WARM_START_TOL)
            rep, _ = run_trial(cfg, n, param, 0, t)
            assert mcr(rep.estimate, tight.estimate, cfg.m) == 0.0
        assert 2 * recovered > count  # a cell where recovery is the rule

    def test_observations_dropped_before_factorizing(self, monkeypatch):
        # the operator holds what the trial needs, so the observations are
        # freed before the factorization, the longest stage, starts
        refs = []
        sample, factor = harness.sample_observations, harness.orthogonal_iteration

        def sample_and_watch(*a, **kw):
            obs = sample(*a, **kw)
            refs.extend((weakref.ref(obs), weakref.ref(obs.key)))
            return obs

        def factor_after_drop(*a, **kw):
            gc.collect()
            assert refs and all(ref() is None for ref in refs)
            return factor(*a, **kw)

        monkeypatch.setattr(harness, "sample_observations", sample_and_watch)
        monkeypatch.setattr(harness, "orthogonal_iteration", factor_after_drop)
        rep, _ = run_trial(ExperimentConfig(m=3), 30, 0.8, cell_index=0, trial=0)
        assert rep.final_mcr == 0.0

    def test_sweep_covers_grid(self):
        cfg = ExperimentConfig(n_grid=(20, 30), param_grid=(0.9, 0.5), m=3,
                               trials=3, T=6, seed=1)
        rows = run_sweep(cfg)
        assert [(r["n"], r["param"]) for r in rows] == [
            (20, 0.9), (20, 0.5), (30, 0.9), (30, 0.5)
        ]
        for r in rows:
            assert 0.0 <= r["mean_mcr"] <= 1.0
            assert 0.0 <= r["exact_recovery_frac"] <= 1.0
            assert r["trials"] == 3 and math.isfinite(r["mean_iters"])

    def test_sweep_csv_byte_stable(self):
        cfg = ExperimentConfig(n_grid=(25,), param_grid=(0.8, 0.3), m=2,
                               trials=4, T=5, seed=2)
        first = sweep_csv(cfg)
        assert first == sweep_csv(cfg)
        lines = first.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 3
        assert "\r" not in first and first.endswith("\n")

    def test_noiseless_cell_recovers(self):
        cfg = ExperimentConfig(n_grid=(30,), param_grid=(1.0,), m=3, trials=3,
                               T=5, seed=3)
        row = run_sweep(cfg)[0]
        assert row["mean_mcr"] == 0.0
        assert row["exact_recovery_frac"] == 1.0

    def test_degenerate_pmf_smoothed_for_loglik(self):
        # pi0 = 1 has zero mass off the truth; the likelihood form only
        # works because model and data are smoothed together
        cfg = ExperimentConfig(n_grid=(40,), param_grid=(1.0,), m=3, trials=3,
                               T=8, seed=4, form="loglik")
        row = run_sweep(cfg)[0]
        assert row["exact_recovery_frac"] == 1.0

    def test_run_single_trace_and_echo(self):
        cfg = ExperimentConfig(n_grid=(30,), param_grid=(0.8,), m=2, trials=1,
                               T=4, seed=5)
        out = run_single(cfg)
        assert out.startswith("t,mcr\n")
        echoed = run_single(cfg, truth_echo=True)
        assert "# truth=" in echoed and "# estimate=" in echoed

    def test_run_single_rejects_grids(self):
        cfg = ExperimentConfig(n_grid=(10, 20), param_grid=(0.5,))
        with pytest.raises(ConfigError):
            run_single(cfg)

    def test_iterations_to_recovery(self):
        cfg = ExperimentConfig(n_grid=(40,), param_grid=(0.9,), m=2, trials=1,
                               T=6, seed=6)
        rep, _ = run_trial(cfg, 40, 0.9, 0, 0)
        k = iterations_to_recovery(rep)
        assert k == np.flatnonzero(rep.iterates_mcr == 0.0)[0]
        hopeless, _ = run_trial(
            ExperimentConfig(n_grid=(30,), param_grid=(0.01,), m=2, trials=1,
                             T=3, seed=7),
            30, 0.01, 0, 0)
        assert iterations_to_recovery(hopeless) == math.inf
        with pytest.raises(ValueError, match="run had no ground truth"):
            iterations_to_recovery(dataclasses.replace(rep, iterates_mcr=None))


class TestThresholdTable:
    def test_rows_match_formulas(self):
        out = threshold_table((100, 1000), 2, 1.0)
        lines = out.splitlines()
        assert lines[0] == THRESHOLD_HEADER
        pi_s = threshold_random_corruption(100, 2, 1.0, constant=1.01)
        pi_n = threshold_random_corruption(100, 2, 1.0, constant=0.99)
        kl_s, kl_n = threshold_kl(100, 1.0)
        want = (f"100,2,1,{pi_s:.6g},{pi_n:.6g},{kl_s:.6g},{kl_n:.6g}")
        assert lines[1] == want
        assert lines[2].startswith("1000,2,1,")


class TestCli:
    def test_align_trace(self):
        res = cli("align", "--n", "30", "--m", "2", "--pi0", "0.9",
                  "--iters", "4", "--seed", "0")
        assert res.returncode == 0
        assert res.stdout.startswith("t,mcr\n")
        assert "# final_mcr=" in res.stdout

    def test_sweep_deterministic_and_out_file(self, tmp_path):
        argv = ("sweep", "--n", "20,30", "--m", "2", "--pi0", "0.9,0.4",
                "--trials", "2", "--iters", "4", "--seed", "1")
        a = cli(*argv)
        b = cli(*argv)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.splitlines()[0] == SWEEP_HEADER
        assert len(a.stdout.splitlines()) == 5

        path = tmp_path / "sweep.csv"
        res = cli(*argv, "--out", str(path))
        assert res.returncode == 0 and res.stdout == ""
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode() == a.stdout

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "# tiny sweep\n"
            "model = random_corruption\n"
            "n = 20\n"
            "param = 0.9\n"
            "m = 2\n"
            "trials = 2\n"
            "iters = 3\n"
            "seed = 2\n"
        )
        base = cli("sweep", "--config", str(cfgfile))
        assert base.returncode == 0
        assert base.stdout.splitlines()[1].startswith("20,0.9,")
        over = cli("sweep", "--config", str(cfgfile), "--pi0", "0.5")
        assert over.returncode == 0
        assert over.stdout.splitlines()[1].startswith("20,0.5,")

    def test_bad_inputs_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus = 1\n")
        res = cli("sweep", "--config", str(bad))
        assert res.returncode == 2
        assert res.stderr.startswith("error:")

        res = cli("align", "--n", "20", "--pi0", "0.5", "--mu", "fast")
        assert res.returncode == 2 and "mu" in res.stderr

        res = cli("thresholds")
        assert res.returncode == 2 and "error:" in res.stderr

        # the cases below run in process; the entry point is covered above and by
        # the subprocess in test_match_bad_inputs_exit_2
        # a pmf off by 1e-10 is refused by the config, not by a traceback
        res = _cli_in_process(["align", "--n", "10", "--model", "custom_p0",
                               "--p0", "0.5,0.4999999999"])
        assert res.returncode == 2 and "p0" in res.stderr
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1

        # a flag the run would not read is refused, not ignored: a param grid or
        # a noise flag of another model, a pmf under a model that reads none, and
        # a corruption rate for loaded observations
        obs = tmp_path / "obs.csv"
        obs.write_text(sample_match_observations(4, 2, 0.0, seed=5)[0].to_csv())
        for prefix, argv in (
                ("param", ["sweep", "--model", "custom_p0", "--p0", "0.9,0.1", "--m", "2",
                           "--pi0", "0.1,0.2", "--n", "20", "--trials", "2"]),
                ("param", ["align", "--n", "30", "--sigma", "0.9", "--iters", "2"]),
                ("param", ["align", "--n", "20", "--pi0", "0.5", "--sigma", "1.0"]),
                ("param", ["align", "--n", "30", "--m", "3", "--model", "modified_gaussian",
                           "--pi0", "1.4", "--iters", "2"]),
                ("param", ["sweep", "--n", "30", "--m", "2", "--model", "custom_p0",
                           "--p0", "0.9,0.1", "--sigma", "3", "--trials", "1", "--iters", "2"]),
                ("corrupt", ["match", "--obs", str(obs), "--n", "4", "--m", "2",
                             "--corrupt", "7"]),
                ("p0", ["align", "--n", "30", "--p0", "0.5,0.5,0"])):
            res = _cli_in_process(argv)
            assert res.returncode == 2 and res.stdout == "", argv
            assert res.stderr.startswith(f"error: {prefix}:"), argv
            assert len(res.stderr.splitlines()) == 1, argv

        dup = tmp_path / "dup.cfg"
        dup.write_text("n = 20\nm = 2\nn = 30\n")
        seed = tmp_path / "seed.cfg"
        seed.write_text("n = 20\nseed = -1\n")
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"n = 20\n# \xff\n")
        nowhere = str(tmp_path / "missing" / "out.csv")
        for argv in (["align", "--config", str(binary)],
                     ["align", "--n", "20", "--pi0", "0.9", "--iters", "2", "--out", nowhere],
                     ["match", "--obs", str(obs), "--n", "4", "--m", "2", "--out", nowhere],
                     ["align", "--n", "30", "--pobs", "x"],
                     ["align", "--n", "30", "--iters", "1.5"],
                     ["align", "--n", "30", "--mu=0/sigma2"],
                     ["align", "--n", "30", "--mu=-1/sigma2"],
                     ["align", "--n", "30", "--mu=nan/sigma2"],
                     ["align", "--n", "30", "--seed", "-1"],
                     ["align", "--config", str(seed)],
                     ["sweep", "--config", str(dup)],
                     ["match", "--n", "1", "--m", "3"],
                     ["match", "--m", "-2"],
                     ["match", "--corrupt", "1.5"],
                     ["thresholds", "--n", "1"],
                     ["thresholds", "--n", "100", "--m", "1"],
                     ["thresholds", "--n", "100", "--pobs", "0"],
                     ["thresholds", "--n", "1" + "0" * 400],
                     ["thresholds", "--n", "100", "--m", "1" + "0" * 400],
                     ["align", "--n", "30", "--m", "x"],
                     ["sweep", "--n", "30", "--trials", "x"],
                     ["align", "--n", "30", "--mu", "-1/sigma2"]):
            res = _cli_in_process(argv)
            assert res.returncode == 2, argv
            assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1, argv

        # an empty graph has sigma_2 = 0, so a sigma_2 scaling cannot be set
        for cmd in ("align", "sweep"):
            res = _cli_in_process([cmd, "--n", "6", "--pobs", "0.01", "--mu", "10/sigma2",
                                   "--pi0", "0.5", "--seed", "3"])
            assert res.returncode == 2 and "singular value" in res.stderr
            assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1

    def test_flag_sets(self):
        run = {"--config", "--seed", "--out", "--model", "--n", "--m", "--pobs", "--pi0",
               "--sigma", "--p0", "--mu", "--form", "--iters"}
        want = {
            "align": run | {"--truth-echo"},
            "sweep": run | {"--trials"},
            "match": {"--obs", "--n", "--m", "--corrupt", "--seed", "--iters", "--out"},
            "thresholds": {"--n", "--m", "--pobs", "--out"},
        }
        parser = ppmalign.cli.make_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(want)
        for name, p in sub.choices.items():
            actions = [a for a in p._actions if a.option_strings[0] != "-h"]
            assert {s for a in actions for s in a.option_strings} == want[name], name
            # every value stays text, for the key table to parse and default
            for a in actions:
                if a.dest != "truth_echo":
                    assert a.type is a.choices is a.default is None, (name, a.dest)

    def test_non_numbers_name_their_key(self):
        # every integer or number flag given "x": (command, flag, key, other flags)
        cases = [(cmd, flag, key, []) for cmd in ("align", "sweep")
                 for flag, key in (("n", "n"), ("m", "m"), ("pobs", "pobs"), ("pi0", "param"),
                                   ("p0", "p0"), ("iters", "iters"), ("seed", "seed"))]
        cases += [(cmd, "sigma", "param", ["--model", "modified_gaussian"])
                  for cmd in ("align", "sweep")]
        cases += [("sweep", "trials", "trials", [])]
        cases += [("match", flag, flag, []) for flag in ("n", "m", "corrupt", "seed", "iters")]
        cases += [("thresholds", "n", "n", [])]
        cases += [("thresholds", flag, flag, ["--n", "10"]) for flag in ("m", "pobs")]
        for cmd, flag, key, rest in cases:
            argv = [cmd, *rest, f"--{flag}", "x"]
            res = _cli_in_process(argv)
            assert res.returncode == 2 and res.stdout == "", argv
            assert res.stderr.startswith(f"error: {key}: expected "), (argv, res.stderr)
            assert len(res.stderr.splitlines()) == 1, argv

    def test_thresholds_table(self):
        res = cli("thresholds", "--n", "100,1000", "--m", "2")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == THRESHOLD_HEADER
        assert len(lines) == 3

    def test_thresholds_allocate_no_pmf(self, capsys):
        # a config would build the length-m random_corruption pmf, 80 MB here
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            status = ppmalign.cli.main(["thresholds", "--n", "100", "--m", "10000000"])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert status == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("100,10000000,1,")
        assert peak < 8e6

    def test_match_synthetic(self):
        res = cli("match", "--n", "12", "--m", "4", "--corrupt", "0.2",
                  "--iters", "10", "--seed", "3")
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == "i,feature,assigned"
        assert "final mismatch rate" in res.stderr

    def test_match_loads_observations(self, tmp_path):
        obs, _ = sample_match_observations(8, 3, 0.0, seed=4)
        path = tmp_path / "obs.csv"
        path.write_text(obs.to_csv())
        res = cli("match", "--obs", str(path), "--n", "8", "--m", "3",
                  "--iters", "10")
        assert res.returncode == 0
        assert len(res.stdout.splitlines()) == 1 + 8 * 3

        res = cli("match", "--obs", str(path))
        assert res.returncode == 2 and "needs --n and --m" in res.stderr

    def test_match_bad_inputs_exit_2(self, tmp_path):
        obs, _ = sample_match_observations(4, 2, 0.0, seed=5)
        lines = obs.to_csv().splitlines()
        bad_files = {
            "range": lines + ["9,0,0,0,1"],
            "duplicate": lines + [lines[1]],
            "incomplete": lines[:-1],
            # finite, but the eigensolver's squared norms would overflow
            "huge": [ln[:-2] + ",1e308" if ln.endswith(",1") else ln for ln in lines],
        }
        runs = [("--n", "abc"), ("--n", "0"), ("--m", "0"), ("--seed", "-1")]
        for name, text in bad_files.items():
            path = tmp_path / f"{name}.csv"
            path.write_text("\n".join(text) + "\n")
            runs.append(("--obs", str(path), "--n", "4", "--m", "2"))
        runs.append(("--obs", str(tmp_path / "range.csv"), "--n", "x", "--m", "2"))
        # the first case runs the entry point, the rest run in process
        for k, argv in enumerate(runs):
            res = cli("match", *argv) if k == 0 else _cli_in_process(["match", *argv])
            assert res.returncode == 2, argv
            assert res.stderr.startswith("error:"), argv
            assert len(res.stderr.splitlines()) == 1, argv
            assert "Traceback" not in res.stderr, argv


# valid small runs, one per subcommand and noise model, as flag -> value;
# --config and --obs, when present, name a file of the drawn bytes
_FUZZ_BASES = (
    ("align", {"--n": "20", "--m": "3", "--pi0": "0.6", "--iters": "3"}),
    ("align", {"--model": "modified_gaussian", "--n": "12", "--m": "5", "--sigma": "1.5",
               "--iters": "3"}),
    ("align", {"--model": "custom_p0", "--n": "12", "--m": "2", "--p0": "0.7,0.3",
               "--iters": "3"}),
    ("sweep", {"--n": "10,12", "--m": "2", "--pi0": "0.6,0.9", "--trials": "2",
               "--iters": "3"}),
    ("match", {"--n": "6", "--m": "3", "--iters": "3"}),
    ("match", {"--n": "4", "--m": "2", "--iters": "2", "--obs": None}),
    ("thresholds", {"--n": "10,100"}),
)
_RUN_FLAGS = ("--n", "--m", "--pobs", "--pi0", "--sigma", "--p0", "--mu", "--form", "--iters",
              "--seed", "--model", "--config")
_FUZZ_FLAGS = {
    "align": _RUN_FLAGS,
    "sweep": _RUN_FLAGS + ("--trials",),
    "match": ("--n", "--m", "--corrupt", "--seed", "--iters", "--obs"),
    "thresholds": ("--n", "--m", "--pobs"),
}
# None drops a flag
_FUZZ_VALUES = (
    None, "inf", "-inf", "nan", "1e308", "-1e308", "1e-320", "5e-324", "", "0", "-1", "1", "2",
    "3", "0.5", "1.5", "0.5,0.5", "0.2,0.3,0.5", "1e308,1e308", "0.5,nan", "inf,0", ",", "2,3",
    "inf/sigma2", "1e308/sigmam", "1e-320/sigma2", "5/sigmam", "/sigmam", "1/sigma", "2/",
    "nan/sigmam", "x", "gauss", "raw", "agreement", "debiased-loglik", "random_corruption",
    "modified_gaussian", "custom_p0",
)
_CONFIG_LINES = st.tuples(
    st.sampled_from(sorted(set(harness._CONFIG_KEYS) - {"out"})),
    st.sampled_from([v for v in _FUZZ_VALUES if v is not None]),
).map(lambda kv: f"{kv[0]} = {kv[1]}")
_OBS_LINES = st.lists(st.sampled_from(("0", "1", "2", "3", "-1", "nan", "inf", "1e308",
                                       "5e-324", "x", "")), min_size=5, max_size=5).map(",".join)
_FILE_BYTES = st.one_of(
    st.binary(max_size=64),
    st.lists(_CONFIG_LINES, max_size=4).map(lambda ls: "\n".join(ls).encode()),
    st.lists(_OBS_LINES, max_size=6).map(lambda ls: "\n".join(["i,j,row,col,value"] + ls).encode()),
)


@st.composite
def _fuzz_cases(draw):
    base = draw(st.integers(0, len(_FUZZ_BASES) - 1))
    flags = _FUZZ_FLAGS[_FUZZ_BASES[base][0]]
    changes = draw(st.lists(st.tuples(st.sampled_from(flags), st.sampled_from(_FUZZ_VALUES)),
                            min_size=1, max_size=2, unique_by=lambda c: c[0]))
    return base, tuple(changes), draw(_FILE_BYTES)


class TestCliFuzz:
    # the examples are the inputs that once ended in a traceback: a projection
    # scaled past the float range, a Gaussian width whose square overflows or
    # underflows, and a pmf whose sum overflows
    @settings(max_examples=300, deadline=None)
    @example(case=(0, (("--mu", "1e308"),), b""))
    @example(case=(0, (("--mu", "1e308/sigmam"),), b""))
    @example(case=(1, (("--sigma", "1e308"),), b""))
    @example(case=(1, (("--sigma", "5e-324"),), b""))
    @example(case=(2, (("--p0", "1e308,1e308"),), b""))
    @given(case=_fuzz_cases())
    def test_exit_0_or_one_error_line(self, case):
        base, changes, blob = case
        command, flags = _FUZZ_BASES[base]
        flags = {**flags, **dict(changes)}
        with tempfile.TemporaryDirectory() as tmp:
            for flag in ("--config", "--obs"):
                if flag in flags:
                    path = os.path.join(tmp, flag[2:])
                    with open(path, "wb") as fh:
                        fh.write(blob)
                    flags[flag] = path
            argv = [command] + [f"{k}={v}" for k, v in flags.items() if v is not None]
            res = _cli_in_process(argv)
        assert res.returncode == 0 or (res.returncode == 2 and res.stderr.startswith("error:")
                                       and len(res.stderr.splitlines()) == 1), res
