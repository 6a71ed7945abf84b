import json
import math
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from subsetci import Dataset, IndexSet, errors
from subsetci.criteria import Criterion, CriterionSpec, best_subset
from subsetci.harness import (
    SimulationConfig,
    _run_rep_chunk,
    _stream,
    analyze,
    dataset_report,
    emit_report,
    generate_design,
    ks_uniform,
    load_csv_dataset,
    parse_config_text,
    rep_stream,
    report_to_dict,
    simulate_coverage,
)
from subsetci.inference import (
    InferenceTarget,
    SigmaSpec,
    classical_ci,
    corrected_ci,
    estimate_sigma,
    pivot_value,
)
from subsetci.linmodel import adjusted_coefficients


def tiny_config(**over):
    base = dict(
        n=15, p=3, beta=(2.0, 1.0, 0.0), rho=0.3, sigma=1.0, reps=40,
        alpha=0.05, criterion=Criterion.AIC,
        sigma_strategies=(SigmaSpec.known(1.0), SigmaSpec.mse_aic()),
        n_new_points=2, master_seed=77,
    )
    base.update(over)
    return SimulationConfig(**base)


class TestGenerateDesign:
    def test_rho_zero_columns_nearly_independent(self):
        cfg = tiny_config(n=2000, p=4, beta=(0.0,) * 4, rho=0.0)
        X, _ = generate_design(cfg)
        corr = np.corrcoef(X.T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off) < 3 / math.sqrt(2000))

    def test_ar1_lag_one_correlation(self):
        cfg = tiny_config(n=4000, p=6, beta=(0.0,) * 6, rho=0.5)
        X, _ = generate_design(cfg)
        corr = np.corrcoef(X.T)
        lag1 = np.array([corr[j, j + 1] for j in range(5)])
        assert np.all(np.abs(lag1 - 0.5) < 0.05)
        # lag-2 decays to rho^2
        lag2 = np.array([corr[j, j + 2] for j in range(4)])
        assert np.all(np.abs(lag2 - 0.25) < 0.06)

    def test_same_seed_bit_identical(self):
        cfg = tiny_config()
        X1, pts1 = generate_design(cfg)
        X2, pts2 = generate_design(cfg)
        assert np.array_equal(X1, X2)
        assert np.array_equal(pts1, pts2)

    def test_invalid_rho(self):
        with pytest.raises(errors.InvalidRho):
            tiny_config(rho=1.0)

    def test_config_validation(self):
        with pytest.raises(errors.InputError):
            tiny_config(reps=0)
        with pytest.raises(errors.InputError):
            tiny_config(beta=(1.0,))
        with pytest.raises(errors.InputError):
            tiny_config(sigma_strategies=())

    def test_linear_combo_target_refused_at_config_time(self):
        with pytest.raises(errors.InputError, match="no study truth"):
            tiny_config(targets=(InferenceTarget.coefficient(1),
                                 InferenceTarget.linear_combo([1.0])))

    def test_prediction_point_must_match_the_design(self):
        # p=3 columns, one more with an intercept
        with pytest.raises(errors.DimensionMismatch, match="length 2, expected 3"):
            tiny_config(targets=(InferenceTarget.prediction_mean([1.0, 0.5]),))
        with pytest.raises(errors.DimensionMismatch, match="length 3, expected 4"):
            tiny_config(intercept=True,
                        targets=(InferenceTarget.prediction_mean([1.0, 0.5, 0.0]),))
        tiny_config(intercept=True,
                    targets=(InferenceTarget.prediction_mean([1.0, 1.0, 0.5, 0.0]),))

    def test_coefficient_index_must_name_a_design_column(self):
        for index in (0, 4, 7):
            with pytest.raises(errors.IndexOutOfRange, match=f"index {index} "):
                tiny_config(targets=(InferenceTarget.coefficient(index),))
        with pytest.raises(errors.IndexOutOfRange):
            tiny_config(intercept=True, targets=(InferenceTarget.coefficient(5),))
        tiny_config(intercept=True, targets=(InferenceTarget.coefficient(1),
                                             InferenceTarget.coefficient(4)))


class TestParseConfig:
    def test_round_trip_fields(self):
        text = """
        # simulation setup
        n = 20
        p = 4
        beta = 1, 2, 0, 0
        rho = 0.5
        sigma = 1.0
        reps = 10
        alpha = 0.10
        criterion = bic
        sigma_strategies = known:1.0, mse-full
        n_new_points = 3
        master_seed = 42
        fixed_design = false
        intercept = on
        """
        cfg = parse_config_text(text)
        assert cfg.n == 20 and cfg.p == 4
        assert cfg.beta == (1.0, 2.0, 0.0, 0.0)
        assert cfg.criterion is Criterion.BIC
        assert cfg.sigma_strategies == (SigmaSpec.known(1.0), SigmaSpec.mse_full())
        assert cfg.fixed_design is False and cfg.intercept is True

    def test_missing_required_key(self):
        with pytest.raises(errors.ParseError):
            parse_config_text("n = 10\np = 2\nbeta = 1,0\nrho = 0\nsigma = 1")

    def test_unknown_key_rejected(self):
        with pytest.raises(errors.ParseError):
            parse_config_text(
                "n=10\np=2\nbeta=1,0\nrho=0\nsigma=1\nreps=5\nwat=1")
        # superset skipping follows each direction; it is no longer a setting
        with pytest.raises(errors.ParseError, match="unknown config keys"):
            parse_config_text("n=10\np=2\nbeta=1,0\nrho=0\nsigma=1\nreps=5\n"
                              "skip_supersets = off")


class TestSimulateCoverage:
    def test_deterministic_across_runs(self):
        cfg = tiny_config(reps=25)
        r1 = simulate_coverage(cfg)
        r2 = simulate_coverage(cfg)
        d1, d2 = report_to_dict(r1), report_to_dict(r2)
        d1.pop("generated_at")
        d2.pop("generated_at")
        assert d1 == d2

    def test_worker_count_does_not_change_report(self):
        cfg = tiny_config(reps=30)
        seq = report_to_dict(simulate_coverage(cfg, workers=1))
        par = report_to_dict(simulate_coverage(cfg, workers=3))
        seq.pop("generated_at")
        par.pop("generated_at")
        assert seq == par

    @pytest.mark.parametrize("workers, reps, cpus, started", [
        (8, 5, 2, 2), (8, 3, 64, 3), (2, 30, 4, 2), (4, 30, None, None)])
    def test_worker_count_clamped(self, monkeypatch, workers, reps, cpus, started):
        """min(workers, reps, cpu count) processes; none when that is one.
        The executor runs chunks inline, so no process is spawned."""
        from subsetci import harness

        pools = []

        class InlineExecutor:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlineExecutor)
        rep = simulate_coverage(tiny_config(reps=reps), workers=workers)
        assert pools == ([] if started is None else [started])
        assert rep.reps_completed == reps

    @pytest.mark.parametrize("fixed, built", [(True, 1), (False, 12)])
    def test_one_candidate_set_per_design(self, monkeypatch, fixed, built):
        from subsetci import criteria

        inits = []
        init = criteria.CandidateSet.__init__
        monkeypatch.setattr(criteria.CandidateSet, "__init__",
                            lambda self, *args: inits.append(1) or init(self, *args))
        simulate_coverage(tiny_config(reps=12, fixed_design=fixed))
        assert len(inits) == built

    def test_histogram_conserves_replications(self):
        cfg = tiny_config(reps=35)
        rep = simulate_coverage(cfg)
        assert sum(rep.histogram.values()) == rep.reps_completed
        assert rep.reps_completed + len(rep.failures) == cfg.reps

    def test_corrected_not_worse_than_classical_and_pivots_uniform(self):
        cfg = tiny_config(n=15, p=3, beta=(2.0, 1.0, 0.0), reps=200,
                          sigma_strategies=(SigmaSpec.known(1.0),),
                          n_new_points=2)
        rep = simulate_coverage(cfg, workers=2)
        cov_c = rep.pooled_coverage("known", "corrected")
        cov_u = rep.pooled_coverage("known", "uncorrected")
        # Monte Carlo noise at 400 cells ~ 0.025; allow 3 sigma
        assert cov_c >= cov_u - 0.075
        for key, piv in rep.pivots.items():
            assert ks_uniform(piv) < 0.1

    def test_unconditional_control_without_selection(self):
        # no-selection sanity: classical known-sigma interval on the full
        # model covers at the nominal rate when no model search happens
        from subsetci.inference import classical_ci
        rng = np.random.default_rng(4242)
        n, p = 25, 3
        X = rng.standard_normal((n, p))
        base = Dataset(X, np.zeros(n), ("a", "b", "c"))
        full = base.full_model()
        x_new = rng.standard_normal(p)
        target = InferenceTarget.prediction_mean(x_new)
        hits = 0
        reps = 600
        for _ in range(reps):
            y = rng.standard_normal(n)  # beta = 0
            d = base.replace_y(y)
            ci = classical_ci(d, full, target, 0.05, SigmaSpec.known(1.0))
            hits += int(ci.lower < 0.0 < ci.upper)
        cov = hits / reps
        assert abs(cov - 0.95) < 3 * math.sqrt(0.95 * 0.05 / reps)

    def test_sigma_means_recorded(self):
        cfg = tiny_config(reps=25)
        rep = simulate_coverage(cfg)
        assert rep.sigma_means["known"] == pytest.approx(1.0)
        assert rep.sigma_means["mse_aic"] > 0

    def test_failures_recorded_not_dropped(self):
        # AICc cannot score the largest candidates at this sample size, so
        # every replication fails; the report must say so, loudly
        cfg = tiny_config(n=6, p=5, beta=(1.0, 0.0, 0.0, 0.0, 0.0),
                          reps=7, criterion=Criterion.AICC,
                          sigma_strategies=(SigmaSpec.known(1.0),),
                          n_new_points=1)
        rep = simulate_coverage(cfg)
        assert rep.reps_completed == 0
        assert len(rep.failures) == 7
        assert all("AICcDegenerate" in msg for _, msg in rep.failures)
        doc = report_to_dict(rep)
        assert len(doc["failures"]) == 7

    def test_contribution_metric_present_with_both_strategies(self):
        cfg = tiny_config(reps=40, sigma_strategies=(
            SigmaSpec.known(1.0), SigmaSpec.mse_aic()))
        rep = simulate_coverage(cfg)
        # may be None if the t-based loss is zero at this scale, but the
        # field must exist and be in [0, 1] when defined
        if rep.sigma_contribution is not None:
            assert rep.sigma_contribution <= 1.0


def _replications(cfg, X):
    """(data, noiseless mean, selected model) of every replication, drawn
    the way the coverage study draws them; designs without an intercept."""
    idx = np.arange(cfg.p)
    chol = np.linalg.cholesky(cfg.rho ** np.abs(idx[:, None] - idx[None, :]))
    names = tuple(f"x{j}" for j in range(1, cfg.p + 1))
    spec = CriterionSpec(cfg.criterion, cfg.n)
    for rep in range(cfg.reps):
        noise = rep_stream(cfg.master_seed, rep).standard_normal(cfg.n)
        Xr = X if cfg.fixed_design else _stream(
            cfg.master_seed, 3, rep).standard_normal((cfg.n, cfg.p)) @ chol.T
        mean = Xr @ np.asarray(cfg.beta)
        data = Dataset(Xr, mean + cfg.sigma * noise, names)
        yield data, mean, best_subset(data, spec)[0]


# x1 is selected in every replication, x3 (beta 0) in some of them
COEF_TARGETS = (InferenceTarget.coefficient("x1"), InferenceTarget.coefficient("x3"))


class TestCoefficientTargets:
    @pytest.mark.parametrize("fixed", [True, False])
    def test_applicable_follows_selection(self, fixed):
        cfg = tiny_config(reps=30, beta=(3.0, 1.0, 0.0), targets=COEF_TARGETS,
                          fixed_design=fixed)
        X, _ = generate_design(cfg)
        chunk = _run_rep_chunk(cfg, X, cfg.targets, 0, cfg.reps)
        assert chunk["ok"].all()
        selected = [S_hat for _, _, S_hat in _replications(cfg, X)]
        expect = [[int(1 in S), int(3 in S)] for S in selected]
        assert chunk["applicable"].tolist() == expect
        assert all(row[0] for row in expect)
        assert 0 < sum(row[1] for row in expect) < cfg.reps

    @pytest.mark.parametrize("fixed", [True, False])
    def test_replication_without_applicable_target_still_counts(self, fixed):
        cfg = tiny_config(reps=30, beta=(3.0, 1.0, 0.0), fixed_design=fixed,
                          targets=(InferenceTarget.coefficient("x3"),))
        rep = simulate_coverage(cfg)
        X, _ = generate_design(cfg)
        reps = list(_replications(cfg, X))
        dropped = sum(3 not in S_hat for _, _, S_hat in reps)
        assert 0 < dropped < cfg.reps
        assert rep.reps_completed == cfg.reps
        assert sum(rep.histogram.values()) == cfg.reps
        assert rep.cell("x3", "mse_aic", "corrected").count == cfg.reps - dropped
        mse = [estimate_sigma(d, S_hat, SigmaSpec.mse_aic()) for d, _, S_hat in reps]
        assert rep.sigma_means["mse_aic"] == pytest.approx(np.mean(mse), rel=1e-12)

    @pytest.mark.parametrize("fixed", [True, False])
    def test_worker_count_does_not_change_report(self, fixed):
        cfg = tiny_config(reps=20, beta=(3.0, 1.0, 0.0), targets=COEF_TARGETS,
                          fixed_design=fixed)
        seq = report_to_dict(simulate_coverage(cfg, workers=1))
        par = report_to_dict(simulate_coverage(cfg, workers=2))
        seq.pop("generated_at")
        par.pop("generated_at")
        assert seq == par


ALL_STRATEGIES = (SigmaSpec.known(0.5), SigmaSpec.external(0.6),
                  SigmaSpec.mse_aic(), SigmaSpec.mse_full())


class TestOneArithmetic:
    """The coverage study and the analysis report build their intervals the
    way the single-target API does."""

    def test_analysis_rows_match_single_target_api(self):
        import importlib.resources as ir

        data = load_csv_dataset(
            str(ir.files("subsetci") / "data" / "us_consumption.csv"),
            "Consumption", intercept=True)
        alpha = 0.05
        rep = dataset_report(data, Criterion.AIC, alpha, ALL_STRATEGIES)
        spec = CriterionSpec(Criterion.AIC, data.n)
        rows = {(r.target, r.strategy, r.method): r for r in rep.rows}
        assert len(rows) == 2 * len(ALL_STRATEGIES) * len(rep.selected)

        def close(a, b):
            return a == pytest.approx(b, rel=1e-12, abs=0.0)

        for name in rep.selected_names:
            target = InferenceTarget.coefficient(name)
            for strat in ALL_STRATEGIES:
                cl = classical_ci(data, rep.selected, target, alpha, strat)
                cc = corrected_ci(data, None, rep.selected, target, alpha,
                                  strat, spec)
                for ci in (cl, cc):
                    row = rows[(name, strat.label, ci.method)]
                    assert close(row.lower, ci.lower)
                    assert close(row.upper, ci.upper)
                    assert close(row.point, ci.point_estimate)
                    assert close(row.sigma_used, ci.sigma_used)
                row = rows[(name, strat.label, cc.method)]
                assert close(row.pivot, pivot_value(
                    data, None, rep.selected, target, 0.0, strat, spec))

    @pytest.mark.parametrize("fixed", [True, False])
    def test_hits_are_containment_in_single_target_intervals(self, fixed):
        cfg = tiny_config(reps=6, beta=(3.0, 1.0, 0.0), fixed_design=fixed,
                          n_new_points=2, sigma_strategies=ALL_STRATEGIES)
        X, points = generate_design(cfg)
        targets = tuple(InferenceTarget.prediction_mean(x) for x in points)
        targets += COEF_TARGETS
        chunk = _run_rep_chunk(cfg, X, targets, 0, cfg.reps)
        assert chunk["ok"].all()
        spec = CriterionSpec(cfg.criterion, cfg.n)
        for r, (data, mean, S_hat) in enumerate(_replications(cfg, X)):
            adj = adjusted_coefficients(data, S_hat, mean)
            for ti, target in enumerate(targets):
                if target.kind == "prediction_mean":
                    truth = float(np.asarray(target.x) @ np.asarray(cfg.beta))
                elif data.index_of(target.name) in S_hat:
                    truth = float(adj[S_hat.position_of(data.index_of(target.name))])
                else:
                    assert chunk["applicable"][r, ti] == 0
                    continue
                assert chunk["applicable"][r, ti] == 1
                for si, strat in enumerate(ALL_STRATEGIES):
                    cl = classical_ci(data, S_hat, target, cfg.alpha, strat)
                    cc = corrected_ci(data, None, S_hat, target, cfg.alpha,
                                      strat, spec)
                    assert chunk["hits_unc"][r, ti, si] == (cl.lower < truth < cl.upper)
                    assert chunk["hits_cor"][r, ti, si] == (cc.lower < truth < cc.upper)
                    assert chunk["pivots"][r, ti, si] == pytest.approx(pivot_value(
                        data, None, S_hat, target, truth, strat, spec),
                        rel=1e-12, abs=0.0)


class TestAnalyze:
    @pytest.fixture
    def synthetic_csv(self, tmp_path, rng):
        n = 60
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        x3 = rng.standard_normal(n)
        y = 3.0 + 2.0 * x1 - 1.5 * x2 + 0.3 * rng.standard_normal(n)
        path = tmp_path / "synthetic.csv"
        with open(path, "w") as fh:
            fh.write("y,x1,x2,x3\n")
            for i in range(n):
                fh.write(f"{float(y[i])!r},{float(x1[i])!r},{float(x2[i])!r},{float(x3[i])!r}\n")
        return path

    def test_selects_true_support_and_rejects_zero(self, synthetic_csv):
        rep = analyze(str(synthetic_csv), "y",
                      sigma_strategies=[SigmaSpec.mse_full()], intercept=True)
        assert rep.selected_names == ("Intercept", "x1", "x2")
        for row in rep.rows:
            if row.target in ("x1", "x2") and row.method == "corrected":
                assert not (row.lower < 0.0 < row.upper)

    def test_csv_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(errors.ParseError) as exc:
            analyze(str(path), "y")
        assert exc.value.row == 3
        assert exc.value.column == "x1"

    def test_missing_response_column(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        with pytest.raises(errors.ParseError):
            analyze(str(path), "nope")

    def test_p_equals_one_corrected_equals_classical(self, tmp_path, rng):
        n = 30
        x = rng.standard_normal(n)
        y = 2.0 * x + 0.5 * rng.standard_normal(n)
        path = tmp_path / "single.csv"
        with open(path, "w") as fh:
            fh.write("y,x\n")
            for i in range(n):
                fh.write(f"{float(y[i])!r},{float(x[i])!r}\n")
        rep = analyze(str(path), "y", sigma_strategies=[SigmaSpec.mse_aic()],
                      intercept=False)
        # single candidate: no competitors, so nothing is excluded and the
        # corrected interval is the untruncated plug-in normal interval
        assert rep.excluded_regions[0][1] == ()
        from scipy.stats import norm
        data = load_csv_dataset(str(path), "y", intercept=False)
        from subsetci.inference import eta_for_target
        eta = eta_for_target(data, IndexSet((1,)),
                             InferenceTarget.coefficient("x"))
        scale = float(np.linalg.norm(eta))
        cc = next(r for r in rep.rows
                  if r.target == "x" and r.method == "corrected")
        half = norm.ppf(0.975) * cc.sigma_used * scale
        assert cc.lower == pytest.approx(cc.point - half, abs=1e-7)
        assert cc.upper == pytest.approx(cc.point + half, abs=1e-7)

    def test_label_column_is_dropped(self, tmp_path):
        path = tmp_path / "labeled.csv"
        path.write_text("Quarter,y,x\n1970Q1,1.0,0.5\n1970Q2,2.0,1.5\n"
                        "1970Q3,2.5,2.0\n1970Q4,4.0,3.0\n")
        data = load_csv_dataset(str(path), "y", intercept=False)
        assert data.column_names == ("x",)
        assert data.n == 4



class TestEmitReport:
    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(reps=10)
        rep = simulate_coverage(cfg)
        paths = emit_report(rep, format="json", out_dir=str(tmp_path))
        with open(paths[0]) as fh:
            loaded = json.load(fh)
        fresh = report_to_dict(rep)
        loaded.pop("generated_at")
        fresh.pop("generated_at")
        assert loaded == fresh

    def test_schema_keys_stable(self, tmp_path):
        cfg = tiny_config(reps=8)
        doc = report_to_dict(simulate_coverage(cfg))
        for key in ("config", "selected_model", "scores", "targets",
                    "coverage", "histogram", "excluded_regions"):
            assert key in doc

    def test_empty_strategy_analysis_is_valid_json(self, tmp_path, rng):
        n = 20
        X = rng.standard_normal((n, 2))
        y = X @ np.array([2.0, 0.0]) + 0.1 * rng.standard_normal(n)
        d = Dataset(X, y, ("a", "b"))
        rep = dataset_report(d, Criterion.AIC, 0.05, sigma_strategies=[])
        doc = report_to_dict(rep)
        assert doc["targets"] == []
        assert doc["excluded_regions"] == []
        assert doc["selected_model"] is not None
        paths = emit_report(rep, format="json", out_dir=str(tmp_path))
        json.loads(Path(paths[0]).read_text())

    def test_csv_output(self, tmp_path):
        cfg = tiny_config(reps=8)
        rep = simulate_coverage(cfg)
        paths = emit_report(rep, format="csv", out_dir=str(tmp_path))
        lines = Path(paths[0]).read_text().splitlines()
        assert lines[0] == "target,strategy,method,coverage,stderr,relative_loss"
        assert len(lines) == 1 + len(rep.cells)

    def test_plotdata_column_arithmetic(self, tmp_path):
        cfg = tiny_config(reps=8, sigma_strategies=(
            SigmaSpec.known(1.0), SigmaSpec.mse_aic(), SigmaSpec.mse_full()))
        rep = simulate_coverage(cfg)
        paths = emit_report(rep, format="plotdata", out_dir=str(tmp_path))
        cov_path = [p for p in paths if "coverage_vs_point" in p][0]
        header = Path(cov_path).read_text().splitlines()[0].split(",")
        assert len(header) == 2 + 3
        hist_path = [p for p in paths if "histogram" in p][0]
        rows = Path(hist_path).read_text().splitlines()
        total = sum(int(r.split(",")[1]) for r in rows[1:])
        assert total == rep.reps_completed

    def test_unknown_format_rejected(self):
        cfg = tiny_config(reps=5)
        rep = simulate_coverage(cfg)
        with pytest.raises(errors.InputError):
            emit_report(rep, format="xml")

    def test_analysis_events_list_comparisons(self, rng, tmp_path):
        n = 30
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        y = 3.0 * x1 + 0.5 * rng.standard_normal(n)
        path = tmp_path / "d.csv"
        with open(path, "w") as fh:
            fh.write("y,x1,x2\n")
            for i in range(n):
                fh.write(f"{float(y[i])!r},{float(x1[i])!r},{float(x2[i])!r}\n")
        rep = analyze(str(path), "y", sigma_strategies=[SigmaSpec.mse_aic()],
                      intercept=False)
        doc = report_to_dict(rep)
        assert doc["events"], "per-target event summaries missing"
        ev = doc["events"][0]
        # every comparison is either skipped with a reason or carries its
        # feasible intervals
        n_candidates = 2 ** 2 - 1
        assert len(ev["comparisons"]) == n_candidates - 1
        for comp in ev["comparisons"]:
            if comp["skipped"]:
                assert comp["reason"]
                assert comp["intervals"] is None
            else:
                assert isinstance(comp["intervals"], list)
        json.dumps(doc)  # fully serializable
