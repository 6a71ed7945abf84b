import csv
import dataclasses
import json
import math
import os
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from subsetci import Dataset, IndexSet, errors
from subsetci.criteria import Criterion, CriterionSpec, best_subset
from subsetci.geometry import cut_comparisons, event_regions
from subsetci.harness import (
    SimulationConfig,
    _run_rep_chunk,
    _stream,
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
    target_directions,
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

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_refused_at_config_time(self, entry):
        # refused before a design is generated, naming the entry's position
        with pytest.raises(errors.InputError, match=f"beta entry 2 is {entry}"):
            tiny_config(beta=(1.0, entry, 0.0))

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

    def test_coefficient_name_beyond_the_design_refused_at_config_time(self):
        # the design's columns are x1..xp
        with pytest.raises(errors.IndexOutOfRange, match="'x9'"):
            tiny_config(p=4, beta=(1.0, 0.0, 0.0, 0.0),
                        targets=(InferenceTarget.coefficient("x9"),))
        tiny_config(p=4, beta=(1.0, 0.0, 0.0, 0.0),
                    targets=(InferenceTarget.coefficient("x4"),))

    def test_intercept_name_needs_an_intercept(self):
        with pytest.raises(errors.IndexOutOfRange, match="'Intercept'"):
            tiny_config(targets=(InferenceTarget.coefficient("Intercept"),))
        tiny_config(intercept=True,
                    targets=(InferenceTarget.coefficient("Intercept"),))

    def test_targets_sharing_a_cell_name_refused_at_config_time(self):
        # a prediction in place i names its cells x<i>, a coefficient its
        # label: two targets of one name would merge their cells and pivots
        for targets, message in (
                ((InferenceTarget.prediction_mean((1.0, 0.5, 0.2)),
                  InferenceTarget.coefficient("x1")),
                 "targets 1 and 2 share the cell name 'x1'"),
                ((InferenceTarget.coefficient(3), InferenceTarget.coefficient("x2"),
                  InferenceTarget.coefficient("x2")),
                 "targets 2 and 3 share the cell name 'x2'")):
            with pytest.raises(errors.InputError, match=message):
                tiny_config(reps=8, sigma_strategies=(SigmaSpec.known(1.0),),
                            targets=targets)
        # an index target is labelled coef[i], not by its column's name
        rep = simulate_coverage(tiny_config(
            reps=8, sigma_strategies=(SigmaSpec.known(1.0),),
            targets=(InferenceTarget.coefficient(1), InferenceTarget.coefficient("x1"))))
        assert [c.target for c in rep.cells] == ["coef[1]"] * 2 + ["x1"] * 2
        assert sorted(rep.pivots) == [("coef[1]", "known"), ("x1", "known")]


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

    def test_study_sweeps_once_per_block_and_builds_no_records(
            self, monkeypatch):
        # a table1-shaped study reads only its events' regions: one sweep
        # per block of replications, and no comparison record
        from subsetci import geometry, harness

        sweeps, records = [], []
        allowed, record = geometry._allowed, geometry.ComparisonRecord
        monkeypatch.setattr(geometry, "_allowed",
                            lambda *args: sweeps.append(1) or allowed(*args))
        monkeypatch.setattr(geometry, "ComparisonRecord",
                            lambda *args: records.append(1) or record(*args))
        cfg = SimulationConfig(
            n=50, p=10, beta=(1.0, 2.0, 3.0) + (0.0,) * 7, rho=0.5, sigma=1.0,
            reps=30, master_seed=0, sigma_strategies=(
                SigmaSpec.known(1.0), SigmaSpec.mse_aic(), SigmaSpec.mse_full(),
                SigmaSpec.external(1.1)))
        rep = simulate_coverage(cfg)
        assert rep.reps_completed == cfg.reps
        blocks = -(-cfg.reps // harness.BLOCK)
        assert blocks == 2
        assert (len(sweeps), len(records)) == (blocks, 0)

    def test_study_measures_each_replication_once(self, measurements):
        # the cut measures a replication's directions, and its interval
        # cells take that measurement
        cfg = tiny_config(reps=12, n_new_points=3)
        rep = simulate_coverage(cfg)
        assert rep.reps_completed == cfg.reps
        assert len(measurements) == cfg.reps

    def test_study_solves_no_comparison_that_cannot_fail(self, monkeypatch):
        # an upward parabola without a real root fails nowhere, so a
        # table1-shaped study never hands one to the root solver, which it
        # calls once per block of replications
        from subsetci import geometry, harness

        solved, rootless = [], []
        forbidden = geometry._forbidden

        def counted(a2, a1, a0, scale2, scale1, shift):
            quad = np.abs(a2) > geometry.LEAD_TOL * scale2
            rootless.append(int((quad & (a2 > 0.0)
                                 & ~(a1 * a1 - 4.0 * a2 * a0 > 0.0)).sum()))
            solved.append(a2.size)
            return forbidden(a2, a1, a0, scale2, scale1, shift)

        monkeypatch.setattr(geometry, "_forbidden", counted)
        cfg = SimulationConfig(
            n=50, p=10, beta=(1.0, 2.0, 3.0) + (0.0,) * 7, rho=0.5, sigma=1.0,
            reps=30, master_seed=0, sigma_strategies=(
                SigmaSpec.known(1.0), SigmaSpec.mse_aic(), SigmaSpec.mse_full(),
                SigmaSpec.external(1.1)))
        rep = simulate_coverage(cfg)
        assert rep.reps_completed == cfg.reps
        assert len(solved) == -(-cfg.reps // harness.BLOCK) and sum(solved) > 0
        assert sum(rootless) == 0

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
        counts = {(c.target, c.strategy, c.method): c.count for c in rep.cells}
        assert counts["x3", "mse_aic", "corrected"] == cfg.reps - dropped
        mse = [estimate_sigma(d, S_hat, SigmaSpec.mse_aic()) for d, _, S_hat in reps]
        assert rep.sigma_means["mse_aic"] == pytest.approx(np.mean(mse), rel=1e-12)

    def test_zero_direction_target_is_not_applicable(self):
        # the point (0, 0, 0, 1) has a zero direction in every model without
        # x4: like an unselected coefficient, it is left out of that
        # replication
        cfg = SimulationConfig(
            n=30, p=4, beta=(1.0, 0.0, 0.0, 0.0), rho=0.3, sigma=1.0, reps=20,
            sigma_strategies=(SigmaSpec.known(1.0),),
            targets=(InferenceTarget.prediction_mean((0, 0, 0, 1)),
                     InferenceTarget.prediction_mean((1, 1, 1, 1))))
        rep = simulate_coverage(cfg)
        X, _ = generate_design(cfg)
        with_x4 = sum(4 in S_hat for _, _, S_hat in _replications(cfg, X))
        assert 0 < with_x4 < cfg.reps
        assert rep.reps_completed == cfg.reps
        counts = {(c.target, c.strategy, c.method): c.count for c in rep.cells}
        assert counts["x1", "known", "corrected"] == with_x4
        assert counts["x2", "known", "corrected"] == cfg.reps

    def test_point_scaled_by_a_power_of_two_gives_the_same_cells(self):
        # the directions of x0 * 2**-540 have entries whose squares
        # underflow; the study once counted them as zero directions and
        # reported no replication in any cell
        base = dict(n=15, p=6, beta=(1.0, 2.0, 3.0, 0.0, 0.0, 0.0), rho=0.5,
                    sigma=1.0, reps=40, master_seed=3,
                    sigma_strategies=(SigmaSpec.known(1.0),))
        _, points = generate_design(SimulationConfig(**base))
        reports = [simulate_coverage(SimulationConfig(**base, targets=(
            InferenceTarget.prediction_mean(np.ldexp(points[0], k)),)))
            for k in (0, -540)]
        cells = [[(c.target, c.strategy, c.method, c.hits, c.count)
                  for c in rep.cells] for rep in reports]
        assert cells[0] == cells[1]
        assert all(count > 0 for *_, count in cells[0])
        (key,) = reports[0].pivots
        assert np.array_equal(reports[0].pivots[key], reports[1].pivots[key])

    def test_refused_point_leaves_the_other_targets_their_cells(self):
        # the directions of x0 * 2**-1070 are too small for eta / |eta|^2 and
        # the zero point's are zero: each refusal once failed the whole
        # replication, and x0 lost its cells with it
        base = dict(n=15, p=6, beta=(1.0, 2.0, 3.0, 0.0, 0.0, 0.0), rho=0.5,
                    sigma=1.0, reps=3, master_seed=3,
                    sigma_strategies=(SigmaSpec.known(1.0),))
        _, points = generate_design(SimulationConfig(**base))
        x0 = InferenceTarget.prediction_mean(points[0])
        rep = simulate_coverage(SimulationConfig(**base, targets=(
            x0, InferenceTarget.prediction_mean(np.ldexp(points[0], -1070)),
            InferenceTarget.prediction_mean((0.0,) * 6))))
        alone = simulate_coverage(SimulationConfig(**base, targets=(x0,)))
        assert rep.reps_completed == 3 and rep.failures == []
        assert all(c.count == 0 for c in rep.cells if c.target != "x1")
        cells = [[(c.strategy, c.method, c.hits, c.count)
                  for c in r.cells if c.target == "x1"] for r in (rep, alone)]
        assert cells[0] == cells[1]
        assert all(count == 3 for *_, count in cells[0])
        # the Gram's kernel rounds a direction by the stack it is in
        key = ("x1", "known")
        np.testing.assert_allclose(rep.pivots[key], alone.pivots[key],
                                   rtol=1e-12, atol=0)

    def test_event_beyond_the_float_range_scales_back_without_a_warning(self):
        # the event of x0 * 2**1020 in replication 0 has the piece
        # (-inf, -110.57 * 2**1020), beyond the largest float: scaling it
        # back warned "overflow encountered in ldexp", an error under -W
        # error, and left the row a piece with no width in front
        cfg = SimulationConfig(n=15, p=6, beta=(1.0, 2.0, 3.0, 0.0, 0.0, 0.0),
                               rho=0.5, sigma=1.0, reps=14, master_seed=3,
                               sigma_strategies=(SigmaSpec.known(1.0),))
        X, points = generate_design(cfg)
        spec = CriterionSpec(cfg.criterion, cfg.n)
        sig = SigmaSpec.known(1.0)
        targets = [InferenceTarget.prediction_mean(np.ldexp(points[0], k))
                   for k in (0, 1020)]
        for rep, (data, _, S_hat) in enumerate(_replications(cfg, X)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                base, big = (corrected_ci(data, None, S_hat, t, 0.05, sig, spec)
                             for t in targets)
                etas = target_directions(data, S_hat, targets)
                (lo, hi), = event_regions(
                    [cut_comparisons(data, data.y, etas, S_hat, spec)])
            assert (big.lower, big.upper) == (math.ldexp(base.lower, 1020),
                                              math.ldexp(base.upper, 1020))
            # each row's pieces stay at its front
            real = lo < hi
            assert not (~real[:, :-1] & real[:, 1:]).any()
            if rep == 0:
                assert real.sum(axis=1).tolist() == [4, 3]
                assert lo[0, 0] == -math.inf and hi[0, 0] < -110

    def test_point_whose_truth_overflows_is_refused_without_a_warning(self):
        # x0 * 2**1023 has a truth x'beta beyond the largest float, which
        # warned "overflow encountered" before its direction was refused
        base = dict(n=15, p=6, beta=(1.0, 2.0, 3.0, 0.0, 0.0, 0.0), rho=0.5,
                    sigma=1.0, reps=3, master_seed=3,
                    sigma_strategies=(SigmaSpec.known(1.0),))
        _, points = generate_design(SimulationConfig(**base))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = simulate_coverage(SimulationConfig(**base, targets=(
                InferenceTarget.prediction_mean(points[0]),
                InferenceTarget.prediction_mean(np.ldexp(points[0], 1023)))))
        assert rep.reps_completed == 3
        assert [c.count for c in rep.cells] == [3, 3, 0, 0]

    @pytest.mark.parametrize("fixed", [True, False])
    def test_worker_count_does_not_change_report(self, fixed):
        cfg = tiny_config(reps=20, beta=(3.0, 1.0, 0.0), targets=COEF_TARGETS,
                          fixed_design=fixed)
        seq = report_to_dict(simulate_coverage(cfg, workers=1))
        par = report_to_dict(simulate_coverage(cfg, workers=2))
        seq.pop("generated_at")
        par.pop("generated_at")
        assert seq == par


def _chunks_by_block(monkeypatch, cfg, targets, lo, hi, stand_ins=None):
    """``_run_rep_chunk`` over ``[lo, hi)`` at blocks of 1, 3, 16 and more
    than the chunk; ``stand_ins()`` gives fresh harness attributes per run."""
    from subsetci import harness

    X, _ = generate_design(cfg)
    chunks = []
    for block in (1, 3, 16, hi - lo + 1):
        monkeypatch.setattr(harness, "BLOCK", block)
        for name, fn in (stand_ins() if stand_ins else {}).items():
            monkeypatch.setattr(harness, name, fn)
        chunks.append(_run_rep_chunk(cfg, X, targets, lo, hi))
    return chunks


def _assert_same_chunks(chunks):
    first = chunks[0]
    for chunk in chunks[1:]:
        assert chunk.keys() == first.keys()
        assert chunk["failures"] == first["failures"]
        for key, value in first.items():
            if isinstance(value, np.ndarray):
                assert value.dtype == chunk[key].dtype
                assert np.array_equal(value, chunk[key], equal_nan=True), key


class TestBlocks:
    """A chunk's numbers do not depend on how many replications share one
    truncated-normal solve."""

    @pytest.mark.parametrize("fixed", [True, False])
    @pytest.mark.parametrize("targets", ["mixed", "coefficient"])
    def test_block_size_does_not_change_chunk(self, monkeypatch, fixed, targets):
        cfg = tiny_config(reps=40, beta=(3.0, 1.0, 0.0), fixed_design=fixed,
                          sigma_strategies=ALL_STRATEGIES)
        X, points = generate_design(cfg)
        if targets == "mixed":
            chosen = tuple(InferenceTarget.prediction_mean(x) for x in points)
            chosen += COEF_TARGETS
        else:
            # x3 is selected in some replications only: the others have no cell
            chosen = (InferenceTarget.coefficient("x3"),)
        chunks = _chunks_by_block(monkeypatch, cfg, chosen, 5, 40)
        _assert_same_chunks(chunks)
        assert chunks[0]["ok"].all()
        if targets == "coefficient":
            assert 0 < chunks[0]["applicable"].sum() < 35

    @pytest.mark.parametrize("fixed", [True, False])
    def test_failures_stay_with_their_replication(self, monkeypatch, fixed):
        """Replication 5 fails in its selection phase, and replication 2 in
        its block's pivot evaluation: its first region is cut to within one
        unit of the observation and its truth moved to 1e300, where that
        region carries no representable mass.  Each fails alone, with the
        message a solve of its own gives, and in replication order."""
        from subsetci import harness

        real_truths, real_cut = harness._truths, harness.cut_comparisons
        real_regions = harness.event_regions

        def stand_ins():
            calls, cut = [], []

            def truths(*args):
                calls.append(1)
                if len(calls) == 6:
                    raise errors.NonPositiveRSS("injected")
                out = real_truths(*args)
                if len(calls) == 3:
                    out[0] = 1e300
                return out

            def comparisons(data, y, etas, *args, **kwargs):
                out = real_cut(data, y, etas, *args, **kwargs)
                if len(calls) == 3:
                    cut.append((out, float(etas[0] @ y)))
                return out

            def regions(batch):
                out = real_regions(batch)
                for (lo, hi), item in zip(out, batch):
                    if cut and item is cut[0][0]:
                        x = cut[0][1]
                        lo[0], hi[0] = 0.0, 0.0
                        lo[0, 0], hi[0, 0] = x - 1.0, x + 1.0
                return out

            return {"_truths": truths, "cut_comparisons": comparisons,
                    "event_regions": regions}

        cfg = tiny_config(reps=20, fixed_design=fixed)
        _, points = generate_design(cfg)
        targets = tuple(InferenceTarget.prediction_mean(x) for x in points)
        chunks = _chunks_by_block(monkeypatch, cfg, targets, 0, 20, stand_ins)
        _assert_same_chunks(chunks)
        assert chunks[0]["failures"] == [
            (2, "RegionMassUnderflow: region carries no representable mass "
                "at mu=1e+300"),
            (5, "NonPositiveRSS: injected")]
        assert np.flatnonzero(~chunks[0]["ok"]).tolist() == [2, 5]

    @pytest.mark.parametrize("fixed", [True, False])
    def test_region_check_failure_stays_with_its_replication(
            self, monkeypatch, fixed):
        """Replication 7's comparisons gain one that fails on the whole
        line, so its observation falls outside its region in the block's
        one sweep.  It alone fails, with the message a call of its own
        gives; every other replication's numbers are those of blocks of one."""
        from subsetci import geometry, harness

        real_cut = harness.cut_comparisons
        own = []

        def stand_ins():
            calls = []

            def comparisons(*args, **kwargs):
                out = real_cut(*args, **kwargs)
                calls.append(1)
                if len(calls) == 8:
                    # a non-positive constant: fails everywhere
                    grown = {f.name: getattr(out, f.name)
                             for f in dataclasses.fields(out)}
                    for name, extra in (("row", 0), ("model", 0), ("a2", 0.0),
                                        ("a1", 0.0), ("a0", -1.0),
                                        ("scale2", 1.0), ("scale1", 1.0)):
                        grown[name] = np.append(grown[name], extra)
                    out = geometry.Comparisons(**grown)
                    own.append(geometry.event_regions([out])[0])
                return out

            return {"cut_comparisons": comparisons}

        cfg = tiny_config(reps=20, fixed_design=fixed)
        _, points = generate_design(cfg)
        targets = tuple(InferenceTarget.prediction_mean(x) for x in points)
        chunks = _chunks_by_block(monkeypatch, cfg, targets, 0, 20, stand_ins)
        _assert_same_chunks(chunks)
        assert len(own) == 4
        assert all(isinstance(e, errors.InvariantViolation) for e in own)
        message = f"InvariantViolation: {own[0]}"
        assert "outside its own selection event" in message
        assert chunks[0]["failures"] == [(7, message)]
        assert np.flatnonzero(~chunks[0]["ok"]).tolist() == [7]
        assert np.isnan(chunks[0]["sigmas"][7]).all()
        assert not chunks[0]["applicable"][7].any()
        X, _ = generate_design(cfg)
        clean = _run_rep_chunk(cfg, X, targets, 0, 20)
        assert clean["failures"] == [] and clean["ok"].all()
        others = np.arange(20) != 7
        for key, value in clean.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value[others], chunks[0][key][others],
                                      equal_nan=True), key

    def test_replication_clock(self, monkeypatch):
        """``rep_stream`` runs once per replication, in order, as that
        replication starts (before its selection): the benchmark's
        per-replication timings rely on it."""
        from subsetci import harness

        events = []
        stream, truths = harness.rep_stream, harness._truths

        def recorded_stream(seed, rep):
            events.append(("rep_stream", rep))
            return stream(seed, rep)

        def recorded_truths(*args):
            events.append(("truths",))
            return truths(*args)

        monkeypatch.setattr(harness, "rep_stream", recorded_stream)
        monkeypatch.setattr(harness, "_truths", recorded_truths)
        simulate_coverage(tiny_config(reps=30), workers=1)
        assert [e[1] for e in events if e[0] == "rep_stream"] == list(range(30))
        assert events == [e for rep in range(30)
                          for e in (("rep_stream", rep), ("truths",))]


ALL_STRATEGIES = (SigmaSpec.known(0.5), SigmaSpec.external(0.6),
                  SigmaSpec.mse_aic(), SigmaSpec.mse_full())


class TestOneArithmetic:
    """The coverage study and the analysis report build their intervals the
    way the single-target API does."""

    def test_analysis_measures_its_directions_at_most_twice(self, measurements):
        # once in the selection events' cut, once for the interval table
        import importlib.resources as ir

        data = load_csv_dataset(
            str(ir.files("subsetci") / "data" / "us_consumption.csv"),
            "Consumption", intercept=True)
        rep = dataset_report(data, Criterion.AIC, 0.05, ALL_STRATEGIES)
        assert len(rep.rows) == 2 * len(ALL_STRATEGIES) * len(rep.selected)
        assert len(measurements) <= 2

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
        rep = dataset_report(load_csv_dataset(synthetic_csv, "y"), Criterion.AIC, 0.05,
                             [SigmaSpec.mse_full()], source=os.fspath(synthetic_csv),
                             response="y")
        assert rep.selected_names == ("Intercept", "x1", "x2")
        for row in rep.rows:
            if row.target in ("x1", "x2") and row.method == "corrected":
                assert not (row.lower < 0.0 < row.upper)

    def test_csv_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(errors.ParseError) as exc:
            load_csv_dataset(path, "y")
        assert exc.value.row == 3
        assert exc.value.column == "x1"

    @pytest.mark.parametrize("header, name", [("y,x1,y", "y"), ("x1,y,x1", "x1")])
    def test_repeated_header_name_is_refused(self, tmp_path, header, name):
        # refused before any row is read: the malformed second row is not
        # what the error names
        path = tmp_path / "twice.csv"
        path.write_text(f"{header}\n1.0,2.0,3.0\noops\n")
        with pytest.raises(errors.ParseError, match=f"column name '{name}' repeats"):
            load_csv_dataset(path, "y")

    def test_missing_response_column(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        with pytest.raises(errors.ParseError):
            load_csv_dataset(path, "nope")

    def test_p_equals_one_corrected_equals_classical(self, tmp_path, rng):
        n = 30
        x = rng.standard_normal(n)
        y = 2.0 * x + 0.5 * rng.standard_normal(n)
        path = tmp_path / "single.csv"
        with open(path, "w") as fh:
            fh.write("y,x\n")
            for i in range(n):
                fh.write(f"{float(y[i])!r},{float(x[i])!r}\n")
        rep = dataset_report(load_csv_dataset(path, "y", intercept=False), Criterion.AIC,
                             0.05, [SigmaSpec.mse_aic()], source=os.fspath(path),
                             response="y")
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

    @staticmethod
    def _strict_json(doc):
        """``doc`` through a JSON parser that refuses NaN and Infinity."""
        def refuse(token):
            raise ValueError(f"{token} is not JSON")
        return json.loads(json.dumps(doc), parse_constant=refuse)

    def test_statistics_of_no_replication_are_null(self, tmp_path):
        # x1 (beta 0) is never selected here, so its cells count nothing:
        # their statistics are null in JSON and empty fields in the CSV
        # report and the plot data
        cfg = tiny_config(n=40, p=4, beta=(0.0, 0.0, 0.0, 3.0), reps=6,
                          sigma_strategies=(SigmaSpec.known(1.0),),
                          targets=(InferenceTarget.coefficient("x1"),
                                   InferenceTarget.coefficient("x4")))
        rep = simulate_coverage(cfg)
        doc = self._strict_json(report_to_dict(rep))
        for cell in doc["coverage"]:
            empty = cell["target"] == "x1"
            assert cell["count"] == (0 if empty else cfg.reps)
            for key in ("coverage", "stderr", "relative_loss"):
                assert (cell[key] is None) == empty
        assert {k["target"]: k["ks"] is None for k in doc["pivot_ks"]} == \
            {"x1": True, "x4": False}
        assert doc["sigma_means"] == {"known": 1.0}
        rows = {}
        for fmt in ("csv", "plotdata"):
            for path in emit_report(rep, format=fmt, out_dir=str(tmp_path)):
                with open(path, newline="") as fh:
                    rows[os.path.basename(path)] = list(csv.reader(fh))[1:]
        # report.csv: target, strategy, method, then the three statistics;
        # coverage_vs_point.csv: point, then one coverage per column
        stats = ([(row[0], row[3:]) for row in rows["report.csv"]]
                 + [(row[0], row[1:]) for row in rows["coverage_vs_point.csv"]])
        assert sorted(target for target, _ in stats) == ["x1"] * 3 + ["x4"] * 3
        for target, values in stats:
            assert [v == "" for v in values] == [target == "x1"] * len(values)
            assert all(0.0 <= float(v) <= 1.0 for v in values if v)

    def test_report_of_no_completed_replication_is_json(self):
        # every replication fails (see test_failures_recorded_not_dropped)
        cfg = tiny_config(n=6, p=5, beta=(1.0, 0.0, 0.0, 0.0, 0.0),
                          reps=3, criterion=Criterion.AICC,
                          sigma_strategies=(SigmaSpec.known(1.0),),
                          n_new_points=1)
        doc = self._strict_json(report_to_dict(simulate_coverage(cfg)))
        assert doc["reps_completed"] == 0
        assert doc["sigma_means"] == {"known": None}
        assert all(c["coverage"] is None for c in doc["coverage"])
        assert all(k["ks"] is None for k in doc["pivot_ks"])

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
        rep = dataset_report(load_csv_dataset(path, "y", intercept=False), Criterion.AIC,
                             0.05, [SigmaSpec.mse_aic()], source=os.fspath(path),
                             response="y")
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
