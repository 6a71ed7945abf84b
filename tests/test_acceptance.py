"""Acceptance gate: every criterion prints one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s``.  The coverage studies
(criteria 3 to 5) and the quadrature oracle of criterion 6 carry the
``slow`` marker; ``pytest -m "not slow"`` leaves them out.
"""

import math
import os

import mpmath
import numpy as np
import pytest
from scipy.stats import norm

from subsetci import Dataset, truncnorm
from subsetci.criteria import (
    Criterion,
    CriterionSpec,
    best_subset,
)
from subsetci.geometry import SelectionEvent, decompose, selection_event
from subsetci.harness import (
    SimulationConfig,
    dataset_report,
    ks_uniform,
    load_csv_dataset,
    simulate_coverage,
)
from subsetci.inference import (
    InferenceTarget,
    SigmaSpec,
    corrected_ci,
    estimate_sigma,
    eta_for_target,
    pivot_value,
)
from subsetci.intervals import FULL_LINE, interval_union
from subsetci.truncnorm import TruncatedNormalSpec, truncated_cdf

from pair_oracle import invert_one, penalty_ratio_sizes, sequential_region

# The quadrature oracle needs working precision far beyond the smallest
# tail masses it integrates (~1e-46 for pieces near 14 sigma), otherwise the
# oracle itself is the inaccurate side of the comparison.  The precision is
# scoped to each oracle call so that no module changes the process-wide
# setting for another.
DPS = 60

WORKERS = max(1, min(8, os.cpu_count() or 1))


# --------------------------------------------------------------------------
# shared machinery


def _random_instance(seed: int):
    rng = np.random.default_rng(seed)
    n = 15
    p = int(rng.choice([3, 4, 5]))
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    data = Dataset(X, y, tuple(f"x{j+1}" for j in range(p)))
    return rng, data


def _geometry_oracle_mismatches(seed: int, criterion: Criterion) -> int:
    """Grid membership in the event region vs rerunning the subset search."""
    rng, data = _random_instance(seed)
    spec = CriterionSpec(criterion, data.n)
    S_hat, _ = best_subset(data, spec)
    targets = [
        InferenceTarget.coefficient(int(rng.choice(S_hat.indices))),
        InferenceTarget.prediction_mean(rng.standard_normal(data.p)),
    ]
    mismatches = 0
    for target in targets:
        eta = eta_for_target(data, S_hat, target)
        dec = decompose(data.y, eta)
        event = selection_event(data, dec, S_hat, spec)
        lam = (estimate_sigma(data, S_hat, SigmaSpec.mse_aic())
               * math.sqrt(dec.eta_norm2))
        ends = event.region.endpoints()
        grid = np.linspace(dec.eta_dot_y - 8 * lam, dec.eta_dot_y + 8 * lam, 201)
        for t in grid:
            if any(abs(t - e) < 1e-7 for e in ends):
                continue
            reselected, _ = best_subset(data.replace_y(t * dec.eta_tilde + dec.z),
                                        spec)
            if event.region.contains(float(t)) != (reselected == S_hat):
                mismatches += 1
    return mismatches


@pytest.fixture(scope="module")
def table1_report():
    config = SimulationConfig(
        n=50, p=10,
        beta=(1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        rho=0.5, sigma=1.0, reps=2000, alpha=0.05,
        criterion=Criterion.AIC,
        sigma_strategies=(SigmaSpec.known(1.0), SigmaSpec.mse_aic(),
                          SigmaSpec.mse_full(), SigmaSpec.external(1.1)),
        n_new_points=10, master_seed=20250401,
    )
    return simulate_coverage(config, workers=WORKERS)


# --------------------------------------------------------------------------
# criterion 1: geometry-oracle equivalence


def test_criterion_1_geometry_oracle_equivalence():
    total = 0
    for seed in range(200):
        total += _geometry_oracle_mismatches(seed, Criterion.AIC)
    assert total == 0, f"{total} grid points disagreed with the rerun oracle"
    print("\nACCEPTANCE 1 PASS: geometry matches the reselection oracle on "
          "200 instances x 2 targets x 201 grid points (0 mismatches)")


# --------------------------------------------------------------------------
# criterion 2: superset-skipping invariance


def test_criterion_2_superset_skip_invariance():
    # the library skips the superset comparisons of a direction in the
    # selected span; the pair oracle's reference region includes them
    worst_end = 0.0
    worst_piv = 0.0
    checked = 0
    for seed in range(200):
        rng, data = _random_instance(seed)
        spec = CriterionSpec(Criterion.AIC, data.n)
        S_hat, _ = best_subset(data, spec)
        target = InferenceTarget.coefficient(int(rng.choice(S_hat.indices)))
        sig = SigmaSpec.known(1.0)
        dec = decompose(data.y, eta_for_target(data, S_hat, target))
        reference = SelectionEvent(S_hat, sequential_region(
            dec, data, S_hat, spec, skip_supersets=False), ())
        on = corrected_ci(data, None, S_hat, target, 0.05, sig, spec)
        off = corrected_ci(data, None, S_hat, target, 0.05, sig, spec,
                           event=reference)
        worst_end = max(worst_end,
                        abs(on.lower - off.lower) / max(1.0, abs(off.lower)),
                        abs(on.upper - off.upper) / max(1.0, abs(off.upper)))
        p_on = pivot_value(data, None, S_hat, target, 0.0, sig, spec)
        p_off = pivot_value(data, None, S_hat, target, 0.0, sig, spec,
                            event=reference)
        worst_piv = max(worst_piv, abs(p_on - p_off))
        checked += 1
    assert worst_end <= 1e-8, f"endpoint drift {worst_end}"
    assert worst_piv <= 1e-10, f"pivot drift {worst_piv}"
    print(f"\nACCEPTANCE 2 PASS: skip-supersets on/off agrees on {checked} "
          f"instances (max endpoint drift {worst_end:.2e}, "
          f"max pivot drift {worst_piv:.2e})")


# --------------------------------------------------------------------------
# criterion 3: pivot uniformity


@pytest.mark.slow
def test_criterion_3_pivot_uniformity():
    config = SimulationConfig(
        n=50, p=6, beta=(1.0, 2.0, 3.0, 0.0, 0.0, 0.0), rho=0.5, sigma=1.0,
        reps=2000, alpha=0.05, criterion=Criterion.AIC,
        sigma_strategies=(SigmaSpec.known(1.0),),
        n_new_points=1, master_seed=20250402,
    )
    report = simulate_coverage(config, workers=WORKERS)
    piv = report.pivots[("x1", "known")]
    assert piv.size >= 1990
    ks = ks_uniform(piv)
    assert ks < 0.035, f"KS distance {ks:.4f} exceeds 0.035"
    print(f"\nACCEPTANCE 3 PASS: pivot KS distance {ks:.4f} < 0.035 "
          f"over {piv.size} replications")


# --------------------------------------------------------------------------
# criteria 4 and 5: coverage replication and per-size behaviour


@pytest.mark.slow
def test_criterion_4_coverage_bands(table1_report):
    rep = table1_report
    assert rep.reps_completed >= 1990

    unc_t = rep.pooled_coverage("mse_aic", "uncorrected")
    unc_known = rep.pooled_coverage("known", "uncorrected")
    cor_known = rep.pooled_coverage("known", "corrected")
    cor_aic = rep.pooled_coverage("mse_aic", "corrected")
    cor_full = rep.pooled_coverage("mse_full", "corrected")
    ext_stub = rep.pooled_coverage("external", "corrected")

    assert 0.86 <= unc_t <= 0.91, f"uncorrected-t coverage {unc_t:.4f}"
    assert 0.87 <= unc_known <= 0.92, f"uncorrected known {unc_known:.4f}"
    assert 0.935 <= cor_known <= 0.960, f"corrected known {cor_known:.4f}"
    assert 0.92 <= cor_aic <= 0.955, f"corrected mse_aic {cor_aic:.4f}"
    assert 0.93 <= cor_full <= 0.96, f"corrected mse_full {cor_full:.4f}"
    # the external hook is demonstrated with an inflated stub value, which
    # must remain conservative (no under-coverage)
    assert ext_stub >= 0.93, f"external stub coverage {ext_stub:.4f}"

    # replication-average noise estimates behave as reported
    assert rep.sigma_means["mse_aic"] == pytest.approx(0.961, abs=0.02)
    assert rep.sigma_means["mse_full"] == pytest.approx(0.996, abs=0.015)

    print("\nACCEPTANCE 4 PASS: coverage bands hold at 2000 reps "
          f"(unc-t {unc_t:.3f}, unc-known {unc_known:.3f}, "
          f"corr-known {cor_known:.3f}, corr-aic {cor_aic:.3f}, "
          f"corr-full {cor_full:.3f}, external stub {ext_stub:.3f}; "
          f"sigma means aic {rep.sigma_means['mse_aic']:.3f}, "
          f"full {rep.sigma_means['mse_full']:.3f})")


@pytest.mark.slow
def test_criterion_5_per_size_behaviour(table1_report):
    rep = table1_report
    total = rep.reps_completed
    common = [s for s in sorted(rep.histogram)
              if rep.histogram[s] >= 0.05 * total]
    assert common, "no model size reaches 5% frequency"

    unc = {}
    cor = {}
    for s in common:
        h_u, c_u = rep.per_size[(s, "known", "uncorrected")]
        h_c, c_c = rep.per_size[(s, "known", "corrected")]
        unc[s] = h_u / c_u
        cor[s] = h_c / c_c

    beyond = [s for s in common if s >= 3]
    for a, b in zip(beyond, beyond[1:]):
        assert unc[b] < unc[a], (
            f"uncorrected coverage did not decrease from size {a} "
            f"({unc[a]:.4f}) to size {b} ({unc[b]:.4f})")
    for s in common:
        assert abs(cor[s] - 0.95) < 0.02, (
            f"corrected coverage at size {s} is {cor[s]:.4f}")

    desc = ", ".join(f"{s}:{unc[s]:.3f}/{cor[s]:.3f}" for s in common)
    print("\nACCEPTANCE 5 PASS: per-size uncorrected decays while corrected "
          f"stays within 0.02 of 0.95 (size:unc/corr -> {desc})")


# --------------------------------------------------------------------------
# criterion 6: truncated-normal numerics against adaptive quadrature


def _quad_measure(lo, hi, mu, lam):
    a = max(lo, mu - 40.0 * lam)
    b = min(hi, mu + 40.0 * lam)
    if not b > a:
        return mpmath.mpf(0)
    return mpmath.quad(lambda t: mpmath.npdf(t, mu, lam), [a, b])


@mpmath.workdps(DPS)
def _quad_truncated_cdf(x, mu, lam, region):
    num = mpmath.mpf(0)
    den = mpmath.mpf(0)
    for lo, hi in region:
        den += _quad_measure(lo, hi, mu, lam)
        if lo < x:
            num += _quad_measure(lo, min(hi, x), mu, lam)
    return num / den


def _random_truncation_spec(rng, tail_only: bool):
    lam = float(rng.uniform(0.3, 2.5))
    mu = float(rng.normal(scale=2.0))
    if tail_only:
        side = 1.0 if rng.random() < 0.5 else -1.0
        start = mu + side * (10.0 + rng.uniform(0, 2)) * lam
        widths = rng.uniform(0.2, 1.0, size=2) * lam
        gap = float(rng.uniform(0.3, 1.0)) * lam
        if side > 0:
            pieces = [(start, start + widths[0]),
                      (start + widths[0] + gap,
                       start + widths[0] + gap + widths[1])]
        else:
            pieces = [(start - widths[0], start),
                      (start - widths[0] - gap - widths[1],
                       start - widths[0] - gap)]
    else:
        lo = mu + float(rng.normal(scale=2.0)) * lam
        pieces = []
        for _ in range(int(rng.integers(1, 4))):
            hi = lo + float(rng.uniform(0.2, 2.0)) * lam
            pieces.append((lo, hi))
            lo = hi + float(rng.uniform(0.2, 2.0)) * lam
    region = interval_union(pieces)
    # an interior observation point inside a random piece
    plo, phi = region.intervals[int(rng.integers(0, len(region.intervals)))]
    x = plo + float(rng.uniform(0.25, 0.75)) * (phi - plo)
    return mu, lam, region, x


@pytest.mark.slow
def test_criterion_6_truncated_normal_numerics():
    rng = np.random.default_rng(606)
    worst_rel = 0.0
    worst_round = 0.0
    for k in range(500):
        tail_only = k >= 300
        mu, lam, region, x = _random_truncation_spec(rng, tail_only)
        got = truncated_cdf(x, TruncatedNormalSpec(mu=mu, lam=lam, region=region))
        oracle = float(_quad_truncated_cdf(x, mu, lam, region.intervals))
        if oracle > 0:
            worst_rel = max(worst_rel, abs(got - oracle) / oracle)
        else:
            assert got == 0.0
        target = float(rng.uniform(0.01, 0.99))
        mu_star, status = invert_one(target, x, lam, region)
        assert status == truncnorm._SOLVED
        back = truncated_cdf(
            x, TruncatedNormalSpec(mu=mu_star, lam=lam, region=region))
        worst_round = max(worst_round, abs(back - target))
    assert worst_rel <= 1e-10, f"worst relative cdf error {worst_rel:.2e}"
    assert worst_round <= 1e-8, f"worst round-trip residual {worst_round:.2e}"

    # untruncated reduction to the classical known-sigma endpoints
    worst_cls = 0.0
    for _ in range(50):
        x = float(rng.normal(scale=3))
        lam = float(rng.uniform(0.2, 3))
        alpha = float(rng.uniform(0.01, 0.2))
        z = float(norm.ppf(1 - alpha / 2))
        lo, _ = invert_one(1 - alpha / 2, x, lam, FULL_LINE)
        hi, _ = invert_one(alpha / 2, x, lam, FULL_LINE)
        worst_cls = max(worst_cls, abs(lo - (x - z * lam)),
                        abs(hi - (x + z * lam)))
    assert worst_cls <= 1e-8, f"classical reduction error {worst_cls:.2e}"
    print(f"\nACCEPTANCE 6 PASS: 500 specs vs quadrature (worst rel "
          f"{worst_rel:.2e}), round-trips <= {worst_round:.2e}, classical "
          f"reduction <= {worst_cls:.2e}")


# --------------------------------------------------------------------------
# criterion 7: real-data golden test


TABLE_UNCORRECTED = {
    "Income": (0.6615, 0.8197),
    "Production": (0.0015, 0.0928),
    "Savings": (-0.0587, -0.0471),
    "Unemployment": (-0.3631, 0.0137),
}


def test_criterion_7_real_data_golden():
    import importlib.resources as ir

    fixture = str(ir.files("subsetci") / "data" / "us_consumption.csv")
    report = dataset_report(load_csv_dataset(fixture, "Consumption"), Criterion.AIC,
                            0.05, [SigmaSpec.mse_full()], source=fixture,
                            response="Consumption")
    assert report.selected_names == ("Intercept", "Income", "Production",
                                     "Savings", "Unemployment")

    # every candidate containing both Income and Savings beats every
    # candidate missing either one; the published gap is ~173 score points
    def _has(model, nm):
        return nm in [report.column_names[i - 1] for i in model.indices]

    with_both = [s.score for s in report.scores
                 if _has(s.model, "Income") and _has(s.model, "Savings")]
    without = [s.score for s in report.scores
               if not (_has(s.model, "Income") and _has(s.model, "Savings"))]
    assert max(with_both) < min(without)
    assert min(without) - max(with_both) == pytest.approx(173.4, abs=1.0)

    rows = {(r.target, r.method): r for r in report.rows}
    for name, (lo, hi) in TABLE_UNCORRECTED.items():
        row = rows[(name, "classical_t")]
        assert row.lower == pytest.approx(lo, abs=5e-3), name
        assert row.upper == pytest.approx(hi, abs=5e-3), name

    prod = rows[("Production", "corrected")]
    assert prod.lower < 0.0 < prod.upper, "corrected Production must contain 0"
    assert prod.lower == pytest.approx(-0.0109, abs=1e-2)
    assert prod.upper == pytest.approx(0.1148, abs=1e-2)

    income = rows[("Income", "corrected")]
    assert income.lower > 0.0, "corrected Income must exclude 0"
    savings = rows[("Savings", "corrected")]
    assert savings.upper < 0.0, "corrected Savings must exclude 0"

    print("\nACCEPTANCE 7 PASS: full model selected; uncorrected intervals "
          "match the published values to 5e-3; corrected Production "
          f"({prod.lower:.4f}, {prod.upper:.4f}) contains 0; Income and "
          "Savings stay significant")


# --------------------------------------------------------------------------
# supplementary: negligible excluded mass leaves the interval unchanged
# (stands in for the published per-draw excluded-region table, which depends
# on unpublished random draws)


def test_supplementary_negligible_exclusion_matches_classical():
    from subsetci.inference import classical_ci
    from pair_oracle import normal_measure

    rng = np.random.default_rng(222)
    qualifying = 0
    for seed in range(240):
        r = np.random.default_rng(seed + 4000)
        n, p = 25, 4
        X = r.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:3] = (3.0, -3.0, 3.0)
        y = X @ beta + r.standard_normal(n)
        data = Dataset(X, y, tuple(f"x{j+1}" for j in range(p)))
        spec = CriterionSpec(Criterion.AIC, n)
        S_hat, _ = best_subset(data, spec)
        target = InferenceTarget.coefficient(int(r.choice(S_hat.indices)))
        sig = SigmaSpec.known(1.0)
        corr = corrected_ci(data, None, S_hat, target, 0.05, sig, spec)
        lam = corr.sigma_used * math.sqrt(
            float(np.linalg.norm(eta_for_target(data, S_hat, target))) ** 2)
        excluded = corr.event_summary.region.complement()
        mass = sum(normal_measure((lo, hi), corr.point_estimate, lam)
                   for lo, hi in excluded.intervals)
        if mass < 1e-6:
            qualifying += 1
            cls = classical_ci(data, S_hat, target, 0.05, sig)
            assert corr.lower == pytest.approx(cls.lower, abs=1e-4 * lam)
            assert corr.upper == pytest.approx(cls.upper, abs=1e-4 * lam)
    assert qualifying >= 10, f"only {qualifying} qualifying instances"
    print(f"\nSUPPLEMENTARY PASS: corrected equals classical whenever the "
          f"excluded mass is < 1e-6 ({qualifying} qualifying instances)")


# --------------------------------------------------------------------------
# criterion 8: criterion variants


def test_criterion_8_bic_aicc_variants():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 300))
        k1 = int(rng.integers(1, min(8, n - 2)))
        k2 = int(rng.integers(1, min(8, n - 2)))
        bic = penalty_ratio_sizes(k1, k2, CriterionSpec(Criterion.BIC, n))
        aicc = penalty_ratio_sizes(k1, k2, CriterionSpec(Criterion.AICC, n))
        with mpmath.workdps(DPS):
            bic_hp = float(mpmath.exp(mpmath.log(n) * (k1 - k2) / n))
            aicc_hp = float(mpmath.exp(
                2 * (mpmath.mpf(k1) / (n - k1 - 1)
                     - mpmath.mpf(k2) / (n - k2 - 1))))
        worst = max(worst, abs(bic - bic_hp) / bic_hp)
        worst = max(worst, abs(aicc - aicc_hp) / aicc_hp)
    assert worst <= 1e-12, f"penalty-ratio error {worst:.2e}"

    mismatches = 0
    for seed in range(50):
        mismatches += _geometry_oracle_mismatches(seed + 1000, Criterion.BIC)
    assert mismatches == 0, f"{mismatches} BIC grid mismatches"
    print(f"\nACCEPTANCE 8 PASS: BIC/AICc penalty ratios match to "
          f"{worst:.2e} <= 1e-12; BIC geometry-oracle equivalence holds on "
          "50 instances")
