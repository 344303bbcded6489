"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run
with ``pytest -s tests/test_acceptance.py`` to see them).  Tolerances are
pinned here and are not adjusted elsewhere.
"""

import math

import numpy as np

from oracles import maximize_squeezed_capacity
from gaussent.epr import degree_of_epr, epr_from_photons, epr_vs_loss
from gaussent.photons import cm_from_photons, decompose
from gaussent.protocols import (
    capacity_ratio,
    optimal_squeezed_capacity,
    teleport_fidelity,
)
from gaussent.separability import (
    degree_of_inseparability,
    inseparability_vs_loss,
    product_restriction,
    standard_form_restrictions,
)
from gaussent.spectra import cm_at_frequency, load_paper_anchors, measured_row
from gaussent.states import (
    QuadratureVariancePair,
    SqueezedBeam,
    apply_local_squeezing,
    apply_loss,
    entangle_on_beamsplitter,
    sum_diff_variance,
)

ANCHORS = load_paper_anchors()
CM_65 = ANCHORS["6.5MHz"].cm
CM_35 = ANCHORS["3.5MHz"].cm
MEASURED = ANCHORS["6.5MHz"].measured


def _criterion(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def _expect(failures, label, value, target, tol):
    if abs(value - target) > tol:
        failures.append(f"{label} = {value!r}, expected {target} +/- {tol}")


def test_criterion_01_inseparability_anchor():
    failures = []
    _expect(failures, "I(6.5MHz matrix)", degree_of_inseparability(CM_65), 0.400, 1e-3)
    # The matrix entries are rounded to two significant figures; the direct
    # measurement behind them (0.44 +/- 0.01) is carried separately.
    i_measured = math.sqrt(MEASURED["v_sum_plus"] * MEASURED["v_diff_minus"])
    _expect(failures, "I(6.5MHz measured)", i_measured, 0.440, 1e-3)
    _criterion(1, "inseparability anchor", failures)


def test_criterion_02_epr_anchor():
    failures = []
    e_measured = MEASURED["cv_plus"] * MEASURED["cv_minus"]
    _expect(failures, "E(measured conditional variances)", e_measured, 0.5852, 1e-4)
    _expect(failures, "E(6.5MHz matrix pipeline)", degree_of_epr(CM_65).degree, 0.5648, 5e-4)
    _criterion(2, "EPR anchor", failures)


def test_criterion_03_loss_boundary():
    failures = []
    for v_ave in (0.1, 0.3, 0.5, 0.7, 0.9):
        value = epr_vs_loss(v_ave, 0.5)
        if abs(value - 1.0) > 1e-12:
            failures.append(f"E(v={v_ave}, eta=0.5) = {value!r}")
    _criterion(3, "EPR unity at half efficiency", failures)


def test_criterion_04_pipeline_closed_form_equivalence():
    failures = []
    rng = np.random.default_rng(41)
    for _ in range(100):
        v = float(rng.uniform(0.05, 0.99))
        eta = float(rng.uniform(0.0, 1.0))
        state = apply_loss(
            entangle_on_beamsplitter(SqueezedBeam.pure(v), SqueezedBeam.pure(v)), eta, eta
        )
        insep = degree_of_inseparability(state.cm)
        epr = degree_of_epr(state.cm).degree
        if abs(insep - inseparability_vs_loss(v, eta)) > 1e-10:
            failures.append(f"I pipeline mismatch at v={v}, eta={eta}")
        if abs(epr - epr_vs_loss(v, eta)) > 1e-10:
            failures.append(f"E pipeline mismatch at v={v}, eta={eta}")
        if eta > 0.0 and not insep < 1.0:
            failures.append(f"I not below 1 at v={v}, eta={eta}")
    _criterion(4, "pipeline equals closed forms", failures)


def test_criterion_05_teleportation_fidelity():
    failures = []
    _expect(failures, "F(I=0.44)", teleport_fidelity(0.44), 0.6944, 1e-4)
    _criterion(5, "teleportation fidelity anchor", failures)


def test_criterion_06_photon_decomposition():
    failures = []
    # 6.5 MHz: decomposition from the measured sum/difference variances
    # (the unrounded data behind the published matrix).
    budget_65 = decompose(cm_at_frequency(measured_row(ANCHORS["6.5MHz"])))
    _expect(failures, "n_min(6.5MHz)", budget_65.n_min, 0.356, 1e-3)
    _expect(failures, "n_bias(6.5MHz)", budget_65.n_bias, 0.0, 1e-12)
    _expect(failures, "n_excess(6.5MHz)", budget_65.n_excess, 1.944, 2e-3)
    # 3.5 MHz: matrix entries only.
    budget_35 = decompose(CM_35)
    _expect(failures, "n_bias(3.5MHz)", budget_35.n_bias, 0.094, 2e-3)
    _criterion(6, "photon decomposition anchors", failures)


def test_criterion_07_photon_diagram_epr_prediction():
    failures = []
    _expect(failures, "E(0.356, 1.944)", epr_from_photons(0.356, 1.944), 0.675, 5e-3)
    _criterion(7, "EPR from photon budget", failures)


def test_criterion_08_dense_coding():
    failures = []
    _expect(failures, "ratio(125, 0.356, 1.944)", capacity_ratio(125.0, 0.356, 1.944), 1.02, 5e-3)
    for n in (0.5, 3.375, 125.0):
        closed = optimal_squeezed_capacity(n)
        numeric, _ = maximize_squeezed_capacity(n)
        if abs(closed - numeric) > 1e-6:
            failures.append(f"optimum mismatch at n={n}: {closed!r} vs {numeric!r}")
    _criterion(8, "dense-coding capacity", failures)


def test_criterion_09_restriction_truth_table():
    failures = []
    check_65 = standard_form_restrictions(CM_65)
    check_35 = standard_form_restrictions(CM_35)
    expectations = (
        ("6.5MHz ratio", check_65.ratio_ok, True),
        ("6.5MHz balance", check_65.balance_ok, True),
        ("3.5MHz ratio", check_35.ratio_ok, True),
        ("3.5MHz balance", check_35.balance_ok, False),
        ("6.5MHz product", product_restriction(CM_65), True),
        ("3.5MHz product", product_restriction(CM_35), True),
    )
    for label, actual, expected in expectations:
        if actual != expected:
            failures.append(f"{label}: {actual}, expected {expected}")
    _criterion(9, "restriction truth table", failures)


def test_criterion_10_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n_min = float(rng.uniform(0.005, 2.0))
        n_excess = float(rng.uniform(0.0, 5.0))
        cm = cm_from_photons(n_min, n_excess)
        closed = epr_from_photons(n_min, n_excess)
        pipeline = degree_of_epr(cm).degree
        if abs(closed - pipeline) > 1e-10:
            failures.append(f"EPR mismatch at ({n_min}, {n_excess})")
        budget = decompose(cm)
        if abs(budget.n_min - n_min) > 1e-10 or abs(budget.n_excess - n_excess) > 1e-10:
            failures.append(f"round-trip mismatch at ({n_min}, {n_excess})")
    _criterion(10, "photon-variable oracle equivalence", failures)


def test_criterion_11_invariance_suite():
    failures = []
    rng = np.random.default_rng(43)
    for _ in range(100):
        v1 = float(rng.uniform(0.1, 0.9))
        v2 = float(rng.uniform(0.1, 0.9))
        mu1 = float(rng.uniform(1.0, 3.0))
        mu2 = float(rng.uniform(1.0, 3.0))
        eta = float(rng.uniform(0.4, 1.0))
        state = entangle_on_beamsplitter(
            SqueezedBeam(QuadratureVariancePair(v1, mu1 / v1)),
            SqueezedBeam(QuadratureVariancePair(v2, mu2 / v2)),
        )
        lossy = apply_loss(state, eta, eta)
        if lossy.cm.uncertainty_violation() < -1e-9:
            failures.append(f"physicality lost at ({v1}, {v2}, {eta})")
        insep = degree_of_inseparability(lossy.cm)
        n_min = decompose(lossy.cm).n_min
        for gain in (0.5, 0.8, 1.25, 2.0):
            squeezed = apply_local_squeezing(lossy.cm, gain)
            if abs(degree_of_inseparability(squeezed) - insep) > 1e-10:
                failures.append(f"I changed under local squeezing g={gain}")
            if abs(decompose(squeezed).n_min - n_min) > 1e-10:
                failures.append(f"n_min changed under local squeezing g={gain}")
    _criterion(11, "local-squeezing invariance and physicality", failures)


def test_criterion_12_perfect_squeezing_limit():
    failures = []
    beam = SqueezedBeam(QuadratureVariancePair(1e-8, 1e8))
    state = entangle_on_beamsplitter(beam, beam)
    raw_sum_plus = 2.0 * sum_diff_variance(state, "+", "sum")
    raw_diff_minus = 2.0 * sum_diff_variance(state, "-", "diff")
    if not raw_sum_plus <= 1e-7:
        failures.append(f"amplitude-sum variance {raw_sum_plus!r} above 1e-7")
    if not raw_diff_minus <= 1e-7:
        failures.append(f"phase-difference variance {raw_diff_minus!r} above 1e-7")
    _criterion(12, "perfect-squeezing correlations", failures)
