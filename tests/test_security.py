"""Decoy-state bookkeeping under magnification: identities, oracles, bounds.

The distribution and success-probability checks pit the package's closed
forms against the literal defining expressions in ``oracles.py`` and against
Monte-Carlo sampling; nothing here reuses the implementation's own algebra.
"""

import math
import os
import signal
import subprocess
import sys
import warnings
from contextlib import contextmanager
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipasim import security
from ipasim.calibration import calibration_summary
from ipasim.security import (
    ESTIMATORS,
    AttackParams,
    BracketError,
    QkdScenario,
    SecurityResult,
    SweepPlan,
    attack_success_probability,
    binary_entropy,
    channel_transmittance,
    evaluate_scenario,
    key_rate,
    sweep_key_rates,
    zero_key_threshold,
)
from ipasim.security import _TAIL_CUT
from ipasim.security import _decoy_bounds as decoy_bounds
from ipasim.security import _poisson_tail as poisson_tail
from ipasim.security import _resend_probability as resend_probability
from ipasim.security import _single_photon_truth as single_photon_truth
from ipasim.security import _tagged_fraction_estimated as tagged_fraction_estimated
from oracles import (
    PHOTON_CUT,
    binary_entropy_reference,
    poisson_pmf,
    refused,
    security_row,
    success_double_sum,
    success_monte_carlo,
    thinned_pmf_bruteforce,
    threshold_bisection,
)

SCENARIO = QkdScenario()
PEAK_DB = calibration_summary()["peak_magnification_db"]  # the attacked VOA's largest, 57.84 dB


def gain(mpn, eta, y0):
    """Detection probability per pulse, the link's first kernel."""
    return security._clicks(mpn, eta, y0)[0]


def qber(mpn, eta, y0, e0, e_det):
    """Error rate per detected pulse, the link's second kernel."""
    return security._error_rate(*security._clicks(mpn, eta, y0), y0, e0, e_det)

DEFAULT = SweepPlan()  # the grids of a sweep with no grids given

# frozen default-scenario zero-key point, reported to the default 1e-3 dB as
# the midpoint of a halving of the (4, 9) dB range
THRESHOLD_DB = 6.63946533203125

LONG_DISTANCES_KM = tuple(float(d) for d in range(0, 321, 10))
ORACLE_M_DB = (0.0, 4.0, 6.5)  # 0 dB: no attacker
# On the default link the decoy bounds never clamp: in the dark-count limit the
# error bound tends to ~0.53.  A decoy close to the signal pushes it past 1,
# which clamps every row from 280 km on.
NEAR_DECOY = QkdScenario(mu=1.0, nu=0.9)


def transmittance(distance_km):
    """The default scenario's fiber transmittance over ``distance_km``."""
    return channel_transmittance(SCENARIO.alpha_db_per_km, distance_km)


@contextmanager
def time_bound(seconds=5.0):
    """Fail the body with TimeoutError instead of letting it hang."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# -- rate identities -------------------------------------------------------------


def test_undetectability_over_randomized_scenarios():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(1000):
        mu, nu, alpha_db_per_km, distance_km, eta_bob, y0 = (
            float(rng.uniform(lo, hi)) for lo, hi in
            ((0.2, 1.0), (0.01, 0.15), (0.15, 0.3), (0.0, 150.0), (0.05, 0.5), (0.0, 1e-5))
        )
        sc = QkdScenario(mu=mu, nu=nu, alpha_db_per_km=alpha_db_per_km, eta_bob=eta_bob, y0=y0)
        eta_ab = channel_transmittance(alpha_db_per_km, distance_km)
        m_linear = float(rng.uniform(1.0, 10.0))
        p = resend_probability(eta_ab, m_linear)
        for mpn in (sc.mu, sc.nu):
            q_attacked = gain(mpn, m_linear * p * sc.eta_bob, sc.y0)
            q_honest = gain(mpn, eta_ab * sc.eta_bob, sc.y0)
            worst = max(worst, abs(q_attacked - q_honest))
    assert worst < 1e-12


def test_resend_probability_validation():
    assert resend_probability(0.1, 4.0) == pytest.approx(0.025)


# -- photon-number distribution ------------------------------------------------------


@pytest.mark.parametrize("mu_e", [0.2, 0.8, 2.0, 5.0])
@pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 1.0])
def test_resent_pulse_distribution_matches_thinning_convolution(mu_e, p):
    # the package's pmf at the resent mean M*p*mu; the oracle thins photon by photon
    mu, m_linear = 0.8, mu_e / 0.8
    for n in range(11):
        want = thinned_pmf_bruteforce(n, mu_e, p)
        got = security._poisson_pmf(n, m_linear * p * mu)
        assert got == pytest.approx(want, rel=1e-9)


def test_resent_pulse_distribution_normalizes():
    total = sum(security._poisson_pmf(n, 4.0 * 0.03 * 0.8) for n in range(60))
    assert total == pytest.approx(1.0, abs=1e-12)


# -- success probability ----------------------------------------------------------


@pytest.mark.parametrize(
    "m_db,distance_km",
    [(4.0, 25.0), (5.0, 50.0), (6.0, 75.0), (6.5, 100.0), (8.0, 140.0)],
)
def test_success_probability_matches_literal_double_sum(m_db, distance_km):
    sc, eta_ab = SCENARIO, transmittance(distance_km)
    attack = AttackParams.from_db(m_db)
    got = attack_success_probability(sc, attack, eta_ab)
    p = resend_probability(eta_ab, attack.m_linear)
    want = success_double_sum(attack.m_linear * sc.mu, p, sc.eta_bob, PHOTON_CUT)
    assert got == pytest.approx(want, rel=1e-10)
    # the double sum stops at the cut: the mass it leaves out is below its tolerance
    assert 0.0 <= poisson_tail(attack.m_linear * sc.mu, _TAIL_CUT) < 1e-12


def test_attack_sequence_on_a_grid_matches_literal_double_sum():
    # each attack of a sequence is one row of the broadcast, with the bits of
    # its own grid evaluation
    distances = [0.0, 25.0, 60.0, 140.0]
    attacks = [AttackParams.from_db(5.0), AttackParams.from_db(6.5)]
    eta_ab = transmittance(np.array(distances))
    both = attack_success_probability(SCENARIO, attacks, eta_ab)
    assert both.shape == (2, len(distances))
    for row, attack in zip(both, attacks):
        grid = evaluate_scenario(SCENARIO, attack, distances_km=distances)
        assert row.tolist() == grid.p_s.tolist()
        mu_e = attack.m_linear * SCENARIO.mu
        for k, eta in enumerate(eta_ab):
            p = eta / attack.m_linear
            want = success_double_sum(mu_e, p, SCENARIO.eta_bob, PHOTON_CUT)
            assert row[k] == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize(
    "seed,m_db,distance_km",
    [(1, 4.0, 25.0), (2, 5.0, 50.0), (3, 6.0, 75.0), (4, 6.5, 100.0), (5, 8.0, 30.0)],
)
def test_success_probability_within_monte_carlo_error(seed, m_db, distance_km):
    sc, eta_ab = SCENARIO, transmittance(distance_km)
    attack = AttackParams.from_db(m_db)
    exact = attack_success_probability(sc, attack, eta_ab)
    est, stderr = success_monte_carlo(
        attack.m_linear * sc.mu,
        resend_probability(eta_ab, attack.m_linear),
        sc.eta_bob,
        pulses=1_000_000,
        rng=np.random.default_rng(seed),
    )
    assert abs(exact - est) <= 3.0 * stderr


@pytest.mark.parametrize(
    "mean,n_trunc",
    [(0.3, 20), (0.8 * 10.0 ** 0.65, 80), (5.0, 20), (19.5, 20), (30.0, 20)],
)
def test_poisson_tail_matches_bruteforce_sum(mean, n_trunc):
    want = math.fsum(poisson_pmf(n, mean) for n in range(n_trunc + 1, 400))
    assert poisson_tail(mean, n_trunc) == pytest.approx(want, rel=1e-12)


def test_magnifications_past_the_tail_cut_evaluate():
    # nothing is truncated: at 17 dB the magnified mean is 40.1, with a Poisson
    # tail of 9.1e-09 past the cut of 80, and at the device's 57.84 dB peak it
    # is 4.9e5, all of it past the cut
    eta_ab, attack = transmittance(50.0), AttackParams.from_db(17.0)
    p = resend_probability(eta_ab, attack.m_linear)
    want = success_double_sum(attack.m_linear * SCENARIO.mu, p, SCENARIO.eta_bob, 200)
    got = attack_success_probability(SCENARIO, attack, eta_ab)
    assert got == pytest.approx(want, rel=1e-10)
    assert poisson_tail(attack.m_linear * SCENARIO.mu, _TAIL_CUT) == pytest.approx(9.144e-09,
                                                                                  rel=1e-3)
    # at the peak Eve keeps a photon of every pulse, so she succeeds whenever the
    # forwarded stream, mean mu * eta_AB, clicks at Bob
    peak = AttackParams.from_db(PEAK_DB)
    clicks = -math.expm1(-SCENARIO.mu * eta_ab * SCENARIO.eta_bob)
    assert attack_success_probability(SCENARIO, peak, eta_ab) == pytest.approx(clicks, rel=1e-12)
    assert poisson_tail(peak.m_linear * SCENARIO.mu, _TAIL_CUT) == 1.0
    rows = sweep_key_rates(SCENARIO, m_db_list=[0.0, 17.0, PEAK_DB])
    for name in (f.name for f in fields(SecurityResult)):
        assert all(math.isfinite(getattr(row, name)) for row in rows), name
    assert all(row.r_actual == 0.0 for row in rows if row.m_db > 0.0)


def test_a_sweep_at_the_declared_extremes_is_finite():
    # mu <= 709 keeps exp(mu) a finite float, and m_db <= 3000 (m_linear <= 1e300)
    # keeps the magnified mean m_linear * mu one: nothing in a sweep overflows
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        rows = sweep_key_rates(QkdScenario(mu=709.0, nu=0.1), [0.0, 3000.0],
                               DEFAULT.distances_km)
    assert len(rows) == 2 * len(DEFAULT.distances_km)
    for name in (f.name for f in fields(SecurityResult)):
        assert all(math.isfinite(getattr(row, name)) for row in rows), name
    assert all(row.r_actual == 0.0 for row in rows if row.m_db > 0.0)


# -- decoy estimation ---------------------------------------------------------------


@pytest.mark.parametrize("distance_km", [0.0, 25.0, 50.0, 100.0, 150.0])
def test_decoy_bounds_bracket_the_single_photon_truth(distance_km):
    sc, eta = SCENARIO, transmittance(distance_km) * SCENARIO.eta_bob
    q_mu = gain(sc.mu, eta, sc.y0)
    e_mu = qber(sc.mu, eta, sc.y0, sc.e0, sc.e_det)
    q_nu = gain(sc.nu, eta, sc.y0)
    e_nu = qber(sc.nu, eta, sc.y0, sc.e0, sc.e_det)
    bounds = decoy_bounds(sc, q_mu, e_mu, q_nu, e_nu)
    truth = single_photon_truth(sc, eta)
    assert not bounds.clamped
    assert 0.0 < bounds.y1_lower <= truth.y1_lower
    assert truth.e1_upper <= bounds.e1_upper <= 1.0
    # the vacuum+weak bound is tight to a few percent on this link
    assert bounds.y1_lower > 0.9 * truth.y1_lower


def test_decoy_bounds_clamp_pathological_statistics():
    degenerate = decoy_bounds(SCENARIO, 0.9, 0.01, 1e-9, 0.01)
    assert degenerate.clamped
    assert degenerate.y1_lower == 0.0 and degenerate.e1_upper == 1.0


def test_tagged_fraction_estimated_clamps_to_unit_interval():
    assert tagged_fraction_estimated(SCENARIO, 0.0, 0.1) == 1.0
    assert tagged_fraction_estimated(SCENARIO, 1.0, 1e-12) == 0.0


# -- elementary pieces -------------------------------------------------------------


@given(x=st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_matches_reference(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy_reference(x), abs=1e-12)


def test_binary_entropy_shape():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.2) == binary_entropy(0.8)
    with pytest.raises(ValueError):
        binary_entropy(1.2)
    with pytest.raises(ValueError):
        binary_entropy(np.array([0.5, math.nan]))
    assert binary_entropy(np.array([0.0, 0.5, 1.0])).tolist() == [0.0, 1.0, 0.0]


def test_gain_and_qber_limits():
    assert gain(0.8, 1.0, 1.0) == 1.0  # clamp
    assert gain(0.0, 0.01, 0.0) == 0.0
    assert qber(0.0, 0.01, 0.0, 0.5, 0.005) == 0.5  # dark-count only
    # deep in the linear regime the error tends to e_det
    assert qber(1e4, 1e-4, 0.0, 0.5, 0.005) == pytest.approx(0.005, rel=1e-2)


def test_gain_and_qber_take_a_column_of_mean_photon_numbers():
    # the link evaluates signal and decoy as one (2, 1) column: each row must
    # carry the bits of the scalar call
    eta = channel_transmittance(0.2, np.array([0.0, 35.0, 150.0, 1e5])) * 0.1
    column = np.array([[0.8], [0.1]])
    q = gain(column, eta, 6e-7)
    e = qber(column, eta, 6e-7, 0.5, 0.005)
    assert q.shape == e.shape == (2, 4)
    for row, mpn in enumerate((0.8, 0.1)):
        assert q[row].tobytes() == gain(mpn, eta, 6e-7).tobytes()
        assert e[row].tobytes() == qber(mpn, eta, 6e-7, 0.5, 0.005).tobytes()


def test_channel_transmittance():
    assert channel_transmittance(0.2, 50.0) == pytest.approx(0.1, rel=1e-12)
    assert channel_transmittance(0.2, math.inf) == 0.0
    with pytest.raises(ValueError):
        channel_transmittance(0.2, -1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lossless_fiber_of_infinite_length_is_refused():
    # 0 dB/km times an infinite distance is a NaN loss, not a transmittance
    with refused("alpha_db_per_km"):
        channel_transmittance(math.inf, 0.0)
    for distance in [math.inf, np.array([5.0, math.inf])]:
        with refused("distance_km"):
            channel_transmittance(0.0, distance)
    lossless = QkdScenario(alpha_db_per_km=0.0)
    with refused("distance_km"):
        sweep_key_rates(lossless, [0.0, 5.0], [0.0, math.inf])
    with refused("distance_km"):
        zero_key_threshold(lossless, distances_km=[0.0, math.inf])
    # any declared length of lossless fiber still transmits everything
    assert channel_transmittance(0.0, np.array([0.0, 1e5])).tolist() == [1.0, 1.0]
    # and on a lossy one an infinite length beside the declared ones transmits nothing
    assert channel_transmittance(0.2, np.array([1e5, math.inf])).tolist() == [0.0, 0.0]
    with refused("distance_km"):
        channel_transmittance(0.2, np.array([1.5e5, math.inf]))


def test_key_rate_clamps_at_zero_and_keeps_raw():
    negative = key_rate(SCENARIO, 0.9, 0.4, 0.01, 0.05)
    assert negative.bits_per_pulse == 0.0
    assert negative.raw < 0.0
    with pytest.raises(ValueError):
        key_rate(SCENARIO, 1.5, 0.1, 0.01, 0.01)
    with pytest.raises(ValueError):
        key_rate(SCENARIO, 0.5, 0.7, 0.01, 0.01)
    with pytest.raises(ValueError):
        key_rate(SCENARIO, np.array([0.5, 1.5]), 0.1, 0.01, 0.01)


def test_scenario_and_attack_validation():
    with pytest.raises(ValueError):
        QkdScenario(mu=0.1, nu=0.2)
    with pytest.raises(ValueError):
        QkdScenario(eta_bob=0.0)
    with pytest.raises(ValueError):
        QkdScenario(mu=1e300, nu=0.1)
    with pytest.raises(ValueError):
        AttackParams(0.5)
    assert AttackParams.from_db(6.0).m_db == pytest.approx(6.0, rel=1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["alpha_db_per_km", "f_ec"])
def test_scenario_refuses_non_finite_inputs(field, value):
    with refused(field):
        QkdScenario(**{field: value})


def test_attack_refuses_a_non_finite_magnification():
    with time_bound():
        for m_linear in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^m_linear must be in \[1, 1e300\]$"):
                AttackParams(m_linear)
        with pytest.raises(ValueError, match=r"^m_db_list must be in \[0, 3000\]$"):
            sweep_key_rates(SCENARIO, [math.inf], [10.0])


# -- scenario evaluation and sweeps ----------------------------------------------------


def test_no_attack_evaluation_collapses_to_the_estimate():
    res = evaluate_scenario(SCENARIO, attack=None, distances_km=50.0)
    assert res.m_db == 0.0
    assert res.p_s == 0.0 and res.tail_bound == 0.0
    assert res.r_actual == res.r_est
    assert res.delta_pns == res.delta_est
    with pytest.raises(ValueError):
        evaluate_scenario(SCENARIO, estimator="nonsense")


@pytest.mark.parametrize(
    "call",
    [
        lambda: evaluate_scenario(SCENARIO, estimator="magic"),
        lambda: sweep_key_rates(SCENARIO, estimator="magic"),
        lambda: zero_key_threshold(SCENARIO, estimator="magic"),
    ],
    ids=["evaluate_scenario", "sweep_key_rates", "zero_key_threshold"],
)
def test_an_unknown_estimator_is_refused_in_the_words_of_sweep_plan(call):
    # tests/test_config.py pins SweepPlan's own refusal
    with pytest.raises(ValueError, match="^estimator must be one of: decoy, single_photon_true$"):
        call()


def test_actual_key_never_exceeds_estimate_on_the_default_grid():
    rows = sweep_key_rates(SCENARIO)
    assert len(rows) == len(DEFAULT.m_db_grid) * len(DEFAULT.distances_km)
    for row in rows:
        assert row.r_actual <= row.r_est + 1e-15
        if row.m_db == 0.0:
            assert row.r_actual == row.r_est
        else:
            assert row.delta_pns >= row.delta_est - 1e-15
    with pytest.raises(ValueError):
        sweep_key_rates(SCENARIO, m_db_list=[-1.0])


def test_sweep_refuses_a_nan_magnification_without_hanging():
    with time_bound():
        with pytest.raises(ValueError, match=r"^m_db_list must be in \[0, 3000\]$"):
            sweep_key_rates(SCENARIO, [float("nan")], [10.0])
        with pytest.raises(ValueError, match=r"^m_db_list must be in \[0, 3000\]$"):
            sweep_key_rates(SCENARIO, [4.0, 0.0, float("nan")], [10.0])


def test_an_error_rate_never_rounds_past_the_rates_it_weighs():
    # at 30 dB/km the far link's gain is the dark count alone, 1e-310, where
    # (0.5 * 1e-310) / 1e-310 rounds to 0.5000000000000248: the error rate, a
    # mean of e0 and e_det, is held to 0.5 and the key rate takes it
    sc = QkdScenario(y0=1e-310, alpha_db_per_km=30.0)
    rows = sweep_key_rates(sc)
    assert rows[-1].q_mu == 1e-310 and rows[-1].e_mu == 0.5
    assert all(sc.e_det <= row.e_mu <= sc.e0 and sc.e_det <= row.e_nu <= sc.e0 for row in rows)
    assert zero_key_threshold(sc) == zero_key_threshold(replace(sc, y0=1e-300))


def test_sweep_of_an_empty_grid_is_empty():
    assert sweep_key_rates(SCENARIO, m_db_list=[]) == []
    assert sweep_key_rates(SCENARIO, distances_km=[]) == []


def test_sweep_evaluates_the_link_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return decoy_bounds(*args)

    monkeypatch.setattr(security, "_decoy_bounds", counted)
    rows = sweep_key_rates(SCENARIO)
    assert len(DEFAULT.m_db_grid) == 5
    assert len(rows) == 5 * len(DEFAULT.distances_km)
    assert len(calls) == 1


def test_sweep_evaluates_its_attack_terms_once(monkeypatch):
    calls = []

    def counted(scenario, attack, eta_ab):
        calls.append(attack)
        return success(scenario, attack, eta_ab)

    success = security.attack_success_probability
    monkeypatch.setattr(security, "attack_success_probability", counted)
    rows = sweep_key_rates(SCENARIO)
    assert len(rows) == 5 * len(DEFAULT.distances_km)
    # one call for the four attacked magnifications; 0 dB has no attacker
    assert len(calls) == 1
    assert [attack.m_linear for attack in calls[0]] == [
        AttackParams.from_db(m_db).m_linear for m_db in DEFAULT.m_db_grid[1:]
    ]


# 0 dB (no attacker) and a few fixed magnifications, so lists repeat entries
SWEEP_M_DB = st.sampled_from([0.0, 4.0, 6.5]) | st.floats(min_value=0.0, max_value=10.0)


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("scenario", [SCENARIO, NEAR_DECOY], ids=["default", "near_decoy"])
@settings(max_examples=25, deadline=None)
@given(
    m_db_list=st.lists(SWEEP_M_DB, max_size=6),
    distances=st.lists(st.floats(min_value=0.0, max_value=320.0), max_size=8),
)
@example(m_db_list=[6.5, 0.0, 4.0, 0.0, 6.5, 5.0], distances=[300.0, 0.0, 50.0, 50.0])
@example(m_db_list=[6.0, 0.0, 3.0, 6.0, 0.0], distances=[0.0, 35.0, 70.0])
def test_sweep_rows_equal_the_per_magnification_grids(scenario, estimator, m_db_list, distances):
    rows = sweep_key_rates(scenario, m_db_list, distances, estimator)
    assert len(rows) == len(m_db_list) * len(distances)
    rows = iter(rows)
    for m_db in m_db_list:
        attack = None if m_db == 0.0 else AttackParams.from_db(m_db)
        grid = evaluate_scenario(scenario, attack, estimator, distances)
        for k, distance_km in enumerate(distances):
            row = next(rows)
            for f in fields(SecurityResult):
                assert getattr(row, f.name) == getattr(grid, f.name)[k], (f.name, m_db, distance_km)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_sweep_rows_hold_python_floats_and_bools(estimator):
    # unsorted, with a repeated 0 dB (no attacker) and a duplicated magnification
    rows = sweep_key_rates(SCENARIO, [6.0, 0.0, 3.0, 6.0, 0.0], [0.0, 35.0, 70.0], estimator)
    assert len(rows) == 15
    for row in rows:
        for f in fields(SecurityResult):
            want = bool if f.name == "bounds_clamped" else float
            assert type(getattr(row, f.name)) is want, f.name


def test_estimated_key_survives_while_actual_key_dies():
    # past the threshold the users still believe they have key at short range
    attack = AttackParams.from_db(THRESHOLD_DB + 0.3)
    res = evaluate_scenario(SCENARIO, attack, distances_km=20.0)
    assert res.r_est > 0.0
    assert res.r_actual == 0.0


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("scenario", [SCENARIO, NEAR_DECOY], ids=["default", "near_decoy"])
def test_sweep_matches_the_literal_oracle_row_by_row(scenario, estimator):
    rows = sweep_key_rates(scenario, ORACLE_M_DB, LONG_DISTANCES_KM, estimator)
    grid = list(product(ORACLE_M_DB, LONG_DISTANCES_KM))
    assert len(rows) == len(grid)
    for row, (m_db, distance_km) in zip(rows, grid):
        want = security_row(scenario, m_db, distance_km, estimator)
        for name, value in want.items():
            got = getattr(row, name)
            assert type(got) is type(value), name
            # key rates cross zero along the grid; the floor is far below any
            # rate the sweep resolves (q_mu >= 6e-7 on this link)
            floor = 1e-15 if name.startswith("r_") else 0.0
            assert got == pytest.approx(value, rel=1e-9, abs=floor), (name, m_db, distance_km)
    clamped = [row.bounds_clamped for row in rows]
    assert any(clamped) == (scenario is NEAR_DECOY and estimator == "decoy")
    assert not all(clamped)


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("scenario", [SCENARIO, NEAR_DECOY], ids=["default", "near_decoy"])
def test_single_distance_evaluation_equals_its_sweep_row(scenario, estimator):
    rows = iter(sweep_key_rates(scenario, ORACLE_M_DB, LONG_DISTANCES_KM, estimator))
    for m_db, distance_km in product(ORACLE_M_DB, LONG_DISTANCES_KM):
        attack = None if m_db == 0.0 else AttackParams.from_db(m_db)
        assert evaluate_scenario(scenario, attack, estimator, distance_km) == next(rows)


def test_grid_evaluation_returns_arrays_and_checks_every_distance():
    grid = evaluate_scenario(NEAR_DECOY, AttackParams.from_db(5.0), distances_km=[0.0, 50.0, 300.0])
    assert grid.r_actual.shape == grid.m_db.shape == (3,)
    assert grid.bounds_clamped.tolist() == [False, False, True]
    with refused("distance_km"):
        evaluate_scenario(SCENARIO, distances_km=[10.0, -1.0])
    with refused("distance_km"):
        sweep_key_rates(SCENARIO, distances_km=[10.0, -1.0])


def test_channel_transmittance_refuses_nan_attenuation_and_distance():
    with refused("alpha_db_per_km"):
        channel_transmittance(math.nan, 10.0)
    for distance in [math.nan, np.array([10.0, math.nan])]:
        with refused("distance_km"):
            channel_transmittance(0.2, distance)


def test_sweeps_and_threshold_raise_no_numpy_warnings():
    # the vacuous-bound, no-click and entropy end-point branches are guarded
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sweep_key_rates(SCENARIO)
        for estimator in ESTIMATORS:
            sweep_key_rates(NEAR_DECOY, ORACLE_M_DB, LONG_DISTANCES_KM, estimator)
        zero_key_threshold(NEAR_DECOY, distances_km=LONG_DISTANCES_KM)
        assert qber(0.0, np.array([0.0, 0.01]), 0.0, 0.5, 0.005).tolist() == [0.5, 0.5]
        assert decoy_bounds(SCENARIO, 0.9, 0.01, 1e-9, 0.01).e1_upper == 1.0
        assert binary_entropy(np.array([0.0, 1.0])).tolist() == [0.0, 0.0]


def test_zero_key_threshold_default_scenario():
    got = zero_key_threshold(SCENARIO)
    assert got == THRESHOLD_DB
    # at 1e5 km eta underflows to 0: a link without clicks adds no key
    assert zero_key_threshold(SCENARIO, distances_km=DEFAULT.distances_km + (1e5,)) == got
    # sanity: strictly positive key just below, none just above, at any distance
    for m_db, expect_key in ((got - 0.05, True), (got + 0.05, False)):
        best = max(
            evaluate_scenario(SCENARIO, AttackParams.from_db(m_db), distances_km=d).r_actual
            for d in DEFAULT.distances_km
        )
        assert (best > 0.0) is expect_key


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("scenario", [SCENARIO, NEAR_DECOY], ids=["default", "near_decoy"])
def test_zero_key_threshold_matches_the_literal_bisection(scenario, estimator):
    got = zero_key_threshold(scenario, (4.0, 9.0), LONG_DISTANCES_KM, estimator, tol_db=1e-12)
    # the oracle's own midpoint is within 5e-11 dB of where the key stops
    want = threshold_bisection(scenario, (4.0, 9.0), LONG_DISTANCES_KM, estimator, tol_db=1e-10)
    assert got == pytest.approx(want, abs=1e-9)


def test_zero_key_threshold_evaluates_only_the_link_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return link(*args)

    def refused(*args):
        raise AssertionError("the threshold evaluates no attack")

    link = security._link
    monkeypatch.setattr(security, "_link", counted)
    monkeypatch.setattr(security, "_evaluate", refused)
    monkeypatch.setattr(security, "attack_success_probability", refused)
    assert zero_key_threshold(SCENARIO) == THRESHOLD_DB
    assert len(calls) == 1


def test_zero_key_threshold_returns_below_the_float_spacing():
    # the halving used to spin forever once lo and hi were adjacent floats;
    # run it in a child process so a hang fails the test instead of the suite
    code = (
        "from ipasim.security import QkdScenario, zero_key_threshold\n"
        "print(repr(zero_key_threshold(QkdScenario(), tol_db=1e-300)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(security.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    got = float(proc.stdout)
    assert abs(got - THRESHOLD_DB) <= 1e-3
    # m* lies within one ulp: the range between got's neighbours brackets it
    zero_key_threshold(SCENARIO, (math.nextafter(got, 0.0), math.nextafter(got, math.inf)))
    # a tolerance the halving reaches still gives the same bits as before
    assert zero_key_threshold(SCENARIO, tol_db=1e-3) == THRESHOLD_DB
    with refused("m_search_range_db"):
        zero_key_threshold(SCENARIO, m_search_range_db=(4.0, math.inf))


@pytest.mark.parametrize("tol_db", [math.nan, math.inf, 0.0, -1.0])
def test_zero_key_threshold_refuses_a_tolerance_it_cannot_meet(tol_db):
    # nan and inf once stopped the halving at once and returned the midpoint of the range
    with refused("tol_db"):
        zero_key_threshold(SCENARIO, tol_db=tol_db)


def test_link_refuses_a_nan_distance():
    with refused("distance_km"):
        sweep_key_rates(SCENARIO, [0.0, 5.0], [10.0, math.nan])
    with refused("distance_km"):
        zero_key_threshold(SCENARIO, distances_km=[10.0, math.nan])


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_link_refuses_a_dark_signal_under_either_estimator(estimator):
    # without dark counts the transmittance at 50000 km underflows to 0, so
    # the signal never clicks; the true single-photon yield would be 0/0
    dark = QkdScenario(y0=0.0)
    distances = [0.0, 50000.0, 100000.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with refused("q_mu"):
            sweep_key_rates(dark, [0.0, 5.0], distances, estimator)
        with refused("q_mu"):
            zero_key_threshold(dark, distances_km=distances, estimator=estimator)
        with refused("q_mu"):
            evaluate_scenario(dark, AttackParams.from_db(5.0), estimator, distances)


def test_zero_key_threshold_refuses_an_error_rate_past_one_half():
    # dark counts that are always wrong push e_mu toward 1 at 400 km, which
    # the key rate, and so the threshold, refuse
    with pytest.raises(ValueError, match="e_mu must be in"):
        zero_key_threshold(QkdScenario(e0=1.0), distances_km=[0.0, 50.0, 400.0])


def test_zero_key_threshold_range_may_reach_a_magnification_without_key():
    # at 20 dB, far past the threshold, the attack takes all the key
    assert evaluate_scenario(SCENARIO, AttackParams.from_db(20.0), distances_km=50.0).r_actual == 0.0
    wide = zero_key_threshold(SCENARIO, m_search_range_db=(4.0, 20.0))
    assert abs(wide - THRESHOLD_DB) <= 1e-3


def test_zero_key_threshold_bracket_errors():
    with pytest.raises(BracketError):
        zero_key_threshold(SCENARIO, m_search_range_db=(8.0, 8.5))
    with pytest.raises(BracketError):
        zero_key_threshold(SCENARIO, m_search_range_db=(1.0, 4.0))
    # no key at any distance even without an attack
    assert max(r.r_est for r in sweep_key_rates(replace(SCENARIO, e_det=0.2), [0.0])) == 0.0
    with pytest.raises(BracketError):
        zero_key_threshold(replace(SCENARIO, e_det=0.2))
    # error-free clicks: the attack never takes the whole key (M0 = +inf)
    with pytest.raises(BracketError):
        zero_key_threshold(replace(SCENARIO, e0=0.0, e_det=0.0))
    with pytest.raises(BracketError):
        zero_key_threshold(SCENARIO, distances_km=())
    with pytest.raises(ValueError):
        zero_key_threshold(SCENARIO, m_search_range_db=(5.0, 5.0))


def test_single_photon_estimator_mode():
    attack = AttackParams.from_db(5.0)
    res = evaluate_scenario(SCENARIO, attack, "single_photon_true", distances_km=50.0)
    truth = single_photon_truth(SCENARIO, transmittance(50.0) * SCENARIO.eta_bob)
    assert res.y1_lower == pytest.approx(truth.y1_lower, rel=1e-12)
    assert res.e1_upper == pytest.approx(truth.e1_upper, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    m_db=st.floats(min_value=0.5, max_value=8.0),
    distance_km=st.floats(min_value=0.0, max_value=150.0),
)
def test_success_probability_is_a_probability(m_db, distance_km):
    attack = AttackParams.from_db(m_db)
    res = attack_success_probability(SCENARIO, attack, transmittance(distance_km))
    assert 0.0 <= res <= 1.0
