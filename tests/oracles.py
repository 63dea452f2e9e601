"""Independent reference implementations used as test oracles.

Everything here is written from the defining expressions with stdlib math
(plus numpy sampling for the Monte-Carlo check), deliberately avoiding the
closed forms, vectorized identities and scipy special functions the package
itself uses.  Slow and dumb on purpose.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np


def poisson_pmf(n: int, mean: float) -> float:
    """exp(n ln(mean) - mean - ln n!) without scipy."""
    if n < 0:
        return 0.0
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


def thinned_pmf_bruteforce(n: int, mu_e: float, p: float, m_trunc: int = 60) -> float:
    """P(n photons survive thinning by p of a Poisson(mu_e) pulse).

    Literal convolution: sum over the pre-thinning photon number m of the
    Poisson weight times the binomial chance exactly n of the m survive.
    """
    total = 0.0
    for m in range(n, m_trunc + 1):
        total += (
            poisson_pmf(m, mu_e)
            * math.comb(m, n)
            * p**n
            * (1.0 - p) ** (m - n)
        )
    return total


def success_double_sum(mu_e: float, p: float, eta_b: float, n_trunc: int) -> float:
    """Literal double sum for the keep-one-forward-some success probability.

    Outer sum over the magnified pulse's photon number n >= 2; inner sum over
    the number m of forwarded photons with 1 <= m <= n-1 (at least one kept,
    at least one forwarded), weighted by the chance any forwarded photon is
    detected downstream.
    """
    total = 0.0
    for n in range(2, n_trunc + 1):
        weight = poisson_pmf(n, mu_e)
        inner = 0.0
        for m in range(1, n):
            inner += (
                math.comb(n, m)
                * p**m
                * (1.0 - p) ** (n - m)
                * (1.0 - (1.0 - eta_b) ** m)
            )
        total += weight * inner
    return total


def success_monte_carlo(
    mu_e: float, p: float, eta_b: float, pulses: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Sampled success probability and its standard error.

    Per pulse: draw the photon number, thin it into forwarded vs kept, and
    count success when at least one photon is kept, at least one forwarded,
    and at least one forwarded photon is detected.
    """
    n = rng.poisson(mu_e, size=pulses)
    forwarded = rng.binomial(n, p)
    detected = rng.binomial(forwarded, eta_b)
    success = (forwarded >= 1) & (n - forwarded >= 1) & (detected >= 1)
    estimate = float(np.mean(success))
    stderr = math.sqrt(max(estimate * (1.0 - estimate), 1e-300) / pulses)
    return estimate, stderr


def relaxation_closed_form(
    start: float, target: float, tau: float, t: float
) -> float:
    """First-order relaxation evaluated directly, in extended precision.

    The double-precision form target + (start - target)*exp(-t/tau) loses
    ~eps*tau/t relative accuracy to cancellation for t << tau, which is the
    regime the integrator is supposed to get right.
    """
    start_l, target_l = np.longdouble(start), np.longdouble(target)
    decay = np.exp(-np.longdouble(t) / np.longdouble(tau))
    return float(target_l + (start_l - target_l) * decay)


# -- exposure of the two-arm device, one literal step at a time ------------------


def _arm_relaxation(mat, power_w: float, e_app: float) -> tuple[float, float]:
    """Steady-state field and relaxation time of one arm at constant light.

    Straight from the transport constants: photoconductivity linear up to
    the crossover and continuous ~P**(1/m) above it, field driven by the
    photovoltaic current and screened by drift.
    """
    sigma_lin = mat.photocond_per_w * mat.absorption_per_m
    if power_w <= mat.crossover_power_w:
        sigma_ph = sigma_lin * power_w
    else:
        ratio = power_w / mat.crossover_power_w
        sigma_ph = sigma_lin * mat.crossover_power_w * ratio ** (1.0 / mat.sublinear_exponent)
    sigma = mat.dark_conductivity_s_per_m + sigma_ph
    target = (mat.photovoltaic_const * mat.absorption_per_m * power_w - sigma_ph * e_app) / sigma
    return target, mat.rel_permittivity * 8.8541878128e-12 / sigma


def saturated_index_change(mat, power_w: float, e_app: float = 0.0) -> float:
    """Microscopic steady-state index change, 0.5 * n^3 * r33 * gamma * e_inf.

    Relates to the effective response by delta_n = f * L / l_eff when the
    applied field is zero or the photoconductivity is in its linear regime.
    """
    n3r = mat.refractive_index**3 * mat.r33_m_per_v * mat.mode_overlap
    return 0.5 * n3r * _arm_relaxation(mat, power_w, e_app)[0]


def _arm_conditions(device, power_w: float, v_app_v: float) -> list[tuple[float, float]]:
    """(power, applied field) of each arm: lossy injection split, push-pull bias."""
    loss_db = device.irradiation_coupling_db + device.polarization_loss_db
    delivered = power_w * 10.0 ** (-loss_db / 10.0)
    e = v_app_v / device.geometry.electrode_gap_m
    split = device.irradiation_split
    return [(delivered * split, e), (delivered * (1.0 - split), -e)]


def _ode_step(device, field: float, power_w: float, e_app: float, dt: float) -> float:
    """Exact solution of d(field)/dt = (target - field) / tau over one step."""
    if power_w == 0.0 and device.decay_mode.value == "frozen":
        return field
    target, tau = _arm_relaxation(device.material, power_w, e_app)
    return target + (field - target) * math.exp(-dt / tau)


def _readout(device, f1: float, f2: float, v: float) -> tuple[float, float]:
    """Interferometer phase and two-beam transmittance for given arm fields.

    theta = theta0 + v*(2 pi / v_pi - (C/d)(g1 + g2)) + D (g1 - g2) with the
    index responses g = G * field.
    """
    mat, geo = device.material, device.geometry
    n3r = mat.refractive_index**3 * mat.r33_m_per_v * mat.mode_overlap
    g1, g2 = (n3r * mat.photocond_per_w / (2.0 * mat.absorption_per_m) * f for f in (f1, f2))
    c = 2.0 * mat.photocond_per_w * math.pi * geo.electrode_length_m / (
        mat.photovoltaic_const * geo.signal_wavelength_m
    )
    d = 2.0 * math.pi * geo.arm_length_m / geo.signal_wavelength_m
    theta = (
        device.bias_phase_rad
        + v * (2.0 * math.pi / device.v_pi_v - c / geo.electrode_gap_m * (g1 + g2))
        + d * (g1 - g2)
    )
    r = device.signal_split
    return theta, 4.0 * r * (1.0 - r) * math.cos(theta / 2.0) ** 2


def single_period_gain_db(device, ctrl, mu_in: float, v_app_v: float) -> float:
    """Magnification gained by one full-duty period from the device's state.

    The relaxation law makes this the largest move any single period can
    produce from states at or above this one, so evaluated on a pristine
    device it bounds how far the closed loop can overshoot its target.  The
    input mean photon number ``mu_in`` scales both readings and cancels.
    """
    fields = (device.field1_v_per_m, device.field2_v_per_m)
    lit = [
        _ode_step(device, f, p, e, ctrl.period_s)
        for f, (p, e) in zip(fields, _arm_conditions(device, ctrl.peak_power_w, v_app_v))
    ]
    _, before = _readout(device, *fields, v_app_v)
    _, after = _readout(device, *lit, v_app_v)
    return 10.0 * math.log10(after / before)


def exposure_loop(device, segments, mu_in: float, v_app_v: float, dt_s: float) -> list[tuple]:
    """Literal per-step exposure of a piecewise-constant power program.

    ``segments`` lists (power_w, duration_s).  Each segment advances in steps
    of ``dt_s`` with a shorter last step, the clock summed step by step, and
    one row (t, power, theta, transmittance, attenuation dB, magnification dB)
    is recorded at t = 0 and after every step.
    """
    f1, f2 = device.field1_v_per_m, device.field2_v_per_m
    baseline = mu_in * _readout(device, f1, f2, v_app_v)[1]

    def row(t: float, power: float) -> tuple:
        theta, trans = _readout(device, f1, f2, v_app_v)
        atten = -10.0 * math.log10(trans) if trans > 0.0 else math.inf
        m = 10.0 * math.log10(mu_in * trans / baseline) if trans > 0.0 else -math.inf
        return (t, power, theta, trans, atten, m)

    rows = [row(0.0, segments[0][0])]
    t = 0.0
    for power, duration in segments:
        (p1, e1), (p2, e2) = _arm_conditions(device, power, v_app_v)
        left = duration
        while left > 0.0:
            step = min(dt_s, left)
            f1 = _ode_step(device, f1, p1, e1, step)
            f2 = _ode_step(device, f2, p2, e2, step)
            left -= step
            t += step
            rows.append(row(t, power))
    return rows


def pulse_loop(
    device, ctrl, mu_in: float, v_app_v: float, max_periods: int, hold_periods: int, rng=None
) -> tuple[int, bool, list[tuple]]:
    """Literal duty-cycle loop: (periods, settled, rows).

    Each period fires the peak power for duty * period, then, unless the duty
    is 1, stays dark for the rest of the period; both arms step by the exact
    relaxation solution, and the reading is the magnification against the
    starting output, plus Gaussian dB noise when ``ctrl.noise_db`` is set.
    The duty moves by gain * error, clamped to [duty_min, duty_max].  The loop
    stops ``hold_periods`` after the error first stays within tolerance for
    ``SETTLE_PERIODS`` periods in a row, or after ``max_periods``.  One row
    (t, duty, power, m_db, error_db) per period.
    """
    settle_periods = 5  # ipasim.attack.SETTLE_PERIODS
    f1, f2 = device.field1_v_per_m, device.field2_v_per_m
    baseline = mu_in * _readout(device, f1, f2, v_app_v)[1]
    (p1, e1), (p2, e2) = _arm_conditions(device, ctrl.peak_power_w, v_app_v)
    rows = []
    duty = ctrl.duty_min
    streak, settled_at, period = 0, None, 0
    while period < max_periods:
        period += 1
        on = duty * ctrl.period_s
        f1 = _ode_step(device, f1, p1, e1, on)
        f2 = _ode_step(device, f2, p2, e2, on)
        if duty < 1.0:
            off = (1.0 - duty) * ctrl.period_s
            f1 = _ode_step(device, f1, 0.0, e1, off)
            f2 = _ode_step(device, f2, 0.0, e2, off)
        trans = _readout(device, f1, f2, v_app_v)[1]
        m = 10.0 * math.log10(mu_in * trans / baseline) if trans > 0.0 else -math.inf
        if ctrl.noise_db > 0.0:
            m += ctrl.noise_db * float(rng.standard_normal())
        error = ctrl.target_m_db - m
        rows.append((period * ctrl.period_s, duty, ctrl.peak_power_w, m, error))
        if settled_at is None:
            streak = streak + 1 if abs(error) <= ctrl.settle_tol_db else 0
            if streak >= settle_periods:
                settled_at = period
        if settled_at is not None and period - settled_at >= hold_periods:
            break
        duty = duty + ctrl.gain_duty_per_db * error
        if duty < ctrl.duty_min:
            duty = ctrl.duty_min
        if duty > ctrl.duty_max:
            duty = ctrl.duty_max
    return period, settled_at is not None, rows


def saturation_loop(
    device, power_w: float, v_app_v: float, dt_s: float, epsilon: float, max_steps: int
) -> tuple[int, bool, tuple[float, float]]:
    """Literal saturation run: (steps, converged, the two arm fields at the end).

    Steps of ``dt_s`` until, for both arms, the projected relative field move
    over one relaxation time, |target - field| * (1 - 1/e) / |target|, is at
    most ``epsilon``, or until ``max_steps``.
    """
    conditions = _arm_conditions(device, power_w, v_app_v)
    fields = [device.field1_v_per_m, device.field2_v_per_m]

    def settled() -> bool:
        for (p, e), f in zip(conditions, fields):
            target = _arm_relaxation(device.material, p, e)[0]
            if abs(target - f) * (1.0 - math.exp(-1.0)) / max(abs(target), 1e-30) > epsilon:
                return False
        return True

    steps = 0
    while steps < max_steps and not settled():
        fields = [_ode_step(device, f, p, e, dt_s) for f, (p, e) in zip(fields, conditions)]
        steps += 1
    return steps, settled(), tuple(fields)


def binary_entropy_reference(x: float) -> float:
    if x in (0.0, 1.0):
        return 0.0
    return -(x * math.log(x) + (1.0 - x) * math.log(1.0 - x)) / math.log(2.0)


# -- decoy-state bookkeeping of one link at one distance -------------------------


def security_row(scenario, m_db: float, distance_km: float, estimator: str) -> dict:
    """Every ``SecurityResult`` field of one link, literally, at one distance.

    Gains and error rates of the signal and decoy intensities, the
    vacuum+weak bounds of Ma, Qi, Zhao & Lo (PRA 72, 012326, 2005) with their
    clamps (or the true single-photon yield and error), the GLLP key rate
    from both tagged fractions, and the PNS success probability as the
    literal double sum.  ``m_db = 0`` means no attacker.
    """
    sc = scenario
    eta_ab = 10.0 ** (-sc.alpha_db_per_km * distance_km / 10.0)
    eta = eta_ab * sc.eta_bob

    def clicked(mpn):  # 1 - exp(-eta*mpn), at full precision on long links
        return -math.expm1(-eta * mpn)

    def q(mpn):
        return min(sc.y0 + clicked(mpn), 1.0)

    def e(mpn):
        return (sc.e0 * sc.y0 + sc.e_det * clicked(mpn)) / q(mpn)

    mu, nu = sc.mu, sc.nu
    q_mu, e_mu, q_nu, e_nu = q(mu), e(mu), q(nu), e(nu)
    if estimator == "single_photon_true":
        y1 = sc.y0 + eta
        e1 = (sc.e0 * sc.y0 + sc.e_det * eta) / y1
        clamped = False
    else:
        y1 = mu / (mu * nu - nu * nu) * (
            q_nu * math.exp(nu)
            - q_mu * math.exp(mu) * nu * nu / (mu * mu)
            - (mu * mu - nu * nu) / (mu * mu) * sc.y0
        )
        if y1 <= 0.0:
            y1, e1, clamped = 0.0, 1.0, True
        else:
            clamped = y1 > 1.0
            y1 = min(y1, 1.0)
            e1 = (e_nu * q_nu * math.exp(nu) - sc.e0 * sc.y0) / (y1 * nu)
            clamped = clamped or not 0.0 <= e1 <= 1.0
            e1 = min(max(e1, 0.0), 1.0)

    def unit(x):
        return min(max(x, 0.0), 1.0)

    def raw_key(delta):
        h = binary_entropy_reference
        return q_mu * ((1.0 - delta) * (1.0 - h(min(e1, 0.5))) - sc.f_ec * h(e_mu))

    delta_est = unit(1.0 - mu * math.exp(-mu) * y1 / q_mu)
    if m_db == 0.0:
        m_out, p_s, tail, delta_pns = 0.0, 0.0, 0.0, delta_est
    else:
        m_linear = 10.0 ** (m_db / 10.0)
        mu_e = m_linear * mu
        m_out = 10.0 * math.log10(m_linear)
        p_s = success_double_sum(mu_e, eta_ab / m_linear, sc.eta_bob, sc.n_trunc)
        above = math.fsum(poisson_pmf(n, mu_e) for n in range(sc.n_trunc + 1, 400))
        tail = above / q_mu
        delta_pns = unit(p_s / q_mu)
    r_est_raw, r_actual_raw = raw_key(delta_est), raw_key(delta_pns)
    return {
        "m_db": m_out, "distance_km": distance_km,
        "q_mu": q_mu, "e_mu": e_mu, "q_nu": q_nu, "e_nu": e_nu,
        "y1_lower": y1, "e1_upper": e1, "bounds_clamped": clamped,
        "delta_est": delta_est, "delta_pns": delta_pns,
        "r_est": max(r_est_raw, 0.0), "r_actual": max(r_actual_raw, 0.0),
        "r_est_raw": r_est_raw, "r_actual_raw": r_actual_raw,
        "p_s": p_s, "tail_bound": tail,
    }


def threshold_bisection(
    scenario, m_range_db: tuple[float, float], distances_km, estimator: str, tol_db: float
) -> float:
    """Zero-key magnification by literal bisection over ``security_row``.

    A magnification leaves key if the raw actual key rate is positive at any
    of the distances; the range is halved toward the point where that stops
    until it is no wider than ``tol_db``, and its midpoint is returned.
    """

    def has_key(m_db):
        return any(
            security_row(scenario, m_db, d, estimator)["r_actual_raw"] > 0.0
            for d in distances_km
        )

    lo, hi = m_range_db
    assert has_key(lo) and not has_key(hi), "range does not bracket the zero-key point"
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if has_key(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def csv_by_rows(header, columns) -> str:
    """A table through stdlib ``csv.writer``, row by row, each cell rendered
    by its own type: bools as true/false, floats by shortest round-trip
    ``repr``, ints and everything else by ``str``.
    """

    def cell(value):
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([cell(value) for value in row])
    return buf.getvalue()
