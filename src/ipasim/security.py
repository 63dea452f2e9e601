"""Decoy-state BB84 security bookkeeping under an output-magnification attack.

The attacker has raised the transmitter's output mean photon number by a
linear factor M without touching the protocol electronics.  To stay invisible
in the count rates she intercepts every pulse, keeps the multiphoton surplus,
and resends each photon with probability p = eta_AB / M, which makes the
receiver's gains and error rates identical to the unattacked channel.  The
legitimate users therefore keep estimating their multiphoton (tagged)
fraction from decoy statistics that no longer describe reality; this module
computes both views and the resulting estimated vs actual key rates.

Conventions: gains and yields are probabilities per pulse; magnification is
linear here (callers convert from dB).  Photon-number statistics use closed
forms and nothing is truncated.  ``n_trunc`` remains a validity guard: the
Poisson mass above it is reported as ``tail_bound``, and a magnified mean
whose tail reaches ``TAIL_LIMIT`` is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

# dark-count clicks carry no bit information, so they are wrong half the time
DARK_COUNT_ERROR = 0.5

TAIL_LIMIT = 1e-12


class BracketError(ValueError):
    """Search range does not bracket the zero-key threshold."""


@dataclass(frozen=True)
class QkdScenario:
    """Decoy-state BB84 link parameters (asymptotic analysis, no finite-key).

    Defaults model the usual metropolitan benchmark: standard telecom fiber,
    a receiver whose overall detection transmittance is 0.1 with dark count
    rate 6e-7 per pulse, 0.5% misalignment error, and error correction at
    1.16 times the Shannon limit.
    """

    mu: float = 0.8
    nu: float = 0.1
    alpha_db_per_km: float = 0.2
    distance_km: float = 50.0
    eta_bob: float = 0.1
    y0: float = 6e-7
    e_det: float = 0.005
    e0: float = DARK_COUNT_ERROR
    f_ec: float = 1.16
    n_trunc: int = 80

    def __post_init__(self) -> None:
        if not 0.0 < self.nu < self.mu:
            raise ValueError("need 0 < nu < mu")
        if not 0.0 < self.eta_bob <= 1.0:
            raise ValueError("eta_bob must be in (0, 1]")
        if not 0.0 <= self.y0 < 1.0:
            raise ValueError("y0 must be in [0, 1)")
        if not 0.0 <= self.e_det <= 0.5:
            raise ValueError("e_det must be in [0, 0.5]")
        if not 0.0 <= self.e0 <= 1.0:
            raise ValueError("e0 must be in [0, 1]")
        if self.alpha_db_per_km < 0.0 or self.distance_km < 0.0:
            raise ValueError("fiber attenuation and distance must be >= 0")
        if self.f_ec < 1.0:
            raise ValueError("f_ec must be >= 1")
        if self.n_trunc < 20:
            raise ValueError("n_trunc must be >= 20")

    @property
    def eta_ab(self) -> float:
        return channel_transmittance(self.alpha_db_per_km, self.distance_km)

    @property
    def eta(self) -> float:
        return self.eta_ab * self.eta_bob


@dataclass(frozen=True)
class AttackParams:
    """Magnification plus Eve's per-photon resend probability.

    When ``p_resend`` is omitted it is derived as eta_AB / m_linear, the
    value that leaves the receiver's count rates unchanged.
    """

    m_linear: float
    p_resend: Optional[float] = None

    def __post_init__(self) -> None:
        if self.m_linear < 1.0:
            raise ValueError("m_linear must be >= 1")
        if self.p_resend is not None and not 0.0 <= self.p_resend <= 1.0:
            raise ValueError("p_resend must be in [0, 1]")

    @classmethod
    def from_db(cls, m_db: float, p_resend: Optional[float] = None) -> "AttackParams":
        return cls(10.0 ** (m_db / 10.0), p_resend)

    @property
    def m_db(self) -> float:
        return 10.0 * math.log10(self.m_linear)

    def resolved_p(self, eta_ab: float) -> float:
        if self.p_resend is not None:
            return self.p_resend
        return resend_probability(eta_ab, self.m_linear)


def channel_transmittance(alpha_db_per_km: float, distance_km: float) -> float:
    if distance_km < 0.0:
        raise ValueError("distance_km must be >= 0")
    return 10.0 ** (-alpha_db_per_km * distance_km / 10.0)


def gain(mpn: float, eta: float, y0: float) -> float:
    """Detection probability per pulse; clamped at 1 for pathological inputs."""
    if mpn < 0.0:
        raise ValueError("mpn must be >= 0")
    return min(y0 + 1.0 - math.exp(-eta * mpn), 1.0)


def qber(mpn: float, eta: float, y0: float, e0: float, e_det: float) -> float:
    """Error rate per detected pulse: dark-count noise diluted by real signal."""
    q = gain(mpn, eta, y0)
    if q <= 0.0:
        return e0
    return (e0 * y0 + e_det * (1.0 - math.exp(-eta * mpn))) / q


def binary_entropy(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary entropy needs x in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class DecoyBounds:
    y1_lower: float
    e1_upper: float
    clamped: bool


def decoy_bounds(
    scenario: QkdScenario, q_mu: float, e_mu: float, q_nu: float, e_nu: float
) -> DecoyBounds:
    """Vacuum+weak analytic bounds on single-photon yield and error.

    Negative intermediates clamp to zero with the flag set; a vanishing yield
    bound makes the error bound vacuous (1) rather than dividing by zero.
    """
    mu, nu, y0, e0 = scenario.mu, scenario.nu, scenario.y0, scenario.e0
    y1 = (mu / (mu * nu - nu**2)) * (
        q_nu * math.exp(nu)
        - q_mu * math.exp(mu) * (nu**2 / mu**2)
        - ((mu**2 - nu**2) / mu**2) * y0
    )
    clamped = False
    if y1 <= 0.0:
        return DecoyBounds(0.0, 1.0, True)
    if y1 > 1.0:
        y1, clamped = 1.0, True
    e1 = (e_nu * q_nu * math.exp(nu) - e0 * y0) / (y1 * nu)
    if e1 < 0.0:
        e1, clamped = 0.0, True
    if e1 > 1.0:
        e1, clamped = 1.0, True
    return DecoyBounds(y1, e1, clamped)


def single_photon_truth(scenario: QkdScenario) -> DecoyBounds:
    """True single-photon yield and error, for the oracle estimator mode."""
    y1 = scenario.y0 + scenario.eta
    e1 = (scenario.e0 * scenario.y0 + scenario.e_det * scenario.eta) / y1
    return DecoyBounds(y1, e1, False)


def resend_probability(eta_ab: float, m_linear: float) -> float:
    """Per-photon forwarding probability that hides the attack in the rates."""
    if m_linear < 1.0:
        raise ValueError("m_linear must be >= 1")
    return eta_ab / m_linear


def attacked_gain(
    mpn: float, m_linear: float, p: float, eta_bob: float, y0: float
) -> float:
    """Receiver gain seen during the attack: magnified, thinned, detected."""
    return gain(mpn, m_linear * p * eta_bob, y0)


def _poisson_pmf(n: int, mean: float) -> float:
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


def pns_photon_distribution(n: int, m_linear: float, p: float, mu: float) -> float:
    """Photon-number law of resent pulses.

    Magnifying a Poissonian source by M and thinning each photon with
    probability p is again Poissonian with mean M*p*mu.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _poisson_pmf(n, m_linear * p * mu)


@dataclass(frozen=True)
class TailBounded:
    value: float
    tail_bound: float


def poisson_tail(mean: float, n_trunc: int) -> float:
    """P(N > n_trunc) for N ~ Poisson(mean).

    Below the cut the tail is summed upward until a term no longer moves it;
    each term shrinks by mean/n, so the remainder is far below rounding.  A
    mean above the cut puts most of the mass in the tail, which is then one
    minus the short sum of the first ``n_trunc + 1`` terms.
    """
    if mean > n_trunc:
        return 1.0 - math.fsum(_poisson_pmf(n, mean) for n in range(n_trunc + 1))
    tail, n = 0.0, n_trunc + 1
    while True:
        term = _poisson_pmf(n, mean)
        tail += term
        if term <= 1e-17 * tail:
            return tail
        n += 1


def attack_success_probability(
    scenario: QkdScenario, attack: AttackParams
) -> TailBounded:
    """Probability a pulse both leaves Eve a stored photon and clicks at Bob.

    The defining expression sums over magnified-pulse photon numbers n >= 2
    and the split m of forwarded photons (Eve keeps at least one, forwards at
    least one), weighting by the chance any forwarded photon is detected:

        sum_n P(n) sum_{m=1}^{n-1} C(n,m) p^m (1-p)^(n-m) (1 - (1-eta_B)^m)

    Thinning a Poisson(mu_E) pulse splits it into independent Poisson streams
    of kept photons (mean mu_E*(1-p)) and forwarded-and-detected photons
    (mean mu_E*p*eta_B), so the sum is exactly the chance both are nonzero:

        (1 - exp(-mu_E*p*eta_B)) * (1 - exp(-mu_E*(1-p)))

    The literal double sum is kept in the test suite as the oracle.  The
    returned tail bound is the Poisson mass above ``n_trunc``; a scenario
    whose tail reaches ``TAIL_LIMIT`` is refused with a ValueError.
    """
    mu_e = attack.m_linear * scenario.mu
    p = attack.resolved_p(scenario.eta_ab)
    tail = poisson_tail(mu_e, scenario.n_trunc)
    if tail >= TAIL_LIMIT:
        raise ValueError(
            f"n_trunc={scenario.n_trunc} leaves Poisson tail {tail:.3e} at mean "
            f"{mu_e:.3f}; increase n_trunc"
        )
    detected = -math.expm1(-mu_e * p * scenario.eta_bob)
    kept = -math.expm1(-mu_e * (1.0 - p))
    return TailBounded(detected * kept, tail)


def tagged_fraction_estimated(
    scenario: QkdScenario, y1_lower: float, q_mu: float
) -> float:
    """Multiphoton fraction the users infer from their decoy bound."""
    if q_mu <= 0.0:
        raise ValueError("q_mu must be positive")
    p1 = scenario.mu * math.exp(-scenario.mu)
    return min(max(1.0 - p1 * y1_lower / q_mu, 0.0), 1.0)


@dataclass(frozen=True)
class KeyRate:
    bits_per_pulse: float
    raw: float


def key_rate(
    scenario: QkdScenario, delta: float, e1: float, q_mu: float, e_mu: float
) -> KeyRate:
    """Secret key per pulse; clamped at zero, raw value kept for searches."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")
    if not 0.0 <= e1 <= 0.5 or not 0.0 <= e_mu <= 0.5:
        raise ValueError("e1 and e_mu must be in [0, 0.5]")
    raw = q_mu * (
        (1.0 - delta) * (1.0 - binary_entropy(e1))
        - scenario.f_ec * binary_entropy(e_mu)
    )
    return KeyRate(max(raw, 0.0), raw)


@dataclass(frozen=True)
class SecurityResult:
    m_db: float
    distance_km: float
    q_mu: float
    e_mu: float
    q_nu: float
    e_nu: float
    y1_lower: float
    e1_upper: float
    bounds_clamped: bool
    delta_est: float
    delta_pns: float
    r_est: float
    r_actual: float
    r_est_raw: float
    r_actual_raw: float
    p_s: float
    tail_bound: float


ESTIMATORS = ("decoy", "single_photon_true")


def evaluate_scenario(
    scenario: QkdScenario,
    attack: Optional[AttackParams] = None,
    estimator: str = "decoy",
) -> SecurityResult:
    """Full per-link security bookkeeping for one magnification setting.

    The users' observables (gains, error rates, decoy bounds, estimated key)
    are those of the unattacked channel: the resend probability is chosen so
    the attack leaves them identical.  ``attack=None`` means no attacker, and
    then the actual key equals the estimate by definition.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}")
    eta = scenario.eta
    q_mu = gain(scenario.mu, eta, scenario.y0)
    e_mu = qber(scenario.mu, eta, scenario.y0, scenario.e0, scenario.e_det)
    q_nu = gain(scenario.nu, eta, scenario.y0)
    e_nu = qber(scenario.nu, eta, scenario.y0, scenario.e0, scenario.e_det)
    if estimator == "decoy":
        bounds = decoy_bounds(scenario, q_mu, e_mu, q_nu, e_nu)
    else:
        bounds = single_photon_truth(scenario)
    delta_est = tagged_fraction_estimated(scenario, bounds.y1_lower, q_mu)
    e1 = min(bounds.e1_upper, 0.5)
    est = key_rate(scenario, delta_est, e1, q_mu, e_mu)
    if attack is None:
        delta_pns, p_s, tail, act = delta_est, 0.0, 0.0, est
        m_db = 0.0
    else:
        success = attack_success_probability(scenario, attack)
        p_s = success.value
        delta_pns = min(max(p_s / q_mu, 0.0), 1.0)
        tail = success.tail_bound / q_mu
        act = key_rate(scenario, delta_pns, e1, q_mu, e_mu)
        m_db = attack.m_db
    return SecurityResult(
        m_db=m_db,
        distance_km=scenario.distance_km,
        q_mu=q_mu,
        e_mu=e_mu,
        q_nu=q_nu,
        e_nu=e_nu,
        y1_lower=bounds.y1_lower,
        e1_upper=bounds.e1_upper,
        bounds_clamped=bounds.clamped,
        delta_est=delta_est,
        delta_pns=delta_pns,
        r_est=est.bits_per_pulse,
        r_actual=act.bits_per_pulse,
        r_est_raw=est.raw,
        r_actual_raw=act.raw,
        p_s=p_s,
        tail_bound=tail,
    )


DEFAULT_M_DB_GRID = (0.0, 4.0, 5.0, 6.0, 6.5)
DEFAULT_DISTANCES_KM = tuple(float(d) for d in range(0, 151, 2))


def sweep_key_rates(
    scenario: QkdScenario,
    m_db_list: Sequence[float] = DEFAULT_M_DB_GRID,
    distances_km: Sequence[float] = DEFAULT_DISTANCES_KM,
    estimator: str = "decoy",
) -> list[SecurityResult]:
    """Estimated vs actual key rate over a magnification and distance grid.

    An entry of 0 dB means no attacker at all (not an M = 1 interceptor):
    the actual columns repeat the estimated ones.
    """
    rows: list[SecurityResult] = []
    for m_db in m_db_list:
        if m_db < 0.0:
            raise ValueError("m_db must be >= 0")
        attack = None if m_db == 0.0 else AttackParams.from_db(m_db)
        for dist in distances_km:
            sc = replace(scenario, distance_km=float(dist))
            rows.append(evaluate_scenario(sc, attack, estimator))
    return rows


def zero_key_threshold(
    scenario: QkdScenario,
    m_search_range_db: tuple[float, float] = (4.0, 9.0),
    distances_km: Sequence[float] = DEFAULT_DISTANCES_KM,
    estimator: str = "decoy",
    tol_db: float = 1e-3,
) -> float:
    """Smallest magnification at which no distance yields any actual key.

    Bisects on the raw (unclamped) actual key rate maximized over the
    distance grid.  The assumed monotone decrease of that maximum in M is
    checked on a presample of the range first.
    """

    def best_raw(m_db: float) -> float:
        attack = AttackParams.from_db(m_db)
        best = -math.inf
        for dist in distances_km:
            sc = replace(scenario, distance_km=float(dist))
            best = max(best, evaluate_scenario(sc, attack, estimator).r_actual_raw)
        return best

    lo, hi = m_search_range_db
    if not 0.0 <= lo < hi:
        raise ValueError("need 0 <= low < high in m_search_range_db")
    samples = np.linspace(lo, hi, 7)
    values = [best_raw(float(m)) for m in samples]
    if any(b > a + 1e-12 for a, b in zip(values, values[1:])):
        raise ValueError("best actual key rate is not monotone over the range")
    if values[0] <= 0.0 or values[-1] > 0.0:
        raise BracketError(
            f"range {m_search_range_db} does not bracket the zero-key point"
        )
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if best_raw(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
