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
forms and nothing is truncated.  ``n_trunc`` remains a validity guard on
attacked evaluations: the Poisson mass above it is reported as
``tail_bound``, and a magnified mean whose tail reaches ``TAIL_LIMIT`` is
refused.

Every per-link formula is a numpy expression over a whole distance grid.
The link half (gains, error rates, decoy bounds, estimated key) does not
depend on the magnification, so a sweep costs one link evaluation plus a
row of attack terms (p_s, actual key, Poisson tail) per magnification.  The
zero-key threshold costs one link evaluation and no search: with p = eta_AB/M
the success probability is a closed form in M, so each distance's zero-key
magnification follows from its decoy estimate (``zero_key_threshold``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

# A float, or an array with one entry per distance of a grid.  The per-link
# functions take and return either; each range check covers every entry.
Floats = Union[float, np.ndarray]

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
        if not 0.0 <= self.alpha_db_per_km < math.inf:
            raise ValueError("alpha_db_per_km must be >= 0")
        if not 0.0 <= self.distance_km < math.inf:
            raise ValueError("distance_km must be >= 0")
        if not 1.0 <= self.f_ec < math.inf:
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
        if not 1.0 <= self.m_linear < math.inf:
            raise ValueError("m_linear must be >= 1 and finite")
        if self.p_resend is not None and not 0.0 <= self.p_resend <= 1.0:
            raise ValueError("p_resend must be in [0, 1]")

    @classmethod
    def from_db(cls, m_db: float, p_resend: Optional[float] = None) -> "AttackParams":
        return cls(10.0 ** (m_db / 10.0), p_resend)

    @property
    def m_db(self) -> float:
        return 10.0 * math.log10(self.m_linear)

    def resolved_p(self, eta_ab: Floats) -> Floats:
        if self.p_resend is not None:
            return self.p_resend
        return resend_probability(eta_ab, self.m_linear)


def _within(x: Floats, low: float, high: float) -> bool:
    """Every entry in [low, high]; NaN is outside."""
    x = np.asarray(x)
    return bool(((low <= x) & (x <= high)).all())


def channel_transmittance(alpha_db_per_km: float, distance_km: Floats) -> Floats:
    if (np.asarray(distance_km) < 0.0).any():
        raise ValueError("distance_km must be >= 0")
    return 10.0 ** (-alpha_db_per_km * distance_km / 10.0)


def gain(mpn: float, eta: Floats, y0: float) -> Floats:
    """Detection probability per pulse; clamped at 1 for pathological inputs.

    1 - exp(-eta*mpn) is formed with expm1: next to 1 it keeps only ~1e-16
    absolute accuracy, which on a long link is a ~1e-10 relative error in
    the gain that the decoy bounds amplify further.
    """
    if mpn < 0.0:
        raise ValueError("mpn must be >= 0")
    return np.minimum(y0 - np.expm1(-eta * mpn), 1.0)


def qber(mpn: float, eta: Floats, y0: float, e0: float, e_det: float) -> Floats:
    """Error rate per detected pulse: dark-count noise diluted by real signal."""
    q = gain(mpn, eta, y0)
    detected = q > 0.0
    # a link that never clicks has only the dark-count error
    errors = e0 * y0 - e_det * np.expm1(-eta * mpn)
    return np.where(detected, errors / np.where(detected, q, 1.0), e0)[()]


def binary_entropy(x: Floats) -> Floats:
    x = np.asarray(x, dtype=float)
    if not _within(x, 0.0, 1.0):
        raise ValueError("binary entropy needs x in [0, 1]")
    inside = (x > 0.0) & (x < 1.0)
    # the end points carry no entropy; 1/2 stands in there so no log sees 0
    y = np.where(inside, x, 0.5)
    return np.where(inside, -y * np.log2(y) - (1.0 - y) * np.log2(1.0 - y), 0.0)[()]


@dataclass(frozen=True)
class DecoyBounds:
    y1_lower: Floats
    e1_upper: Floats
    clamped: Union[bool, np.ndarray]


def decoy_bounds(
    scenario: QkdScenario, q_mu: Floats, e_mu: Floats, q_nu: Floats, e_nu: Floats
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
    vacuous = y1 <= 0.0
    clamped = vacuous | (y1 > 1.0)
    y1 = np.where(vacuous, 0.0, np.minimum(y1, 1.0))
    e1 = (e_nu * q_nu * math.exp(nu) - e0 * y0) / (np.where(vacuous, 1.0, y1) * nu)
    clamped |= (e1 < 0.0) | (e1 > 1.0)
    e1 = np.where(vacuous, 1.0, np.minimum(np.maximum(e1, 0.0), 1.0))
    return DecoyBounds(y1[()], e1[()], clamped[()])


def single_photon_truth(scenario: QkdScenario, eta: Optional[Floats] = None) -> DecoyBounds:
    """True single-photon yield and error, for the oracle estimator mode.

    ``eta`` replaces the scenario's overall transmittance, e.g. with one
    entry per distance of a grid.
    """
    eta = scenario.eta if eta is None else eta
    y1 = scenario.y0 + eta
    e1 = (scenario.e0 * scenario.y0 + scenario.e_det * eta) / y1
    return DecoyBounds(y1, e1, np.zeros(np.shape(y1), dtype=bool)[()])


def resend_probability(eta_ab: Floats, m_linear: float) -> Floats:
    """Per-photon forwarding probability that hides the attack in the rates."""
    if not m_linear >= 1.0:
        raise ValueError("m_linear must be >= 1")
    return eta_ab / m_linear


def attacked_gain(
    mpn: float, m_linear: float, p: Floats, eta_bob: float, y0: float
) -> Floats:
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
    value: Floats
    tail_bound: float


def poisson_tail(mean: float, n_trunc: int) -> float:
    """P(N > n_trunc) for N ~ Poisson(mean).

    Below the cut the tail is summed upward until a term no longer moves it;
    each term shrinks by mean/n, so the remainder is far below rounding.  A
    mean above the cut puts most of the mass in the tail, which is then one
    minus the short sum of the first ``n_trunc + 1`` terms.
    """
    if not math.isfinite(mean):
        raise ValueError("Poisson mean must be finite")
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
    scenario: QkdScenario, attack: AttackParams, eta_ab: Optional[Floats] = None
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
    whose tail reaches ``TAIL_LIMIT`` is refused with a ValueError.  The tail
    depends on the magnified mean only, so ``eta_ab``, which replaces the
    scenario's channel transmittance (e.g. with one entry per distance of a
    grid), leaves it a float.
    """
    mu_e = attack.m_linear * scenario.mu
    p = attack.resolved_p(scenario.eta_ab if eta_ab is None else eta_ab)
    tail = poisson_tail(mu_e, scenario.n_trunc)
    if tail >= TAIL_LIMIT:
        raise ValueError(
            f"n_trunc={scenario.n_trunc} leaves Poisson tail {tail:.3e} at mean "
            f"{mu_e:.3f}; increase n_trunc"
        )
    detected = -np.expm1(-mu_e * p * scenario.eta_bob)
    kept = -np.expm1(-mu_e * (1.0 - p))
    return TailBounded(detected * kept, tail)


def tagged_fraction_estimated(
    scenario: QkdScenario, y1_lower: Floats, q_mu: Floats
) -> Floats:
    """Multiphoton fraction the users infer from their decoy bound."""
    if (np.asarray(q_mu) <= 0.0).any():
        raise ValueError("q_mu must be positive")
    p1 = scenario.mu * math.exp(-scenario.mu)
    return np.minimum(np.maximum(1.0 - p1 * y1_lower / q_mu, 0.0), 1.0)


@dataclass(frozen=True)
class KeyRate:
    bits_per_pulse: Floats
    raw: Floats


def key_rate(
    scenario: QkdScenario, delta: Floats, e1: Floats, q_mu: Floats, e_mu: Floats
) -> KeyRate:
    """Secret key per pulse; clamped at zero, the signed raw value kept."""
    if not _within(delta, 0.0, 1.0):
        raise ValueError("delta must be in [0, 1]")
    if not _within(e1, 0.0, 0.5) or not _within(e_mu, 0.0, 0.5):
        raise ValueError("e1 and e_mu must be in [0, 0.5]")
    raw = q_mu * (
        (1.0 - delta) * (1.0 - binary_entropy(e1))
        - scenario.f_ec * binary_entropy(e_mu)
    )
    return KeyRate(np.maximum(raw, 0.0), raw)


# not frozen: a sweep builds one per row, and a frozen one costs ten times as much
@dataclass
class SecurityResult:
    """One link's bookkeeping: floats at one distance, arrays over a grid."""

    m_db: Floats
    distance_km: Floats
    q_mu: Floats
    e_mu: Floats
    q_nu: Floats
    e_nu: Floats
    y1_lower: Floats
    e1_upper: Floats
    bounds_clamped: Union[bool, np.ndarray]
    delta_est: Floats
    delta_pns: Floats
    r_est: Floats
    r_actual: Floats
    r_est_raw: Floats
    r_actual_raw: Floats
    p_s: Floats
    tail_bound: Floats


ESTIMATORS = ("decoy", "single_photon_true")


def _link(scenario: QkdScenario, estimator: str, distances_km: Sequence[float]) -> tuple:
    """The users' side of a link over a distance grid, the same under any attack."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}")
    distance = np.asarray(distances_km, dtype=float)
    if not _within(distance, 0.0, math.inf):
        raise ValueError("fiber attenuation and distance must be >= 0")
    eta_ab = channel_transmittance(scenario.alpha_db_per_km, distance)
    eta = eta_ab * scenario.eta_bob
    q_mu = gain(scenario.mu, eta, scenario.y0)
    e_mu = qber(scenario.mu, eta, scenario.y0, scenario.e0, scenario.e_det)
    q_nu = gain(scenario.nu, eta, scenario.y0)
    e_nu = qber(scenario.nu, eta, scenario.y0, scenario.e0, scenario.e_det)
    if estimator == "decoy":
        bounds = decoy_bounds(scenario, q_mu, e_mu, q_nu, e_nu)
    else:
        bounds = single_photon_truth(scenario, eta)
    delta_est = tagged_fraction_estimated(scenario, bounds.y1_lower, q_mu)
    return distance, eta_ab, q_mu, e_mu, q_nu, e_nu, bounds, delta_est


def _evaluate(
    scenario: QkdScenario, attacks: Sequence[Optional[AttackParams]],
    estimator: str, distances_km: Sequence[float],
) -> dict[str, np.ndarray]:
    """One link under each of ``attacks`` (None: no attacker), field by field.

    The link's fields are 1-D over the distances and the attack's are 2-D, row
    i for ``attacks[i]``.  The users' side is computed once; the attack terms
    are elementwise, so each row has the bits a one-attack evaluation gives.
    """
    distance, eta_ab, q_mu, e_mu, q_nu, e_nu, bounds, delta_est = _link(
        scenario, estimator, distances_km
    )
    shape = (len(attacks), distance.size)
    (p_s, m_db), tail = np.zeros((2, *shape)), np.zeros((shape[0], 1))
    attacked = np.array([attack is not None for attack in attacks], dtype=bool)[:, None]
    for i, attack in enumerate(attacks):
        if attack is not None:
            success = attack_success_probability(scenario, attack, eta_ab)
            p_s[i], tail[i], m_db[i] = success.value, success.tail_bound, attack.m_db
    # no attacker: the actual key is the estimate by definition
    delta_pns = np.where(attacked, np.minimum(np.maximum(p_s / q_mu, 0.0), 1.0), delta_est)
    # the estimate and every actual tagged fraction in one call: each entropy once
    e1 = np.minimum(bounds.e1_upper, 0.5)
    rates = key_rate(scenario, np.vstack([delta_est, delta_pns]), e1, q_mu, e_mu)
    return dict(
        m_db=m_db, distance_km=distance, q_mu=q_mu, e_mu=e_mu, q_nu=q_nu, e_nu=e_nu,
        y1_lower=bounds.y1_lower, e1_upper=bounds.e1_upper, bounds_clamped=bounds.clamped,
        delta_est=delta_est, delta_pns=delta_pns, p_s=p_s, tail_bound=tail / q_mu,
        r_est=rates.bits_per_pulse[0], r_actual=rates.bits_per_pulse[1:],
        r_est_raw=rates.raw[0], r_actual_raw=rates.raw[1:],
    )


def evaluate_scenario(
    scenario: QkdScenario,
    attack: Optional[AttackParams] = None,
    estimator: str = "decoy",
    distances_km: Optional[Sequence[float]] = None,
) -> SecurityResult:
    """Full per-link security bookkeeping for one magnification setting.

    The users' observables (gains, error rates, decoy bounds, estimated key)
    are those of the unattacked channel: the resend probability is chosen so
    the attack leaves them identical.  ``attack=None`` means no attacker, and
    then the actual key equals the estimate by definition.

    Without ``distances_km`` the link is evaluated at ``scenario.distance_km``
    and every field is a float (or bool).  With a grid every field is an
    array with one entry per distance, from one pass of the array formulas;
    the attack's Poisson tail, which does not depend on distance, is
    computed once.  It is one row of the sweep's evaluation.
    """
    grid = [scenario.distance_km] if distances_km is None else distances_km
    columns = _evaluate(scenario, [attack], estimator, grid)
    shape = (1, columns["distance_km"].size)
    row = {name: np.broadcast_to(v, shape)[0] for name, v in columns.items()}
    if distances_km is None:
        row = {name: value.item() for name, value in row.items()}
    return SecurityResult(**row)


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
    the actual columns repeat the estimated ones.  The link is evaluated once
    for the whole grid and each magnification adds only its attack terms;
    the rows, magnification-major, hold plain floats and bools.
    """
    if not all(m_db >= 0.0 for m_db in m_db_list):
        raise ValueError("m_db must be >= 0")
    attacks = [None if m_db == 0.0 else AttackParams.from_db(m_db) for m_db in m_db_list]
    grid = _evaluate(scenario, attacks, estimator, distances_km)
    n = len(attacks)
    # a 1-D column is the link's, the same under every magnification
    columns = [grid[f.name] for f in fields(SecurityResult)]
    columns = [v.tolist() * n if v.ndim == 1 else v.ravel().tolist() for v in columns]
    return [SecurityResult(*row) for row in zip(*columns)]


def zero_key_threshold(
    scenario: QkdScenario,
    m_search_range_db: tuple[float, float] = (4.0, 9.0),
    distances_km: Sequence[float] = DEFAULT_DISTANCES_KM,
    estimator: str = "decoy",
    tol_db: float = 1e-3,
) -> float:
    """Smallest magnification at which no distance yields any actual key.

    Exact for the grid, from one evaluation of the users' side of the link
    (no attack term, no key rate), whose e_mu must be at most 1/2 as the key
    rate requires.  With p = eta_AB/M the success probability
    p_s = (1 - exp(-mu*eta))(1 - exp(-mu*(M - eta_AB))) rises in M, and the
    key at a distance is gone once p_s/q_mu reaches
    delta* = 1 - f*H(e_mu)/(1 - H(e1)), so from M0 = eta_AB - ln(1 - r)/mu on,
    with r = q_mu*delta*/(1 - exp(-mu*eta)) (-inf where delta* <= 0, +inf
    where r >= 1).  The threshold m* is the largest M0 in dB, reported as a
    bisection to ``tol_db`` would report it: the range is halved, keeping m*
    in (lo, hi], until no wider than ``tol_db``, and its midpoint returned.
    """
    lo, hi = m_search_range_db
    if not 0.0 <= lo < hi:
        raise ValueError("need 0 <= low < high in m_search_range_db")
    _, eta_ab, q_mu, e_mu, _, _, bounds, _ = _link(scenario, estimator, distances_km)
    if not _within(e_mu, 0.0, 0.5):
        raise ValueError("e1 and e_mu must be in [0, 0.5]")
    h1 = binary_entropy(np.minimum(bounds.e1_upper, 0.5))
    # masked below: H(e1) = 1 and a dark link divide by zero, ratios >= 1 leave ln
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = 1.0 - scenario.f_ec * binary_entropy(e_mu) / (1.0 - h1)
        r = q_mu * delta / -np.expm1(-scenario.mu * (eta_ab * scenario.eta_bob))
        m0 = np.where(r < 1.0, eta_ab - np.log1p(-r) / scenario.mu, math.inf)
    best = float(np.max(np.where(delta > 0.0, m0, -math.inf), initial=-math.inf))
    m_star = 10.0 * math.log10(best) if best > 0.0 else -math.inf
    if not lo < m_star <= hi:
        raise BracketError(f"range {m_search_range_db} does not bracket the zero-key point")
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid < m_star else (lo, mid)
    return 0.5 * (lo + hi)
