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
linear here (callers convert from dB); every scenario and attack field is
range-checked, and each argument a call checks at entry, in every entry of an
array; the private kernels (gains, resend probability, tagged fraction) are
handed checked values and check nothing.  The declared ranges keep every
derived value a finite float: mu is at most 709, so exp(mu) is, and m_linear
at most 1e300, so the magnified mean m_linear * mu is.  A scenario holds no
distance: the evaluations take a grid, by default ``SweepPlan``'s, and the
per-link terms its transmittance.  Photon-number statistics use closed forms,
nothing truncated; a result row's ``tail_bound`` is a diagnostic, the
magnified mean's Poisson mass above ``_TAIL_CUT`` over q_mu, no bound once it
passes 1.

Every per-link formula is a numpy expression over a whole distance grid, and
evaluations run in stacked blocks, since on grids of tens of points numpy's
cost per call outweighs its cost per entry.  The link half (gains, error
rates, decoy bounds, estimated key) does not depend on the magnification: it
takes the signal and decoy intensities as one (2, 1) column against the
grid, so one expm1 serves both gains and both error rates.  A sweep
evaluates it once, then the resend and success probabilities of every
attacked magnification as one (n, d) broadcast in a single
``attack_success_probability`` call; only the scalar Poisson tail of a
row's ``tail_bound`` is summed per magnification.  The key rate checks the
stacked (e1, e_mu) block once and takes both entropies from it in one
call.  The zero-key threshold costs one link evaluation and no search: with
p = eta_AB/M the success probability is a closed form in M, so each
distance's zero-key magnification follows from its decoy estimate
(``zero_key_threshold``).
``BENCH_security_grid.json`` gives the measured costs.  ``SweepPlan`` lays
out a sweep's grids and the threshold's search range, its default instance
gives both functions their defaults, and a sweep of more than
``MAX_GRID_POINTS`` rows is refused before it is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from ._ranges import (
    MAX_GRID_POINTS, POSITIVE, Refusal, check_ranges, check_size, extremes, interval,
    ranged,
)

# A float, or an array with one entry per distance of a grid.  The per-link
# functions take and return either; each range check covers every entry.
Floats = Union[float, np.ndarray]

# dark-count clicks carry no bit information, so they are wrong half the time
DARK_COUNT_ERROR = 0.5

_TAIL_CUT = 80  # the photon number past which ``tail_bound`` sums the Poisson mass

# a probability, and an error rate the key rate admits
_UNIT, _ERROR_RATE = map(interval, ("[0, 1]", "[0, 0.5]"))
# a magnification in dB, whose linear value 10 ** (m_db / 10) is at most AttackParams' 1e300
_M_DB = "[0, 3000]"
# a link's length: 1e5 km is past any fibre link, and its loss at most 1e7 dB
_KM = "[0, 1e5]"
# a fibre's loss, 0.2 dB/km at 1550 nm: 100 dB/km is past any fibre at any wavelength
_ALPHA = "[0, 100]"
# a threshold's tolerance, no wider than the magnifications it searches
_TOL_DB = "(0, 3000]"


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

    # the decoy bounds weigh the signal gain by exp(mu), a finite float up to 709
    mu: float = ranged("(0, 709]", 0.8)
    nu: float = ranged("[1e-6, 1]", 0.1)  # a decoy weaker than one photon: 0.05 to 0.2 in use
    alpha_db_per_km: float = ranged(_ALPHA, 0.2)
    eta_bob: float = ranged("(0, 1]", 0.1)
    y0: float = ranged("[0, 1)", 6e-7)
    e_det: float = ranged("[0, 0.5]", 0.005)
    e0: float = ranged("[0, 1]", DARK_COUNT_ERROR)
    f_ec: float = ranged("[1, 10]", 1.16)  # within 10 times the Shannon limit

    def __post_init__(self) -> None:
        check_ranges(self)
        if not self.nu < self.mu:
            raise ValueError("need 0 < nu < mu")


@dataclass(frozen=True)
class AttackParams:
    """The output magnification; Eve resends each photon with probability
    eta_AB / m_linear, which leaves the receiver's count rates unchanged.
    Up to 1e300, the magnified mean m_linear * mu of any scenario is a finite float."""

    m_linear: float = ranged("[1, 1e300]")

    __post_init__ = check_ranges

    @classmethod
    def from_db(cls, m_db: float) -> "AttackParams":
        interval(_M_DB).check("m_db", m_db)
        return cls(10.0 ** (m_db / 10.0))

    @property
    def m_db(self) -> float:
        return 10.0 * math.log10(self.m_linear)


def channel_transmittance(alpha_db_per_km: float, distance_km: Floats) -> Floats:
    """Fiber transmittance at a distance, or at each of a grid.  A distance is in
    [0, 1e5] km, or inf (no light) except on a lossless fiber, where its loss
    0 * inf would be NaN."""
    interval(_ALPHA).check("alpha_db_per_km", alpha_db_per_km)
    shortest, longest = extremes(distance_km)
    if longest == math.inf and alpha_db_per_km > 0.0:
        grid = np.asarray(distance_km, dtype=float)
        shortest, longest = extremes(np.where(grid == math.inf, 0.0, grid))
    if not (0.0 <= shortest and longest <= interval(_KM).most):
        raise Refusal("distance_km", f"distance_km must be in {_KM}, or inf on a lossy fiber")
    return 10.0 ** (-alpha_db_per_km * distance_km / 10.0)


def _clicks(mpn: Floats, eta: Floats, y0: float) -> tuple[Floats, Floats]:
    """The gain (detection probability per pulse, clamped at 1) and
    exp(-eta*mpn) - 1, the one expm1 that the gain and the error rate share.

    1 - exp(-eta*mpn) is formed with expm1: next to 1 it keeps only ~1e-16
    absolute accuracy, which on a long link is a ~1e-10 relative error in
    the gain that the decoy bounds amplify further.  ``mpn`` may be a column,
    e.g. (mu, nu) as shape (2, 1), giving one row per mean photon number.
    """
    missed = np.expm1(-eta * mpn)
    return np.minimum(y0 - missed, 1.0), missed


def _error_rate(q: Floats, missed: Floats, y0: float, e0: float, e_det: float) -> Floats:
    """Error rate per detected pulse: dark-count noise diluted by real signal,
    a mean of e0 and e_det held between the two where the quotient rounds past
    them (0.5 * 1e-310 / 1e-310 is 0.5000000000000248)."""
    detected = q > 0.0
    # a link that never clicks has only the dark-count error
    errors = e0 * y0 - e_det * missed
    rate = np.where(detected, errors / np.where(detected, q, 1.0), e0)
    return np.minimum(np.maximum(rate, min(e0, e_det)), max(e0, e_det))[()]


def binary_entropy(x: Floats) -> Floats:
    _UNIT.check("x", x)
    return _entropy(x)


def _entropy(x: Floats) -> Floats:
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    # the end points carry no entropy; 1/2 stands in there so no log sees 0
    y = np.where(inside, x, 0.5)
    z = 1.0 - y
    return np.where(inside, -y * np.log2(y) - z * np.log2(z), 0.0)[()]


class DecoyBounds(NamedTuple):
    y1_lower: Floats
    e1_upper: Floats
    clamped: Union[bool, np.ndarray]


def _decoy_bounds(
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


def _single_photon_truth(scenario: QkdScenario, eta: Floats) -> DecoyBounds:
    """True single-photon yield and error, for the oracle estimator mode, at
    overall transmittance ``eta`` (a float, or one entry per distance of a grid).
    """
    y1 = scenario.y0 + eta
    e1 = (scenario.e0 * scenario.y0 + scenario.e_det * eta) / y1
    return DecoyBounds(y1, e1, np.zeros(np.shape(y1), dtype=bool)[()])


def _resend_probability(eta_ab: Floats, m_linear: Floats) -> Floats:
    """Per-photon forwarding probability that hides the attack in the rates.

    ``m_linear`` may be a column of magnifications, one row each.
    """
    return eta_ab / m_linear


def _poisson_pmf(n: int, mean: float) -> float:
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


def _poisson_tail(mean: float, n_trunc: int) -> float:
    """P(N > n_trunc) for N ~ Poisson(mean), of a finite mean >= 0.

    Below the cut the tail is summed upward until a term no longer moves it;
    each term shrinks by mean/n, so the remainder is far below rounding.  A
    mean above the cut puts most of the mass in the tail, which is then one
    minus the short sum of the first ``n_trunc + 1`` terms.
    """
    if mean > n_trunc:
        return 1.0 - math.fsum(_poisson_pmf(n, mean) for n in range(n_trunc + 1))
    if mean == 0.0:
        return 0.0
    # _poisson_pmf written out, with log(mean) taken once: a call per term
    # would double the cost of the sum
    log_mean, tail, n = math.log(mean), 0.0, n_trunc + 1
    while True:
        term = math.exp(n * log_mean - mean - math.lgamma(n + 1))
        tail += term
        if term <= 1e-17 * tail:
            return tail
        n += 1


def attack_success_probability(
    scenario: QkdScenario,
    attack: Union[AttackParams, Sequence[AttackParams]],
    eta_ab: Floats,
) -> Floats:
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
    result has the shape of the channel transmittance ``eta_ab``, a float or
    one entry per distance of a grid.

    ``attack`` may also be a sequence of n attacks.  Then the result gains a
    leading axis, row i for ``attack[i]``: the success probabilities of all
    of them come from one broadcast of the magnifications as an (n, 1)
    column against the grid.
    """
    _UNIT.check("eta_ab", eta_ab)
    single = isinstance(attack, AttackParams)
    attacks = (attack,) if single else attack
    column = (len(attacks),) + (1,) * np.asarray(eta_ab).ndim
    m_linear = np.array([a.m_linear for a in attacks]).reshape(column)
    p = _resend_probability(eta_ab, m_linear)
    # both factors are exp(-x) - 1, not 1 - exp(-x): the signs cancel in the product
    minus_mu_e = m_linear * -scenario.mu
    value = np.expm1(minus_mu_e * p * scenario.eta_bob) * np.expm1(minus_mu_e * (1.0 - p))
    return value[0] if single else value


def _tagged_fraction_estimated(scenario: QkdScenario, y1_lower: Floats, q_mu: Floats) -> Floats:
    """Multiphoton fraction the users infer from their decoy bound."""
    p1 = scenario.mu * math.exp(-scenario.mu)
    return np.minimum(np.maximum(1.0 - p1 * y1_lower / q_mu, 0.0), 1.0)


class KeyRate(NamedTuple):
    bits_per_pulse: Floats
    raw: Floats


def key_rate(
    scenario: QkdScenario, delta: Floats, e1: Floats, q_mu: Floats, e_mu: Floats
) -> KeyRate:
    """Secret key per pulse; clamped at zero, the signed raw value kept."""
    _UNIT.check("delta", delta)
    _UNIT.check("q_mu", q_mu)
    return _key_rate(scenario, delta, e1, q_mu, e_mu)


def _key_rate(
    scenario: QkdScenario, delta: Floats, e1: Floats, q_mu: Floats, e_mu: Floats
) -> KeyRate:
    """:func:`key_rate` of a checked delta and q_mu: one check, one entropy call, of (e1, e_mu)."""
    errors = np.empty((2, *np.broadcast(e1, e_mu).shape))
    errors[0], errors[1] = e1, e_mu
    if not _ERROR_RATE.holds(errors):  # one test of both, the refusal naming the one out of range
        name = "e_mu" if _ERROR_RATE.holds(errors[0]) else "e1"
        raise Refusal(name, f"e1 and e_mu {_ERROR_RATE.message}")
    h1, h_mu = _entropy(errors)
    raw = q_mu * ((1.0 - delta) * (1.0 - h1) - scenario.f_ec * h_mu)
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


_FIELDS = tuple(f.name for f in fields(SecurityResult))

ESTIMATORS = ("decoy", "single_photon_true")


def _check_estimator(estimator: str) -> None:
    if estimator not in ESTIMATORS:
        raise Refusal("estimator", f"estimator must be one of: {', '.join(ESTIMATORS)}")


def _link(scenario: QkdScenario, estimator: str, distances_km: Sequence[float]) -> tuple:
    """The users' side of a link over a distance grid, the same under any attack.

    The signal and the decoy are one (2, 1) column of mean photon numbers
    against the grid, so the gains ``q``, error rates ``e`` and the
    exp(-eta*mpn) - 1 they share (``missed``) are (2, d) blocks, row 0 the
    signal's and row 1 the decoy's.
    """
    _check_estimator(estimator)
    distance = np.asarray(distances_km, dtype=float)
    eta_ab = channel_transmittance(scenario.alpha_db_per_km, distance)
    eta = eta_ab * scenario.eta_bob
    q, missed = _clicks(np.array([[scenario.mu], [scenario.nu]]), eta, scenario.y0)
    e = _error_rate(q, missed, scenario.y0, scenario.e0, scenario.e_det)
    # a dark signal leaves nothing to estimate from, and 0/0 in the true yield
    POSITIVE.check("q_mu", q[0])
    if estimator == "decoy":
        bounds = _decoy_bounds(scenario, q[0], e[0], q[1], e[1])
    else:
        bounds = _single_photon_truth(scenario, eta)
    return distance, eta_ab, q, e, missed, bounds


# the fields that differ between attacks, in the order of _evaluate's block
_ATTACK_FIELDS = ("m_db", "p_s", "tail_bound", "delta_pns", "r_actual", "r_actual_raw")


def _evaluate(
    scenario: QkdScenario, attacks: Sequence[Optional[AttackParams]],
    estimator: str, distances_km: Sequence[float],
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """One link under each of ``attacks`` (None: no attacker).

    Returns the link's fields, 1-D over the distances, and the attack's as
    one (6, n, d) block in ``_ATTACK_FIELDS`` order, row i for ``attacks[i]``.
    The users' side is computed once and the terms of every attack in one
    call; all are elementwise, so each row has the bits a one-attack
    evaluation gives.
    """
    distance, eta_ab, (q_mu, q_nu), (e_mu, e_nu), _, bounds = _link(
        scenario, estimator, distances_km
    )
    delta_est = _tagged_fraction_estimated(scenario, bounds.y1_lower, q_mu)
    attacked = [attack for attack in attacks if attack is not None]
    # row 0 is the link without an attacker, row j the j-th attack
    block = np.zeros((len(_ATTACK_FIELDS), len(attacked) + 1, distance.size))
    m_db, p_s, tail, delta, r_actual, r_actual_raw = block
    if attacked:
        p_s[1:] = attack_success_probability(scenario, attacked, eta_ab)
        m_db[1:] = [[attack.m_db] for attack in attacked]
        tails = [[_poisson_tail(attack.m_linear * scenario.mu, _TAIL_CUT)] for attack in attacked]
        # a diagnostic, not a bound past the cut: a link whose gain is subnormal reads inf
        with np.errstate(over="ignore"):
            np.divide(tails, q_mu, out=tail[1:])
    np.minimum(np.maximum(p_s / q_mu, 0.0), 1.0, out=delta)
    # no attacker: the actual key is the estimate by definition
    delta[0] = delta_est
    rates = _key_rate(scenario, delta, np.minimum(bounds.e1_upper, 0.5), q_mu, e_mu)
    r_actual[:], r_actual_raw[:] = rates.bits_per_pulse, rates.raw
    count = itertools.count(1)
    rows = np.array([0 if attack is None else next(count) for attack in attacks], dtype=int)
    link = dict(
        distance_km=distance, q_mu=q_mu, e_mu=e_mu, q_nu=q_nu, e_nu=e_nu,
        y1_lower=bounds.y1_lower, e1_upper=bounds.e1_upper, bounds_clamped=bounds.clamped,
        delta_est=delta_est, r_est=r_actual[0], r_est_raw=r_actual_raw[0],
    )
    return link, block[:, rows]


@dataclass
class SweepPlan:
    """A key-rate sweep of every magnification in ``m_db_grid`` over the
    distances from ``distance_min_km`` to ``distance_max_km`` in
    ``distance_step_km`` steps (``distances_km``, built by the checks), and
    its zero-key threshold search in (``m_search_low_db``,
    ``m_search_high_db``] to ``threshold_tol_db``.  The distances, and the
    rows of the sweep, number at most ``MAX_GRID_POINTS``.
    """

    m_db_grid: tuple[float, ...] = ranged(_M_DB, (0.0, 4.0, 5.0, 6.0, 6.5))
    distance_min_km: float = ranged(_KM, 0.0)
    distance_max_km: float = ranged(_KM, 150.0)
    distance_step_km: float = ranged("[1e-3, 1e5]", 2.0)  # no link is known to within a metre
    m_search_low_db: float = ranged(_M_DB, 4.0)
    m_search_high_db: float = ranged(_M_DB, 9.0)
    threshold_tol_db: float = ranged(_TOL_DB, 1e-3)
    estimator: str = "decoy"

    def __post_init__(self) -> None:
        check_ranges(self)
        lo, hi, step = self.distance_min_km, self.distance_max_km, self.distance_step_km
        n = len(self.m_db_grid)
        if not n:
            raise Refusal("m_db_grid", "m_db_grid: needs at least one magnification")
        if not hi >= lo:
            raise Refusal("distance_max_km", "distance_max_km must be >= distance_min_km")
        count = ((hi - lo) / step + 1e-9) // 1 + 1  # a float, at most 1e8 + 1
        check_size(count, MAX_GRID_POINTS, "distance_max_km: the distance grid from "
                   f"distance_min_km in distance_step_km steps exceeds {MAX_GRID_POINTS} points",
                   "distance_max_km")
        check_size(n * count, MAX_GRID_POINTS, f"m_db_grid: a sweep of {n} magnifications "
                   f"over the distance grid exceeds {MAX_GRID_POINTS} rows", "m_db_grid")
        if not self.m_search_high_db > self.m_search_low_db:
            raise Refusal("m_search_high_db", "m_search_high_db must exceed m_search_low_db")
        _check_estimator(self.estimator)
        self.distances_km = tuple(lo + i * step for i in range(int(count)))


_PLAN = SweepPlan()  # the defaults of evaluate_scenario, sweep_key_rates and zero_key_threshold


def evaluate_scenario(
    scenario: QkdScenario,
    attack: Optional[AttackParams] = None,
    estimator: str = _PLAN.estimator,
    distances_km: Union[float, Sequence[float]] = _PLAN.distances_km,
) -> SecurityResult:
    """Full per-link security bookkeeping for one magnification setting.

    The users' observables (gains, error rates, decoy bounds, estimated key)
    are those of the unattacked channel: the resend probability is chosen so
    the attack leaves them identical.  ``attack=None`` means no attacker, and
    then the actual key equals the estimate by definition.

    Over a grid of distances every field is an array with one entry per
    distance, from one pass of the array formulas; the attack's Poisson tail,
    which does not depend on distance, is computed once.  A single float
    distance is a grid of one whose fields come back as floats (or a bool),
    one row of the sweep's; an infinite one transmits no light.
    """
    single = np.ndim(distances_km) == 0
    grid = [distances_km] if single else distances_km
    link, block = _evaluate(scenario, [attack], estimator, grid)
    row = dict(link, **dict(zip(_ATTACK_FIELDS, block[:, 0])))
    if single:
        row = {name: value.item() for name, value in row.items()}
    return SecurityResult(**row)


def sweep_key_rates(
    scenario: QkdScenario,
    m_db_list: Sequence[float] = _PLAN.m_db_grid,
    distances_km: Sequence[float] = _PLAN.distances_km,
    estimator: str = _PLAN.estimator,
) -> list[SecurityResult]:
    """Estimated vs actual key rate over a magnification and distance grid.

    An entry of 0 dB means no attacker at all (not an M = 1 interceptor):
    the actual columns repeat the estimated ones.  The link is evaluated once
    for the whole grid and each magnification adds only its attack terms;
    the rows, magnification-major, hold plain floats and bools.
    """
    n, count = len(m_db_list), len(distances_km)
    check_size(n * count, MAX_GRID_POINTS, f"a sweep of {n} magnifications over {count} "
               f"distances exceeds {MAX_GRID_POINTS} rows")
    interval(_M_DB).check("m_db_list", m_db_list)
    attacks = [None if m_db == 0.0 else AttackParams.from_db(m_db) for m_db in m_db_list]
    link, block = _evaluate(scenario, attacks, estimator, distances_km)
    # a link column is the same under every magnification
    columns = {name: value.tolist() * n for name, value in link.items()}
    columns.update(zip(_ATTACK_FIELDS, block.reshape(len(_ATTACK_FIELDS), -1).tolist()))
    return list(map(SecurityResult, *(columns[name] for name in _FIELDS)))


def zero_key_threshold(
    scenario: QkdScenario,
    m_search_range_db: tuple[float, float] = (_PLAN.m_search_low_db, _PLAN.m_search_high_db),
    distances_km: Sequence[float] = _PLAN.distances_km,
    estimator: str = _PLAN.estimator,
    tol_db: float = _PLAN.threshold_tol_db,
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
    A ``tol_db`` below the float spacing near m* stops the halving once lo
    and hi are adjacent floats, so the result is within one ulp of m*.
    """
    interval(_TOL_DB).check("tol_db", tol_db)
    interval(_M_DB).check("m_search_range_db", m_search_range_db)
    lo, hi = m_search_range_db
    if not lo < hi:
        raise Refusal("m_search_range_db", "need 0 <= low < high in m_search_range_db")
    _, eta_ab, q, (e_mu, _), missed, bounds = _link(scenario, estimator, distances_km)
    _ERROR_RATE.check("e_mu", e_mu)  # as key_rate refuses it; e1_upper is in [0, 1]
    h1, h_mu = _entropy((np.minimum(bounds.e1_upper, 0.5), e_mu))
    # masked below: H(e1) = 1 and a dark link divide by zero, ratios >= 1 leave ln
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = 1.0 - scenario.f_ec * h_mu / (1.0 - h1)
        # -missed[0] is the signal's 1 - exp(-mu*eta)
        r = q[0] * delta / -missed[0]
        m0 = np.where(r < 1.0, eta_ab - np.log1p(-r) / scenario.mu, math.inf)
    m0 = np.where(delta > 0.0, m0, -math.inf)
    best = float(np.maximum.reduce(m0, axis=None, initial=-math.inf))
    m_star = 10.0 * math.log10(best) if best > 0.0 else -math.inf
    if not lo < m_star <= hi:
        raise BracketError(f"range {m_search_range_db} does not bracket the zero-key point")
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # ends a float apart: no tolerance below that is reachable
            break
        lo, hi = (mid, hi) if mid < m_star else (lo, mid)
    return 0.5 * (lo + hi)
