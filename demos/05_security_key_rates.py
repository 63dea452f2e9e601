"""Key-rate consequences: the gap between estimated and actual security.

A magnified source emits brighter pulses than the legitimate parties
believe.  An eavesdropper who intercepts, keeps one photon from every
multiphoton pulse, and resends the rest over a lossless channel stays
invisible in the observed gain while learning the key.  The parties'
decoy-state estimate of the key rate keeps looking healthy while the
actual rate, accounting for the true photon statistics, collapses.
"""

from ipasim.security import (
    AttackParams,
    QkdScenario,
    evaluate_scenario,
    sweep_key_rates,
    zero_key_threshold,
)

scenario = QkdScenario()
distance_km = 50.0

print(f"scenario: mu {scenario.mu}, decoy nu {scenario.nu}, "
      f"{scenario.alpha_db_per_km} dB/km, Bob efficiency {scenario.eta_bob}")
print()
print(f"at {distance_km:.0f} km:")
print(f"{'M (dB)':>7}  {'R estimated':>12}  {'R actual':>12}  {'p_success':>10}")
quiet = evaluate_scenario(scenario, distances_km=distance_km)  # no attack: both rates coincide
print(f"{'none':>7}  {quiet.r_est:12.3e}  {quiet.r_actual:12.3e}  "
      f"{quiet.p_s:10.3e}")
for m_db in (4.0, 5.0, 6.0, 6.5):
    res = evaluate_scenario(scenario, AttackParams.from_db(m_db), distances_km=distance_km)
    print(f"{m_db:7.1f}  {res.r_est:12.3e}  {res.r_actual:12.3e}  "
          f"{res.p_s:10.3e}")

print()
m_db = 6.0
rows = sweep_key_rates(scenario, (m_db,), tuple(range(0, 81, 10)))
print(f"distance sweep at M = {m_db} dB:")
print(f"{'km':>4}  {'R estimated':>12}  {'R actual':>12}")
for row in rows:
    print(f"{row.distance_km:4.0f}  {row.r_est:12.3e}  {row.r_actual:12.3e}")

threshold = zero_key_threshold(scenario)
print()
print(f"zero-key magnification threshold: {threshold:.3f} dB")
print("above this magnification the actual key rate is zero at every")
print("distance while the estimated rate still says the link is fine.")

# CSV version: ipasim security sweep --out runs/sweep ; ipasim security threshold
