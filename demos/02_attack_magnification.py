"""How irradiation reshapes the attenuation-versus-voltage curve.

The pristine attenuator has its deepest null a fixed distance from the
working point.  Holding the bias voltage while irradiating builds up a
differential space-charge field that shifts the whole curve sideways, so
the working point slides off the null flank and the device attenuates far
less than the operator calibrated.
"""

from ipasim.calibration import WORKING_POINT_V, default_device

dev = default_device()
baseline_mu = dev.output_mpn(1.0, WORKING_POINT_V)

null_before = dev.find_extinction_voltage(-12.0, 12.0)
print(f"pristine: deepest null at {null_before:+.4f} V, "
      f"working point {WORKING_POINT_V} V gives "
      f"{dev.attenuation_db(WORKING_POINT_V):.2f} dB")

for power in (3e-9, 1e-7, 1e-6, 6.26e-6, 1.2e-5):
    hot = dev.equilibrated(power, WORKING_POINT_V)
    null_after = hot.find_extinction_voltage(-12.0, 12.0)
    m_db = hot.magnification_db(WORKING_POINT_V, baseline_mu)
    print(f"after {power:9.2e} W: null moved to {null_after:+.4f} V "
          f"({null_after - null_before:+.4f} V), magnification {m_db:6.3f} dB")

print()
print("the null spacing stays one half-wave voltage; only the offset moves,")
print("so a routine transmittance check at the working point alone cannot")
print("distinguish a treated device from a miscalibrated one.")

# CSV version: ipasim voltage-curve --out runs/vc
