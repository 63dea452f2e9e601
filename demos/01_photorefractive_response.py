"""Saturated magnification versus irradiation power, and the rise to plateau.

Sweeps CW irradiation power delivered to the attenuator and prints the
equilibrium magnification at the working point next to the build-up time
constant of the slower arm.  The curve is non-monotone: past the peak the
two arms saturate toward similar index changes and the differential phase
shrinks again.  A single time trace at the peak power shows the approach
to the plateau, including the small overshoot from the faster arm.
"""

import numpy as np

from ipasim.attack import IrradiationProgram, run_program
from ipasim.calibration import WORKING_POINT_V, calibration_summary, default_device

dev = default_device()
baseline_mu = dev.output_mpn(1.0, WORKING_POINT_V)
summary = calibration_summary()

print(f"baseline attenuation at {WORKING_POINT_V} V: "
      f"{summary['baseline_attenuation_db']:.2f} dB")
print(f"dark relaxation time constant: {summary['tau_dark_s']:.0f} s")
print()
print(f"{'power':>10}  {'m_sat (dB)':>10}  {'tau (s)':>9}")
powers = np.geomspace(1e-9, 1.2e-5, 14)
for power in powers:
    m_db = dev.equilibrated(power, WORKING_POINT_V).magnification_db(
        WORKING_POINT_V, baseline_mu
    )
    tau = dev.slowest_time_constant(power)
    print(f"{power:10.3e}  {m_db:10.3f}  {tau:9.1f}")

print()
print(f"anchor: 3 nW gives {dev.equilibrated(3e-9, WORKING_POINT_V).magnification_db(WORKING_POINT_V, baseline_mu):.4f} dB")
print(f"peak:   {summary['peak_magnification_db']:.3f} dB "
      f"(cannot exceed the {summary['baseline_attenuation_db']:.2f} dB floor)")

peak_power = 6.26e-6
tau = dev.slowest_time_constant(peak_power)
res = run_program(
    dev, IrradiationProgram.cw(peak_power, 6.0 * tau), 1.0, WORKING_POINT_V,
    dt_s=tau / 20.0,
)
trace = res.trace
print()
print(f"CW exposure at {peak_power * 1e6:.2f} uW, tau = {tau:.1f} s:")
for k in range(0, len(trace.t_s), len(trace.t_s) // 10):
    print(f"  t = {trace.t_s[k]:8.0f} s   m = {trace.m_db[k]:7.3f} dB")
print(f"  peak of trace {trace.m_db.max():.3f} dB "
      f"(transient overshoot before the slower arm catches up)")

# CSV version of the same sweep: ipasim pe-curve --out runs/pe
