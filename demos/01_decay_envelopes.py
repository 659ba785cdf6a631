"""
Decay envelopes for Hurwitz matrices
====================================

Everything downstream rests on a certified bound ||e^{At}|| <= N e^{-lambda t}.
This script estimates such an envelope from samples, validates it on a dense
grid, and shows why non-normal matrices need constants much larger than 1.
"""

import numpy as np

from epcag import (
    estimate_decay_envelope,
    mat_exp,
    reference_envelope,
    reference_matrix,
    sample_norm_curve,
    spectral_abscissa,
    validate_envelope,
)

# the bundled planar matrix has eigenvalues -1/2 +- i sqrt(15)/2
a = reference_matrix()
print("matrix:")
print(a)
print("spectral abscissa:", spectral_abscissa(a))

# a closed-form envelope ships with the package; check it holds on a fine grid
env = reference_envelope()
print(f"\nshipped envelope: N = {env.n_const:.6f}, rate = {env.rate}")
report = validate_envelope(a, env, grid_step=1e-3)
print(f"validated over [0, {env.validated_horizon}]:"
      f" passed = {report.passed}, max ratio = {report.max_ratio:.9f}"
      f" at t = {report.t_at_max:.3f}")

# the ratio ||e^{At}|| / bound grazes 1 once per oscillation, so the constant
# is sharp: nothing smaller works for this matrix at rate 1/2
for t in (0.0, 0.755, 2.0, report.t_at_max):
    norm = np.linalg.norm(mat_exp(a, t), 2)
    print(f"  t = {t:6.3f}   ||e^(At)|| = {norm:10.4e}"
          f"   bound = {env.bound(t):10.4e}   ratio = {norm / env.bound(t):.6f}")

# estimation works from samples when no closed form is at hand
est = estimate_decay_envelope(a, rate_margin=0.02)
print(f"\nestimated envelope: N = {est.n_const}, rate = {est.rate:.4f},"
      f" horizon = {est.validated_horizon:.1f}")

# non-normal matrices pay a transient price. This one decays at rate 1 in the
# long run but its norm first climbs past 35 before turning around.
stiff = np.array([[-1.0, 100.0], [0.0, -1.0]])
times, norms = sample_norm_curve(stiff, horizon=10.0, count=2001)
print(f"\nstiff upper-triangular example: peak norm = {norms.max():.2f}"
      f" at t = {times[norms.argmax()]:.2f}")
stiff_env = estimate_decay_envelope(stiff, rate_margin=0.5)
print(f"envelope at rate {stiff_env.rate}: N = {stiff_env.n_const}")
stiff_report = validate_envelope(stiff, stiff_env, grid_step=5e-3)
print(f"validated: passed = {stiff_report.passed}, max ratio = {stiff_report.max_ratio:.6f}")
