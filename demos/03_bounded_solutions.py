"""
Assembling a system and solving for its bounded trajectory
==========================================================

Given a Hurwitz matrix with a certified envelope, a node schedule, a Lipschitz
nonlinearity and a driver orbit, there is exactly one solution that stays
bounded on the whole line. This script checks the smallness conditions that
guarantee it, derives the a-priori constants, and computes the trajectory two
independent ways.
"""

import numpy as np

from epcag import (
    check_assumptions,
    contraction_margin,
    homoclinic_scenario,
    proof_constants,
    residual_defect,
    solution_bound,
    solve_bounded,
)

scenario = homoclinic_scenario()
sys = scenario.system

# both smallness conditions must hold before anything else is meaningful
report = check_assumptions(sys)
print("smallness conditions:")
print(f"  linear-growth condition:  lhs = {report.a4_lhs:.7f} < 1/2"
      f"  (margin {report.a4_margin:.4f})  pass = {report.a4_pass}")
print(f"  contraction condition:    lhs = {report.a5_lhs:.7f} < 1"
      f"  (margin {report.a5_margin:.4f})  pass = {report.a5_pass}")

# the conditions fix explicit constants: a sup-norm bound for every bounded
# solution, sensitivity radii, and the contraction margin of the solve
pc = proof_constants(sys)
print("\nderived constants:")
print(f"  driver sup norm      {pc.map_sup:.6f}")
print(f"  solution bound       {pc.m_phi:.6f}")
print(f"  sensitivity radii    r1 = {pc.r1:.2f}, r2 = {pc.r2:.4f}")
print(f"  separation constant  {pc.kappa_pi:.7f}")
print(f"  contraction margin   {contraction_margin(sys):.7f}")

# solve over nodes -20..20, i.e. t in [-20 omega, 20 omega], by Picard
# iteration on the integral operator; iterates contract at the certified rate
traj = solve_bounded(sys, (-20, 20), method="picard")
deltas = traj.meta["iterate_deltas"]
print(f"\npicard solve: {traj.meta['iterations']} iterations,"
      f" pad = {traj.meta['pad']} intervals,"
      f" tail bound = {traj.meta['tail_bound']:.2e}")
print("  successive iterate gaps:",
      " ".join(f"{d:.1e}" for d in deltas[:6]), "...")
print(f"  sup norm = {traj.meta['sup_norm']:.6f}"
      f" (a-priori bound {solution_bound(sys):.6f})")

# the burn-in method forgets its artificial initial data exponentially fast;
# on the interior the two methods must agree to solver tolerance
burn = solve_bounded(sys, (-20, 20), method="burn_in")
gap = np.abs(traj.samples - burn.samples).max()
print(f"\nburn-in solve agrees with picard to {gap:.2e}")

# plug the collocation solution back into the equation: its exact defect,
# read at 33 points per interval from the kept node values and integrands,
# sits far below the solver tolerance whatever the output density
defect = residual_defect(sys, traj)
print(f"residual defect of the picard trajectory: {defect:.2e}")
