"""
Logistic-map orbits with prescribed asymptotics
===============================================

The forcing sequences that drive the differential system come from orbits of
the logistic map F_mu(s) = mu s (1 - s). Forward iteration is cheap; the
interesting part is running time backward along a chosen inverse branch to
build orbits that converge to a fixed point in both directions.
"""

from epcag import (
    LOWER_BRANCH,
    UPPER_BRANCH,
    build_orbit,
    logistic_inverse,
    logistic_step,
    pair_orbits,
)

# one forward step and its two preimages
mu = 3.9
s = 1.0 / mu
print(f"F_{mu}({s:.6f}) = {logistic_step(mu, s):.6f}")
print(f"  lower preimage of {s:.6f}: {logistic_inverse(mu, s, LOWER_BRANCH):.6f}")
print(f"  upper preimage of {s:.6f}: {logistic_inverse(mu, s, UPPER_BRANCH):.6f}")

# an orbit homoclinic to the positive fixed point s* = 1 - 1/mu, built from
# the map's parameter mu itself: forward iterates reach s* exactly in one
# step, backward iterates walk the upper branch toward s* again
homo = build_orbit(mu, "homoclinic", seed=s, backward_branch=UPPER_BRANCH)
star = 1.0 - 1.0 / mu
print(f"\nhomoclinic orbit over k in [{homo.k_min}, {homo.k_max}], s* = {star:.6f}")
print(f"  value at k=0: {homo.value(0)[0]:.6f}")
print(f"  value at k=1: {homo.value(1)[0]:.6f} (hits s* exactly)")
print(f"  limits: left = {homo.left_limit[0]:.6f}, right = {homo.right_limit[0]:.6f}")
left_edge = abs(homo.value(homo.k_min)[0] - homo.left_limit[0])
print(f"  gap at the left edge: {left_edge:.2e} (threshold {homo.edge_gap:.0e})")

# backward convergence is geometric with ratio 1/F'(s*) = 1/(2 - mu) = -1/1.9;
# in absolute gaps that is 1/1.9 per step
gaps = {k: abs(homo.value(k)[0] - star) for k in range(homo.k_min, 1)}
print("  backward gap ratios (should settle near 1/1.9 = 0.5263):")
for k in (-5, -15, -25, -35):
    print(f"    k = {k:3d}: gap = {gaps[k]:.3e}, ratio = {gaps[k - 1] / gaps[k]:.4f}")

# heteroclinic orbits connect two different fixed points. At mu = 4 the orbit
# through 1/4 climbs from 0 (backward, lower branch) to 3/4 (forward).
het = build_orbit(4.0, "heteroclinic", seed=0.25, backward_branch=LOWER_BRANCH)
print(f"\nheteroclinic orbit: {het.left_limit[0]:.4f} -> {het.right_limit[0]:.4f}")
print(f"  value at k=0: {het.value(0)[0]:.4f}, at k=1: {het.value(1)[0]:.4f}")
gaps = {k: abs(het.value(k)[0] - het.left_limit[0]) for k in range(het.k_min, 1)}
print(f"  backward ratio near the repeller: {gaps[-21] / gaps[-20]:.6f} (expect 1/4)")

# scalar orbits are paired into planar forcing terms for the 2d system
planar = pair_orbits(het, het)
print(f"\npaired driver: dim = {planar.dim}, value(0) = {planar.value(0)}")
