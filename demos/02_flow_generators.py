"""Flow generators: the structure maps (pi, delta, Lindbladian) behind a flow.

A free flow j_t is generated by theta, built from a triple (h, l, W): a
Hamiltonian, a coupling, and a unitary noise action.  The blocks of theta are
a *-homomorphism pi, a pi-derivation delta, and a Lindbladian, tied together
by algebraic relations.  `structure_defects` bounds their residuals in closed
form from the defects of (h, l, W), and `validate_structure` samples them on
random inputs.
"""

import numpy as np

from qfk.flows import (
    FlowGenerator,
    hp_coefficient_for_flow,
    structure_defects,
    validate_structure,
)
from qfk.linalg import norm2
from qfk.perturbations import from_hp_coefficient

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

# Damping flow on a qubit: no Hamiltonian, coupling sigma-, trivial noise
# unitary.  Its Lindbladian is the amplitude-damping generator.
fg = FlowGenerator(h=np.zeros((2, 2)), l=SIGMA_MINUS, W=np.eye(2))
ket1 = np.diag([0.0, 1.0]).astype(complex)
print("Ldb(|1><1|) for the damping flow:")
print(np.array_str(fg.lindblad(ket1).real, precision=4, suppress_small=True))
assert norm2(fg.lindblad(ket1) + ket1) <= 1e-14  # equals -|1><1|

# A flow whose noise action conjugates by sigma_x: pi flips sigma_z.
fg_flip = FlowGenerator(h=np.zeros((2, 2)), l=np.zeros((2, 2)), W=SIGMA_X)
print("\npi(sigma_z) under W = sigma_x:")
print(np.array_str(fg_flip.pi(SIGMA_Z).real, precision=4, suppress_small=True))
assert norm2(fg_flip.pi(SIGMA_Z) + SIGMA_Z) <= 1e-14

# The structure relations: pi multiplicative, delta a pi-derivation, the
# Lindbladian dissipation identity, and the single structure equation for
# theta that bundles them.  Each residual is linear in the defects W*W - I and
# h - h*, so the closed-form bounds over unit inputs vanish for an exact flow;
# the sampled residuals of 25 random pairs, at rounding, are the cross-check.
report = validate_structure(fg, trials=25, seed=3)
bounds = structure_defects(fg, 1e-11)
print("\nstructure residuals for the damping flow (sampled, closed-form bound):")
for key, val in report.residuals.items():
    print(f"  {key:22s} {val:.2e}  {bounds.residuals[key]:.2e}")
assert report.passed and bounds.passed

# Round trip with the coefficient algebra: every flow has a unitary-type
# coefficient whose cocycle implements it, and every unitary-type coefficient
# induces a flow.  The two constructions invert each other on theta.
rng = np.random.default_rng(8)
w = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
fg_rand = FlowGenerator(
    h=np.array([[0.3, 0.1], [0.1, -0.2]]),
    l=0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))),
    W=w,
)
G = hp_coefficient_for_flow(fg_rand)
theta_back = from_hp_coefficient(G)
x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
dev = norm2(theta_back(x) - fg_rand.theta(x))
print(f"\nflow -> coefficient -> flow round trip on theta(x): {dev:.2e}")
assert dev <= 1e-12

print(f"theta components: ||Ldb|| = {norm2(fg_rand.lindblad(x)):.3f}, "
      f"||delta|| = {norm2(fg_rand.delta(x)):.3f}, ||pi|| = {norm2(fg_rand.pi(x)):.3f}")

print("\nall claims verified")
