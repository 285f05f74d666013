"""Feynman-Kac semigroups: perturbing a flow by multiplier cocycles.

Sandwiching a flow j_t between two multiplier cocycles Y^1, Y^2 and
compressing to the vacuum produces a one-parameter semigroup P_t on M_n.
Its generator is the scalar corner of the perturbed map phi.  Here phi is
read two ways (evaluated by its defining formula, and rebuilt from its block
superoperators on the matrix units), and both against the closed form read
off the composed coefficients G (+) F_i of a driven flow, which is what the
`qfk` commands run.  The semigroup's qualitative properties (unital,
completely positive, contractive) are decided by how the perturbing
coefficients are chosen.
"""

import numpy as np

from qfk.coefficients import BlockCoefficient, transform_double_prime, transform_prime
from qfk.flows import FlowGenerator, hp_coefficient_for_flow, trivial_flow
from qfk.linalg import dag, min_eig_hermitian, norm2
from qfk.perturbations import (
    PerturbationSpec,
    block_superoperators,
    choi_matrix,
    composed_blocks,
    composed_vacuum_generator,
    is_cp,
    is_unital,
    phi_perturbed,
    semigroup_at,
    unvec,
    vacuum_generator,
    vec,
)

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)

# Amplitude damping as a Feynman-Kac semigroup: trivial flow, both
# multipliers generated by the gauge-free damping coefficient (k, l, -l*, I).
# The generator is read in closed form off the trivial flow's drive composed
# with that coefficient.
l = SIGMA_MINUS
F = BlockCoefficient(K=-0.5 * dag(l) @ l, L=l, M=-dag(l), W=np.eye(2))
G = composed_vacuum_generator(hp_coefficient_for_flow(trivial_flow(2, 1)), F, F)
for t in (0.5, 1.0, 2.0):
    val = semigroup_at(G, t).apply(KET1)
    print(f"P_{t}(|1><1|) top eigenvalue {val[1, 1].real:.6f}  vs  e^-t = {np.exp(-t):.6f}")
    assert norm2(val - np.exp(-t) * KET1) <= 1e-10

P = semigroup_at(G, 1.0)
print(f"unital: {is_unital(P)}, completely positive: {is_cp(P)}, "
      f"Choi min eig: {min_eig_hermitian(choi_matrix(P)):.2e}")

# The two-sided perturbed map phi of a random flow.  Evaluated by its defining
# formula, and rebuilt from its block superoperators Phi^{mu nu}, read once off
# phi on the matrix units, it gives the same matrix on every input.
rng = np.random.default_rng(21)
w = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
fg = FlowGenerator(
    h=np.array([[0.2, 0.0], [0.0, -0.1]]),
    l=0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))),
    W=w,
)
F1 = BlockCoefficient(
    K=0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))),
    L=0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))),
    M=0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))),
    W=np.eye(2) + 0.2 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))),
)
F2 = BlockCoefficient(K=F1.K.copy(), L=F1.L.copy(), M=0.1 * F1.M, W=F1.W.copy())
spec = PerturbationSpec(theta=fg, F1=F1, F2=F2)
phi = phi_perturbed(spec)
blocks = block_superoperators(phi)
x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
rebuilt = np.block([[unvec(blocks[mu, nu] @ vec(x), 2) for nu in range(2)] for mu in range(2)])
dev = norm2(phi(x) - rebuilt)
print(f"\nphi defining formula vs its block superoperators: {dev:.2e}")
assert dev <= 1e-11

# The closed form: the flow is implemented by the drive G with theta_G = theta,
# and every block is read off H_i = G (+) F_i with no evaluation of phi.  Its
# scalar corner, x -> K1* x + x K2 + L1* (I (x) x) L2 for the blocks (K_i, L_i)
# of H_i, is the vacuum generator.
drive = hp_coefficient_for_flow(fg)
dev = np.linalg.norm(composed_blocks(drive, F1, F2) - blocks) / np.linalg.norm(blocks)
print(f"phi blocks, G (+) F_i closed form vs phi on the matrix units: {dev:.2e} relative")
assert dev <= 1e-13
closed = composed_vacuum_generator(drive, F1, F2).mat
dev = norm2(closed - blocks[0, 0]) / norm2(blocks[0, 0])
print(f"vacuum generator, G (+) F_i closed form vs phi defining formula: {dev:.2e} relative")
assert dev <= 1e-13

# The vacuum generator ignores the M and W blocks of the perturbing
# coefficients entirely: replacing (F1, F2) by the shredded pair F' or the
# gauge-free pair F'' leaves it exactly unchanged.
base = vacuum_generator(phi).mat
for name, tf in (("F'", transform_prime), ("F''", transform_double_prime)):
    other = vacuum_generator(
        phi_perturbed(PerturbationSpec(theta=fg, F1=tf(F1), F2=tf(F2)))
    ).mat
    print(f"vacuum generator deviation under {name}: {norm2(base - other):.2e}")
    assert norm2(base - other) <= 1e-12

print("\nall claims verified")
