"""Feynman-Kac semigroups: perturbing a flow by multiplier cocycles.

Sandwiching a flow j_t between two multiplier cocycles Y^1, Y^2 and
compressing to the vacuum produces a one-parameter semigroup P_t on M_n.
Its generator is the scalar corner of the perturbed map phi, assembled here
three independent ways (phi by its defining formula, phi block by block, and
the closed form read off the composed coefficients G (+) F_i of a driven
flow), and its qualitative properties (unital, completely positive,
contractive) are decided by how the perturbing coefficients are chosen.
"""

import numpy as np

from qfk.coefficients import BlockCoefficient, transform_double_prime, transform_prime
from qfk.flows import FlowGenerator, hp_coefficient_for_flow, trivial_flow
from qfk.linalg import dag, min_eig_hermitian, norm2
from qfk.perturbations import (
    PerturbationSpec,
    choi_matrix,
    composed_vacuum_generator,
    fk_generator,
    is_cp,
    is_unital,
    phi_perturbed,
    phi_perturbed_blockform,
    semigroup_at,
    vacuum_generator,
)

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)

# Amplitude damping as a Feynman-Kac semigroup: trivial flow, both
# multipliers generated by the gauge-free damping coefficient.
l = SIGMA_MINUS
k = -0.5 * dag(l) @ l
G = fk_generator(trivial_flow(2, 1), l, l, k, k)
for t in (0.5, 1.0, 2.0):
    val = semigroup_at(G, t).apply(KET1)
    print(f"P_{t}(|1><1|) top eigenvalue {val[1, 1].real:.6f}  vs  e^-t = {np.exp(-t):.6f}")
    assert norm2(val - np.exp(-t) * KET1) <= 1e-10

P = semigroup_at(G, 1.0)
print(f"unital: {is_unital(P)}, completely positive: {is_cp(P)}, "
      f"Choi min eig: {min_eig_hermitian(choi_matrix(P)):.2e}")

# The same generator through the two-sided perturbed map phi.  The defining
# formula and the blockwise assembly agree on every input; the vacuum corner
# is the semigroup generator above.
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
phi_blocks = phi_perturbed_blockform(spec)
x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
dev = norm2(phi(x) - phi_blocks(x))
print(f"\nphi defining formula vs blockform: {dev:.2e}")
assert dev <= 1e-11

# The third reading: the flow is implemented by the drive G with
# theta_G = theta, and the scalar corner is x -> K1* x + x K2 + L1* (I (x) x) L2
# for the blocks (K_i, L_i) of H_i = G (+) F_i, with no evaluation of phi.
closed = composed_vacuum_generator(hp_coefficient_for_flow(fg), F1, F2).mat
for name, reading in (("defining formula", phi), ("blockform", phi_blocks)):
    other = vacuum_generator(reading).mat
    dev = norm2(closed - other) / norm2(other)
    print(f"vacuum generator, G (+) F_i closed form vs phi {name}: {dev:.2e} relative")
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
