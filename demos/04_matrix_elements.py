"""Cocycle matrix elements between exponential vectors of step functions.

The cocycle generated by a perturbed map phi is never materialized; its
matrix elements kappa_t^{f,g}(a) between (normalized) exponential vectors are
exact, computed by composing one-interval semigroups over the common
partition of the step functions f and g.  Times land on a dyadic tick grid
(2^-20), so dyadic inputs are represented exactly.
"""

import json
from pathlib import Path

import numpy as np

from qfk.coefficients import BlockCoefficient
from qfk.flows import FlowGenerator, trivial_flow
from qfk.instances import parse_instance
from qfk.matrix_elements import (
    StepFunction,
    chi,
    cocycle_matrix_element,
    exponential_inner_product,
    verify_cocycle_identity,
)
from qfk.perturbations import PerturbationSpec, phi_perturbed, psi_map

# The bootstrap: with no perturbation at all, kappa reduces to the inner
# product of the exponential vectors, e^{-t chi(c,d)} on a single interval.
c, d = np.array([0.4 - 0.1j]), np.array([0.2 + 0.3j])
f = StepFunction.constant(c, 2.0)
g = StepFunction.constant(d, 2.0)
t = 1.25
val = exponential_inner_product(f, g, t)
print(f"<w(c 1_[0,t)), w(d 1_[0,t))> = {val:.6f}, e^(-t chi) = {np.exp(-t * chi(c, d)):.6f}")
assert abs(val - np.exp(-t * chi(c, d))) <= 1e-12

# Weyl cocycle against the vacuum: the matrix element decays like
# e^{-|lambda|^2 t / 2}.  The one-sided perturbation of the trivial flow by
# the Weyl coefficient realizes the displacement cocycle.
lam = 1.0
weyl = parse_instance(
    json.loads((Path(__file__).parent / "instances" / "weyl.json").read_text()),
    path="weyl.json",
).perturbation
phi = psi_map(trivial_flow(1, 1), weyl.F2)
vac = StepFunction.zero(1)
for t in (0.5, 1.0, 2.0):
    out = cocycle_matrix_element(phi, vac, vac, t, np.eye(1))[0, 0]
    print(f"Weyl vacuum element at t={t}: {out.real:.8f}  vs  {np.exp(-0.5 * t):.8f}")
    assert abs(out - np.exp(-0.5 * abs(lam) ** 2 * t)) <= 1e-10

# The weak cocycle identity: kappa_{r+t} = kappa_r composed with the shifted
# kappa_t.  Checked here for a genuinely two-sided perturbation of a
# nontrivial flow, at a split point interior to both step functions, as an
# equality of superoperators: the residual is the worst case over every a.
rng = np.random.default_rng(31)
w = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
fg = FlowGenerator(h=np.diag([0.3, -0.1]).astype(complex), l=0.4 * np.eye(2), W=w)


def rand_coeff():
    def cr(a, b):
        return 0.4 * (rng.standard_normal((a, b)) + 1j * rng.standard_normal((a, b)))

    return BlockCoefficient(K=cr(2, 2), L=cr(2, 2), M=cr(2, 2), W=np.eye(2) + cr(2, 2))


spec = PerturbationSpec(theta=fg, F1=rand_coeff(), F2=rand_coeff())
phi2 = phi_perturbed(spec)
f2 = StepFunction.from_breakpoints([0.0, 0.5, 1.0], [[0.3], [0.1j]])
g2 = StepFunction.from_breakpoints([0.0, 0.75, 1.0], [[0.2 - 0.1j], [0.4]])
rep = verify_cocycle_identity(phi2, f2, g2, r=0.3125, t=0.40625)
print(f"\nweak cocycle residual at r={rep['r']}: {rep['max_residual']:.2e}")
assert rep["max_residual"] <= 1e-9

print("\nall claims verified")
