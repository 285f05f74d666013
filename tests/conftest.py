"""Shared random builders and model instances for the test suite."""

import numpy as np

from qfk.coefficients import BlockCoefficient
from qfk.flows import FlowGenerator, OperatorMap, hp_coefficient_for_flow, noise_ampliate
from qfk.linalg import complex_randn, dag, random_hermitian, random_unitary
from qfk.perturbations import PerturbationSpec, phi_perturbed

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|


def random_coefficient(rng: np.random.Generator, n: int, d: int, scale: float = 0.3) -> BlockCoefficient:
    """Generic coefficient; W near the identity so norms stay tame."""
    return BlockCoefficient(
        K=complex_randn(rng, n, n) * scale,
        L=complex_randn(rng, d * n, n) * scale,
        M=complex_randn(rng, n, d * n) * scale,
        W=np.eye(d * n) + complex_randn(rng, d * n, d * n) * scale,
    )


def contraction_coefficient(rng: np.random.Generator, n: int, d: int, scale: float = 0.25, w_norm: float = 0.5) -> BlockCoefficient:
    """Coefficient whose W block is a strict contraction: always quasicontractive.

    The default scales keep the binding eigenvector of beta Delta_perp - q(F)
    well coupled to the scalar corner, so beta_min is sharply located: at
    beta_min - 1e-2 the minimum eigenvalue drops below -1e-3.
    """
    return BlockCoefficient(
        K=complex_randn(rng, n, n) * scale,
        L=complex_randn(rng, d * n, n) * scale,
        M=complex_randn(rng, n, d * n) * scale,
        W=w_norm * random_unitary(rng, d * n),
    )


def zero_coefficient(n: int, d: int) -> BlockCoefficient:
    return BlockCoefficient(
        K=np.zeros((n, n)),
        L=np.zeros((d * n, n)),
        M=np.zeros((n, d * n)),
        W=np.eye(d * n),
    )


def random_flow(rng: np.random.Generator, n: int, d: int, scale: float = 0.4) -> FlowGenerator:
    return FlowGenerator(
        h=random_hermitian(rng, n, scale),
        l=complex_randn(rng, d * n, n) * scale,
        W=random_unitary(rng, d * n),
    )


def random_phi(rng: np.random.Generator, n: int, d: int):
    """Two-sided perturbed generator of a random flow by two random coefficients."""
    return phi_perturbed(
        PerturbationSpec(
            theta=random_flow(rng, n, d),
            F1=random_coefficient(rng, n, d),
            F2=random_coefficient(rng, n, d),
        )
    )


def inner_coefficient(rng: np.random.Generator, n: int, d: int, scale: float = 0.4) -> BlockCoefficient:
    """Unitary-type coefficient (q = 0 = q(F*)) driving a random inner flow."""
    return hp_coefficient_for_flow(random_flow(rng, n, d, scale))


def weyl_coefficient(lam: complex = 1.0) -> BlockCoefficient:
    """n = d = 1 isometric generator: K = -|lam|^2/2, L = lam, M = -conj(lam), W = 1."""
    return BlockCoefficient(
        K=np.array([[-0.5 * abs(lam) ** 2]]),
        L=np.array([[lam]]),
        M=np.array([[-np.conj(lam)]]),
        W=np.eye(1),
    )


def damping_coefficient() -> BlockCoefficient:
    """Amplitude damping as a gauge-free pair: l = sigma-, k = -l*l/2 (n = 2, d = 1)."""
    l = SIGMA_MINUS
    return BlockCoefficient(K=-0.5 * dag(l) @ l, L=l, M=-dag(l), W=np.eye(2))


def random_dyadic(rng: np.random.Generator, lo: int = 1, hi: int = 64, unit: float = 1.0 / 64.0) -> float:
    """A tick-exact time: an integer in [lo, hi] times a dyadic unit."""
    return float(rng.integers(lo, hi + 1)) * unit


def raw_theta_map(h, l, W, n: int, d: int) -> OperatorMap:
    """theta blocks assembled from (h, l, W) with no unitarity validation.

    With a non-unitary W this violates the structure relations: the
    negative control for the structure-validation suite.
    """
    h, l, W = np.asarray(h, complex), np.asarray(l, complex), np.asarray(W, complex)

    def pi(a):
        return dag(W) @ noise_ampliate(a, d) @ W

    def delta(a):
        return pi(a) @ l - l @ a

    def fn(x):
        # x is one matrix or a stack of them: write the blocks with `...`
        ll = dag(l) @ l
        out = np.zeros(x.shape[:-2] + ((d + 1) * n, (d + 1) * n), dtype=complex)
        out[..., :n, :n] = dag(l) @ pi(x) @ l - 0.5 * (ll @ x + x @ ll) + 1j * (x @ h - h @ x)
        out[..., :n, n:] = dag(delta(dag(x)))
        out[..., n:, :n] = delta(x)
        out[..., n:, n:] = pi(x) - noise_ampliate(x, d)
        return out

    return OperatorMap(n=n, d=d, fn=fn)
