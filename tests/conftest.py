"""Shared random builders and model instances for the test suite."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qfk.coefficients import BlockCoefficient
from qfk.flows import FlowGenerator, OperatorMap, hp_coefficient_for_flow, noise_ampliate
from qfk.linalg import dag
from qfk.perturbations import PerturbationSpec, phi_perturbed

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|


def complex_randn(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Entries i.i.d. complex standard normal."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_hermitian(rng: np.random.Generator, k: int, scale: float = 1.0) -> np.ndarray:
    a = complex_randn(rng, k, k)
    return scale * (a + dag(a)) / 2.0


def random_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_randn(rng, k, k))
    # fix the phase ambiguity so the distribution is Haar
    return np.ascontiguousarray(q * (np.diag(r) / np.abs(np.diag(r))))


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


def weyl_coefficient(c=1.0, n: int = 1) -> BlockCoefficient:
    """The isometric Weyl generator E_c of c in C^d (a scalar is d = 1) on C^n:
    K = -|c|^2/2 I, L = c (x) I, M = -c* (x) I, W = I."""
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    L = np.kron(c[:, None], np.eye(n))
    return BlockCoefficient(K=-0.5 * np.sum(np.abs(c) ** 2) * np.eye(n), L=L, M=-dag(L), W=np.eye(len(c) * n))


def gauge_free(k: np.ndarray, l: np.ndarray) -> BlockCoefficient:
    """The gauge-free coefficient (k, l, -l*, I) of a pair (k, l)."""
    return BlockCoefficient(K=k, L=l, M=-dag(l), W=np.eye(l.shape[0]))


def flow_of(G: BlockCoefficient) -> FlowGenerator:
    """The flow (h, l, W) = (-i (K + L*L/2), W* L, W) that a unitary-type G implements:
    `hp_coefficient_for_flow` of it returns G."""
    return FlowGenerator(h=-1j * (G.K + 0.5 * dag(G.L) @ G.L), l=dag(G.W) @ G.L, W=G.W)


def damping_coefficient() -> BlockCoefficient:
    """Amplitude damping as a gauge-free pair: l = sigma-, k = -l*l/2 (n = 2, d = 1)."""
    l = SIGMA_MINUS
    return gauge_free(-0.5 * dag(l) @ l, l)


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


def unchecked_flow(h, l, W) -> FlowGenerator:
    """A FlowGenerator of (h, l, W) built past its Hermitian and unitary gates."""
    return FlowGenerator._unchecked(*(np.ascontiguousarray(x, dtype=complex) for x in (h, l, W)))


def planted_flow(rng: np.random.Generator, n: int, d: int, unitary: float, hermitian: float,
                 coupling: float = 0.4) -> FlowGenerator:
    """A random flow with ||W*W - I|| <= unitary and h - h* = i hermitian H, H a random
    Hermitian matrix: the defects that `structure_defects` bounds, planted."""
    stretch = np.sqrt(1 + unitary * rng.uniform(-1, 1, d * n))
    W = random_unitary(rng, d * n) @ (stretch[:, None] * random_unitary(rng, d * n))
    h = random_hermitian(rng, n, 0.4) + 0.5j * hermitian * random_hermitian(rng, n)
    return unchecked_flow(h, complex_randn(rng, d * n, n) * coupling, W)


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def workloads():
    """perfbench/workloads.py, loaded from its file as test_tracing.py loads the
    tracer; its sibling modules are imported from perfbench/ without writing
    bytecode there."""
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up there
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write_bytecode
    return module
