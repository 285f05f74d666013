"""Perturbed flow generators and their vacuum (Feynman-Kac) semigroups.

Given a flow generator theta and two coefficients F1, F2 on the same
one-plus-noise space, the generator of the two-sided perturbed cocycle
x -> Y1* j(x) Y2 is

    phi(x) = theta(x) + F1* (Delta theta(x) + iota(x))
                      + F1* Delta (theta(x) + iota(x)) Delta F2
                      + (theta(x) Delta + iota(x)) F2,

and its scalar corner is the generator of the associated Markov-type
semigroup P_t = exp(t G) on M_n.  When the F_i are gauge-free with blocks
(k_i, l_i, -l_i*, I), that corner reads

    G(x) = Ldb(x) + l1* delta(x) + l1* pi(x) l2 + delta(x*)* l2 + k1* x + x k2,

which is unital iff k1* + l1* l2 + k2 = 0, completely positive if the two
sides coincide (l1 = l2, k1 = k2), and contractive if k_i* + k_i + l_i* l_i <= 0.

Superoperators on M_n are stored as n^2 x n^2 matrices in the
column-stacking convention: vec stacks columns, so vec(A X B) =
(B^T (x) A) vec(X).  A phi-like map M_n -> M_{(d+1)n} is read once, on the
n^2 matrix units, into its (d+1)^2 block superoperators Phi^{mu nu}
(`block_superoperators`); the vacuum generator is Phi^{00}, and every
compression E^{c-hat} phi(.) E_{d-hat} is a linear combination of the
blocks, so no further evaluation of phi is needed.  Complete positivity is
decided on the Choi matrix sum_ij E_ij (x) P(E_ij), a reshuffle of the
superoperator's entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import BlockCoefficient, delta_projection
from .flows import FlowGenerator, OperatorMap, ampliate, as_theta_map, noise_ampliate, theta_components
from .linalg import DimensionMismatchError, as_complex, dag, expm, min_eig_hermitian, norm2


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.ascontiguousarray(as_complex(x).T.reshape(-1))


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(v, dtype=complex).reshape(n, n).T)


@dataclass(frozen=True, eq=False)
class Superoperator:
    """A linear map on M_n, stored as an n^2 x n^2 matrix (column-stacking)."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", as_complex(self.mat))
        if self.mat.shape != (self.n * self.n, self.n * self.n):
            raise DimensionMismatchError(
                f"superoperator on M_{self.n} needs shape {(self.n ** 2, self.n ** 2)}, got {self.mat.shape}"
            )

    @classmethod
    def from_map(cls, fn, n: int) -> "Superoperator":
        mat = np.zeros((n * n, n * n), dtype=complex)
        for j in range(n):
            for i in range(n):
                unit = np.zeros((n, n), dtype=complex)
                unit[i, j] = 1.0
                mat[:, j * n + i] = vec(fn(unit))
        return cls(n=n, mat=mat)

    @classmethod
    def identity(cls, n: int) -> "Superoperator":
        return cls(n=n, mat=np.eye(n * n, dtype=complex))

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = as_complex(x)
        if x.shape != (self.n, self.n):
            raise DimensionMismatchError(f"expected {self.n} x {self.n}, got {x.shape}")
        return unvec(self.mat @ vec(x), self.n)

    def __matmul__(self, other: "Superoperator") -> "Superoperator":
        if self.n != other.n:
            raise DimensionMismatchError("superoperator dimensions differ")
        return Superoperator(n=self.n, mat=self.mat @ other.mat)


@dataclass(frozen=True, eq=False)
class PerturbationSpec:
    """A flow generator together with the two perturbing coefficients."""

    theta: FlowGenerator | OperatorMap
    F1: BlockCoefficient
    F2: BlockCoefficient

    def __post_init__(self):
        tm = as_theta_map(self.theta)
        for name, F in (("F1", self.F1), ("F2", self.F2)):
            if (F.n, F.d) != (tm.n, tm.d):
                raise DimensionMismatchError(
                    f"{name} has (n, d) = {(F.n, F.d)}, flow has {(tm.n, tm.d)}"
                )

    @property
    def theta_map(self) -> OperatorMap:
        return as_theta_map(self.theta)


def psi_map(theta, F: BlockCoefficient) -> OperatorMap:
    """Generator of the one-sided perturbation x -> j(x) Y:
    psi(x) = theta(x) + iota(x) F + theta(x) Delta F."""
    tm = as_theta_map(theta)
    if (F.n, F.d) != (tm.n, tm.d):
        raise DimensionMismatchError("coefficient and flow dimensions differ")
    n, d = tm.n, tm.d
    full = F.as_full()
    delta = delta_projection(n, d)

    def fn(x: np.ndarray) -> np.ndarray:
        tx = tm(x)
        return tx + ampliate(x, d) @ full + tx @ delta @ full

    return OperatorMap(n=n, d=d, fn=fn)


def phi_perturbed(spec: PerturbationSpec) -> OperatorMap:
    """The two-sided perturbed generator, assembled from the defining formula."""
    tm = spec.theta_map
    n, d = tm.n, tm.d
    f1 = spec.F1.as_full()
    f2 = spec.F2.as_full()
    delta = delta_projection(n, d)

    def fn(x: np.ndarray) -> np.ndarray:
        tx = tm(x)
        ix = ampliate(x, d)
        return (
            tx
            + dag(f1) @ (delta @ tx + ix)
            + dag(f1) @ delta @ (tx + ix) @ delta @ f2
            + (tx @ delta + ix) @ f2
        )

    return OperatorMap(n=n, d=d, fn=fn)


def phi_perturbed_blockform(spec: PerturbationSpec) -> OperatorMap:
    """The same map assembled block by block:

        (1,1)  Ldb(x) + l1* delta(x) + l1* pi(x) l2 + delta(x*)* l2 + k1* x + x k2
        (1,2)  (delta(x*)* + l1* pi(x)) w2 + x m2
        (2,1)  w1* (delta(x) + pi(x) l2) + m1* x
        (2,2)  w1* pi(x) w2 - I_d (x) x

    Must agree with `phi_perturbed` on every input; the pair is the module's
    central self-check.
    """
    tm = spec.theta_map
    n, d = tm.n, tm.d
    dn = d * n
    k1, l1, m1, w1 = spec.F1.K, spec.F1.L, spec.F1.M, spec.F1.W
    k2, l2, m2, w2 = spec.F2.K, spec.F2.L, spec.F2.M, spec.F2.W

    def fn(x: np.ndarray) -> np.ndarray:
        lx, dx, dxd, px = theta_components(tm, x)
        out = np.zeros(x.shape[:-2] + (n + dn, n + dn), dtype=complex)
        out[..., :n, :n] = lx + dag(l1) @ dx + dag(l1) @ px @ l2 + dxd @ l2 + dag(k1) @ x + x @ k2
        out[..., :n, n:] = (dxd + dag(l1) @ px) @ w2 + x @ m2
        out[..., n:, :n] = dag(w1) @ (dx + px @ l2) + dag(m1) @ x
        out[..., n:, n:] = dag(w1) @ px @ w2 - noise_ampliate(x, d)
        return out

    return OperatorMap(n=n, d=d, fn=fn)


def fk_generator(theta, l1: np.ndarray, l2: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> Superoperator:
    """Markov-semigroup generator on M_n for gauge-free perturbing pairs.

    The scalar corner of phi for F_i = (k_i, l_i, -l_i*, I), read by
    `vacuum_generator` off `phi_perturbed_blockform`:
    G(x) = Ldb(x) + l1* delta(x) + l1* pi(x) l2 + delta(x*)* l2 + k1* x + x k2.
    The coefficients and the spec check the shapes against theta.
    """

    def gauge_free(k, l):
        l = as_complex(l)
        return BlockCoefficient(K=k, L=l, M=-dag(l), W=np.eye(len(l)))

    spec = PerturbationSpec(theta=theta, F1=gauge_free(k1, l1), F2=gauge_free(k2, l2))
    return vacuum_generator(phi_perturbed_blockform(spec))


def block_superoperators(phi: OperatorMap) -> np.ndarray:
    """The (d+1)^2 block superoperators of a phi-like map, from n stacked calls.

    out[mu, nu] is the n^2 x n^2 matrix (column-stacking) of
    x -> phi(x)[mu n:(mu+1) n, nu n:(nu+1) n]; column j n + i is the vec of
    that block of phi(E_ij), as in `Superoperator.from_map`.
    """
    n, s = phi.n, phi.d + 1
    out = np.empty((s, s, n * n, n * n), dtype=complex)
    for j in range(n):
        units = np.zeros((n, n, n), dtype=complex)
        units[np.arange(n), np.arange(n), j] = 1.0
        # y[i, mu, p, nu, q] -> [mu, nu, q, p, i]: the block's entry (p, q) of
        # phi(E_ij) at row q n + p, column j n + i
        y = phi(units).reshape(n, s, n, s, n)
        out[:, :, :, j * n : (j + 1) * n] = y.transpose(1, 3, 4, 2, 0).reshape(s, s, n * n, n)
    return out


def vacuum_generator(phi: OperatorMap) -> Superoperator:
    """Scalar corner of a phi-like map, as a superoperator on M_n: Phi^{00}."""
    # a copy, so that the other blocks are freed
    return Superoperator(n=phi.n, mat=block_superoperators(phi)[0, 0].copy())


def semigroup_at(G: Superoperator, t: float) -> Superoperator:
    """exp(t G) as a superoperator."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return Superoperator(n=G.n, mat=expm(t * G.mat))


def choi_matrix(P: Superoperator) -> np.ndarray:
    """sum_ij E_ij (x) P(E_ij).

    Entry (p, q) of P(E_ij) is P.mat[q n + p, j n + i] (column-stacking), and
    it sits at row i n + p, column j n + q of the Choi matrix.
    """
    n = P.n
    return P.mat.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)


def is_cp(P: Superoperator, tol: float = 1e-8) -> bool:
    """Complete positivity via the smallest Choi eigenvalue."""
    return min_eig_hermitian(choi_matrix(P)) >= -tol


def is_unital(P: Superoperator, tol: float = 1e-8) -> bool:
    return norm2(P.apply(np.eye(P.n)) - np.eye(P.n)) <= tol
