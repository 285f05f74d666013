"""Perturbed flow generators and their vacuum (Feynman-Kac) semigroups.

Given a flow generator theta and two coefficients F1, F2 on the same
one-plus-noise space, the generator of the two-sided perturbed cocycle
x -> Y1* j(x) Y2 is the defining formula (`phi_perturbed`)

    phi(x) = theta(x) + F1* (Delta theta(x) + iota(x))
                      + F1* Delta (theta(x) + iota(x)) Delta F2
                      + (theta(x) Delta + iota(x)) F2,

and its scalar corner Phi^{00} is the generator of the associated
Markov-type semigroup P_t = exp(t Phi^{00}) on M_n.  When the F_i are
gauge-free with blocks (k_i, l_i, -l_i*, I), that corner reads

    x -> Ldb(x) + l1* delta(x) + l1* pi(x) l2 + delta(x*)* l2 + k1* x + x k2,

which is unital iff k1* + l1* l2 + k2 = 0, completely positive if the two
sides coincide (l1 = l2, k1 = k2), and contractive if k_i* + k_i + l_i* l_i <= 0.

For a flow implemented by a drive G, theta = `from_hp_coefficient(G)` is phi
for the trivial flow with F1 = F2 = G (as `psi_map` is phi with F1 = 0).
For it, or a `FlowGenerator` through `flows.hp_coefficient_for_flow`, every
block of phi is read off the composed coefficients H_i = G (+) F_i
(`coefficients.compose`), H^{mu nu} the n x n blocks of their full matrices:

    Phi^{mu nu} = (H2^{mu nu})^T (x) I + I (x) (H1^{nu mu})* + sum_{j >= 1} (H2^{j nu})^T (x) (H1^{j mu})*

(`composed_blocks`, the Ito product of Hudson and Parthasarathy), formed
without evaluating phi.  Its (0, 0) block, x -> K1* x + x K2 + L1* (I_d (x) x) L2
with (K_i, L_i) the blocks of H_i, is `composed_vacuum_generator`.  `qfk
semigroup` and the fk reference of `simulate` and `compare` read Phi^{00} so,
and `qfk matelem` all the blocks.  No command evaluates phi: the defining
formula is the oracle the closed form is tested against.

Superoperators on M_n are stored as n^2 x n^2 matrices in the
column-stacking convention: vec stacks columns, so vec(A X B) =
(B^T (x) A) vec(X).  A generic phi-like map M_n -> M_{(d+1)n} is read once,
on the n^2 matrix units, into its (d+1)^2 block superoperators Phi^{mu nu}
(`block_superoperators`); `vacuum_generator` keeps Phi^{00}, and every
compression E^{c-hat} phi(.) E_{d-hat} is a linear combination of the
blocks, so no further evaluation of phi is needed.  No CLI path assembles
them so; the library does for maps given only as a phi.  Complete
positivity is decided on the Choi matrix sum_ij E_ij (x) P(E_ij), a
reshuffle of the superoperator's entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import BlockCoefficient, compose, delta_projection
from .flows import FlowGenerator, OperatorMap, ampliate, as_theta_map, require_unitary_type, trivial_flow
from .linalg import (
    DimensionMismatchError, as_complex, chunks, dag, expm, expm_stack, min_eig_hermitian, norm2, reserve,
)


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
        """The superoperator of fn, a map M_n -> M_n, from its images of the n^2
        matrix units; DimensionMismatchError if an image is not n x n."""
        mat = np.zeros((n * n, n * n), dtype=complex)
        for j in range(n):
            for i in range(n):
                unit = np.zeros((n, n), dtype=complex)
                unit[i, j] = 1.0
                image = fn(unit)
                if np.shape(image) != (n, n):
                    raise DimensionMismatchError(f"map returned shape {np.shape(image)}, expected {(n, n)}")
                mat[:, j * n + i] = vec(image)
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


def psi_map(theta, F: BlockCoefficient) -> OperatorMap:
    """Generator of the one-sided perturbation x -> j(x) Y:
    psi(x) = theta(x) + iota(x) F + theta(x) Delta F, which is phi with F1 = 0."""
    tm = as_theta_map(theta)
    m = (tm.d + 1) * tm.n
    zero = BlockCoefficient.from_full(np.zeros((m, m)), tm.n)
    return phi_perturbed(PerturbationSpec(theta=tm, F1=zero, F2=F))


def from_hp_coefficient(G: BlockCoefficient) -> OperatorMap:
    """Flow generator of the inner flow x -> U*(x (x) I)U driven by G.

    G must generate a unitary cocycle: q(G) = 0 and q(G*) = 0.  The map is phi
    for the trivial flow with F1 = F2 = G, x -> iota(x) G + G* iota(x) +
    G* Delta iota(x) Delta G; its parameters (gauge-dependent) are not exposed.
    """
    require_unitary_type(G)
    return phi_perturbed(PerturbationSpec(theta=trivial_flow(G.n, G.d), F1=G, F2=G))


def phi_perturbed(spec: PerturbationSpec) -> OperatorMap:
    """The two-sided perturbed generator, assembled from the defining formula."""
    tm = as_theta_map(spec.theta)
    n, d = tm.n, tm.d
    f1 = spec.F1.as_full()
    f2 = spec.F2.as_full()
    delta = delta_projection(n, d)
    f1_delta = dag(f1) @ delta

    def fn(x: np.ndarray) -> np.ndarray:
        tx = tm(x)
        ix = ampliate(x, d)
        return (
            tx
            + dag(f1) @ (delta @ tx + ix)
            + f1_delta @ (tx + ix) @ delta @ f2
            + (tx @ delta + ix) @ f2
        )

    return OperatorMap(n=n, d=d, fn=fn)


def _composed(H1: BlockCoefficient, H2: BlockCoefficient, s: int) -> np.ndarray:
    """Blocks Phi^{mu nu}, mu, nu < s, of the map with composed coefficients H1 and H2:

        Phi^{mu nu} = (H2^{mu nu})^T (x) I + I (x) (H1^{nu mu})* + sum_{j >= 1} (H2^{j nu})^T (x) (H1^{j mu})*,

    H^{mu nu} the n x n block (mu, nu) of H's full matrix.  The Kronecker
    products with I are summed as np.kron forms them, and the sum over j, one
    product with entry (nu p r, mu q t) at (mu, nu, p q, r t), is added to them.
    """
    n, d = H1.n, H1.d
    # h[mu, i, nu, j] = H^{mu nu}[i, j], for nu < s
    h1, h2 = (H.as_full().reshape(d + 1, n, d + 1, n)[:, :, :s] for H in (H1, H2))
    eye = np.eye(n)
    # [mu, nu, p, q, r, t]: eye[p, r] conj(H1^{nu mu}[t, q]) + H2^{mu nu}[r, p] eye[q, t]
    out = np.empty((s, s, n, n, n, n), dtype=complex)
    np.multiply(eye[:, None, :, None], h1[:s].conj().transpose(2, 0, 3, 1)[:, :, None, :, None, :], out=out)
    out += h2[:s].transpose(0, 2, 3, 1)[:, :, :, None, :, None] * eye[None, :, None, :]
    # a[j, nu, p, r] = H2^{j nu}[r, p] and b[j, mu, q, t] = conj(H1^{j mu}[t, q]), j >= 1
    a = h2[1:].transpose(0, 2, 3, 1).reshape(d, s * n * n)
    b = h1[1:].conj().transpose(0, 2, 3, 1).reshape(d, s * n * n)
    out += (a.T @ b).reshape(s, n, n, s, n, n).transpose(3, 0, 1, 4, 2, 5)
    return out.reshape(s, s, n * n, n * n)


def composed_vacuum_generator(G: BlockCoefficient, F1: BlockCoefficient, F2: BlockCoefficient) -> Superoperator:
    """Phi^{00} of the flow driven by G, perturbed by (F1, F2), in closed form.

    With (K_i, L_i) the blocks of H_i = G (+) F_i (`compose`) and (L_i)_k the
    k-th n x n block of L_i (noise-first), Phi^{00}(x) = K1* x + x K2 +
    sum_k (L1)_k* x (L2)_k, whose matrix is

        I (x) K1* + K2^T (x) I + sum_k (L2)_k^T (x) (L1)_k*,

    the (0, 0) block of `composed_blocks`.  It is the scalar corner of
    `phi_perturbed` with theta = from_hp_coefficient(G); a unitary-type G is
    the caller's to check (`flows.require_unitary_type`).
    """
    return Superoperator(n=G.n, mat=_composed(compose(G, F1), compose(G, F2), 1)[0, 0])


# superoperators on M_n that `composed_blocks` allocates besides its (d+1)^2
# blocks, per block: a Kronecker term, then the product over j, and numpy's
# buffers for adding them (tracemalloc peak at n = 8, the blocks included: 2.3
# sets of blocks at d = 3, 3.1 at d = 1)
COMPOSED_BLOCKS_WORKSPACE = 3


def composed_blocks(G: BlockCoefficient, F1: BlockCoefficient, F2: BlockCoefficient) -> np.ndarray:
    """All (d+1)^2 block superoperators of phi for the flow driven by G, perturbed
    by (F1, F2), in closed form from H_i = G (+) F_i (`_composed`), without
    evaluating phi: `block_superoperators` of that phi, laid out alike.
    MemoryCapExceededError, before any allocation, if they and their working
    set exceed the memory cap.  A unitary-type G is the caller's to check.
    """
    s = G.d + 1
    reserve((1 + COMPOSED_BLOCKS_WORKSPACE) * s * s, G.n ** 2)
    return _composed(compose(G, F1), compose(G, F2), s)


def block_superoperators(phi: OperatorMap) -> np.ndarray:
    """The (d+1)^2 block superoperators of a phi-like map, from stacked calls
    on the n^2 matrix units in the slices of `linalg.chunks` (CHUNK_ENTRIES = 2^14
    output entries, or one unit).  MemoryCapExceededError, before any allocation,
    if they and their working set exceed the memory cap.

    out[mu, nu] is the n^2 x n^2 matrix (column-stacking) of
    x -> phi(x)[mu n:(mu+1) n, nu n:(nu+1) n]; column j n + i is the vec of
    that block of phi(E_ij), as in `Superoperator.from_map`.
    """
    n, s = phi.n, phi.d + 1
    calls = chunks(n * n, (s * n) ** 2)
    # reserved, in superoperators: the blocks, the units and 7 images of a chunk
    # (tracemalloc peak of phi_perturbed's assembly at n = 8 and 12, d = 1..3:
    # the blocks, the units and 5.3 to 6.3 images)
    reserve(s * s + 1 + 7 * calls[0].stop * s * s / (n * n), n * n)
    out = np.empty((s, s, n * n, n * n), dtype=complex)
    # unit u = j n + i is E_ij = unvec(e_u), in column u
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n).transpose(0, 2, 1)
    for c in calls:
        stack = units[c]
        # y[u, mu, p, nu, q] -> [mu, nu, q, p, u]: the block's entry (p, q) of
        # phi(E_ij) at row q n + p, column u
        y = phi(stack).reshape(len(stack), s, n, s, n)
        out[:, :, :, c] = y.transpose(1, 3, 4, 2, 0).reshape(s, s, n * n, len(stack))
    return out


def vacuum_generator(phi: OperatorMap) -> Superoperator:
    """Scalar corner of a phi-like map, as a superoperator on M_n: Phi^{00}."""
    # a copy, so that the other blocks are freed
    return Superoperator(n=phi.n, mat=block_superoperators(phi)[0, 0].copy())


def semigroup_at(G: Superoperator, t: float) -> Superoperator:
    """exp(t G) as a superoperator; ValueError unless t is finite and nonnegative."""
    if not 0 <= t < np.inf:
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    return Superoperator(n=G.n, mat=expm(t * G.mat))


def semigroup_stack(G: Superoperator, times) -> np.ndarray:
    """The matrices of exp(t G) for each t of times, as a (k, n^2, n^2) stack, from
    one `linalg.expm_stack` pass over t G, in which times a power of two apart
    share one Pade evaluation (`semigroup_at` takes scipy's expm instead).
    ValueError unless every time is finite and nonnegative."""
    times = np.asarray(times, dtype=float)
    bad = times[~((times >= 0) & (times < np.inf))]
    if bad.size:
        raise ValueError(f"times must be finite and nonnegative, got {bad[0]}")
    return expm_stack(times[:, None, None] * G.mat)


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
