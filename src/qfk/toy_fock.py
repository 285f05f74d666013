"""Discrete toy-Fock simulation oracle.

The continuous noise space is replaced by N copies of C^{d+1} ("slots"),
one per time step of length h = T/N, ordered

    C^D  =  C^n (x) slot 1 (x) slot 2 (x) ... (x) slot N,     D = n (d+1)^N,

with slot vacuum omega = e_0.  The basic increments at a slot are scaled
matrix units

    (0,0) -> h |omega><omega|        (time)
    (mu,0) -> sqrt(h) |e_mu><omega|  (creation)
    (0,nu) -> sqrt(h) |omega><e_nu|  (annihilation)
    (mu,nu) -> |e_mu><e_nu|          (gauge),      mu, nu = 1..d.

A coefficient F with blocks F^{mu nu} (gauge block W - I) drives the Euler
scheme

    V_0 = I,   V_{i+1} = (I + sum_{mu nu} F^{mu nu} (x) Lambda^{mu nu}_{i+1}) V_i,

deliberately not unitarized: the scheme's deviation from isometry is part
of what the oracle measures.  An optional per-slot exponential variant
replaces I + S by exp(S).  Flows are j_i(a) = V_i* (a (x) I) V_i and
perturbations follow the same recursion with coefficients j_i(F^{mu nu}).

A process is stored by its heads H_i (X_i = H_i (x) I on slots > i), at
most s^2 / (s^2 - 1) operators on C^D in all (s = d + 1), up to a memory cap
(default 2 GiB, D^2 * 16 bytes per operator, checked before allocation).  No
D x D embedding is formed: a step factor is contracted into the (initial,
slot) legs it acts on, and the simulators step on the head space
C^n (x) slots 1..i+1.  simulate_hp_unitary costs O(n s D^2);
simulate_perturbation and simulate_flow are dominated by one head-space
product at the last step, O(D^3 / s).  The dense readings propagate or read
only the n (or n + dn) columns they compress onto.  At n = 2, d = 1 the cap
admits D = 4096 (N = 11: 1.2 s and 0.9 GB peak RSS for simulate_hp_unitary,
10 s for the Euler simulate_perturbation on one core), except for the
exponential simulate_perturbation, and refuses D = 8192.

Vacuum-compressed quantities are also computable without materializing C^D
operators: compressing slot by slot turns the expectation into an iterated
map on M_n (an interaction-picture transfer map).  The *_channel /
*_residual functions below evaluate that way; they reproduce the dense
value exactly for the HP compression and for trivial free flows
(cross-validated in tests).  For nontrivial flows driven by a unitary-type
coefficient (q(G) = 0 and q(G*) = 0) they are an equivalent discretization
of the same limit, since the interaction-picture factorization is exact
only up to the O(h) non-unitarity of the Euler step.  For a drive that is
not unitary-type the gap to the dense value does not shrink with h (for
one draw of W = I + 0.1 randn it stays at 0.12-0.13 from N = 4 to 10), so
the channel evaluators take a unitary-type G as a precondition.  They raise the
n^2 x n^2 matrix of that map to the N-th power by repeated squaring, at
O(n^6 log N) cost; the staged multiplier residual iterates the map on its
head space, linearly in N.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .coefficients import BlockCoefficient
from .linalg import DimensionMismatchError, as_complex, dag, expm, norm2

DEFAULT_MEMORY_CAP = 2 * 1024 ** 3
# error-ladder entries at or below this are zero to rounding (the dense
# cross-checks pin agreement at this level)
ROUNDING_FLOOR = 1e-12


class MemoryCapExceededError(RuntimeError):
    """A dense simulation would exceed the configured memory cap."""


def _check_memory(op_count: float, dim: int, cap: int) -> None:
    need = op_count * dim * dim * 16
    if need > cap:
        raise MemoryCapExceededError(
            f"{op_count:.4g} dense operators on C^{dim} need {need:.0f} bytes, cap is {cap}"
        )


@dataclass(frozen=True)
class ToyFockModel:
    """Discretization parameters: initial dim n, noise dim d, N slots over [0, T]."""

    n: int
    d: int
    N: int
    T: float
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.N < 1:
            raise DimensionMismatchError("need n >= 1, d >= 1, N >= 1")
        if not (self.T > 0):
            raise ValueError("horizon T must be positive")

    @property
    def h(self) -> float:
        return self.T / self.N

    @property
    def slot_dim(self) -> int:
        return self.d + 1

    @property
    def D(self) -> int:
        return self.n * self.slot_dim ** self.N

    def check_memory(self, op_count: float) -> None:
        _check_memory(op_count, self.D, self.memory_cap_bytes)


@dataclass(frozen=True, eq=False)
class DiscreteProcess:
    """An adapted process X_0 .. X_N on C^D, stored by its heads.

    X_i = H_i (x) I acts as the identity on slots > i; only the heads H_i,
    on C^n (x) slots 1..i (dimension n s^i, s = d + 1), are held.
    """

    model: ToyFockModel
    heads: list

    def __post_init__(self):
        n, s, N = self.model.n, self.model.slot_dim, self.model.N
        if len(self.heads) != N + 1:
            raise DimensionMismatchError(f"process has {len(self.heads)} heads, expected {N + 1}")
        for i, head in enumerate(self.heads):
            if np.shape(head) != (n * s ** i,) * 2:
                raise DimensionMismatchError(
                    f"head {i} has shape {np.shape(head)}, expected {(n * s ** i,) * 2}"
                )

    @property
    def ops(self) -> _Ampliations:
        """Read-only view of X_0 .. X_N; X_N is the stored H_N itself."""
        return _Ampliations(self.heads, self.model.D)


class _Ampliations(Sequence):
    """X_i = H_i (x) I on C^D, formed from the head when indexed."""

    def __init__(self, heads: list, D: int):
        self._heads, self._D = heads, D

    def __len__(self) -> int:
        return len(self._heads)

    def __getitem__(self, i: int) -> np.ndarray:
        head = self._heads[i]
        return _ampliate(head, self._D // head.shape[0])


def _check_process_memory(model: ToyFockModel, temporaries: int) -> None:
    """The output heads (at most s^2 / (s^2 - 1) operators on C^D) and the
    temporaries on C^D of a simulator's last step must fit the cap."""
    model.check_memory(model.slot_dim ** 2 / (model.slot_dim ** 2 - 1) + temporaries)


# --- local building blocks --------------------------------------------------

def increment_scale(h: float, mu: int, nu: int) -> float:
    """h for time (0,0), sqrt(h) for creation/annihilation, 1 for gauge."""
    return h ** ((int(mu == 0) + int(nu == 0)) / 2.0)


def increment_local(d: int, h: float, mu: int, nu: int) -> np.ndarray:
    """The scaled matrix unit on one slot."""
    s = d + 1
    if not (0 <= mu <= d and 0 <= nu <= d):
        raise DimensionMismatchError(f"increment labels must lie in 0..{d}")
    out = np.zeros((s, s), dtype=complex)
    out[mu, nu] = increment_scale(h, mu, nu)
    return out


def coefficient_blocks(F: BlockCoefficient) -> dict:
    """{(mu, nu): n x n block}, gauge block W - I included."""
    n, d = F.n, F.d
    full = F.as_full()
    return {
        (mu, nu): full[mu * n : (mu + 1) * n, nu * n : (nu + 1) * n]
        for mu in range(d + 1)
        for nu in range(d + 1)
    }


def coupling_local(F: BlockCoefficient, h: float) -> np.ndarray:
    """sum_{mu nu} F^{mu nu} (x) Lambda^{mu nu} on C^n (x) C^{d+1}."""
    n, d = F.n, F.d
    out = np.zeros((n * (d + 1), n * (d + 1)), dtype=complex)
    for (mu, nu), blk in coefficient_blocks(F).items():
        out += np.kron(blk, increment_local(d, h, mu, nu))
    return out


def step_local(F: BlockCoefficient, h: float, scheme: str) -> np.ndarray:
    coupling = coupling_local(F, h)
    if scheme == "euler":
        return np.eye(coupling.shape[0]) + coupling
    if scheme == "exponential":
        return expm(coupling)
    raise ValueError(f"unknown scheme {scheme!r}")


# --- dense embeddings -------------------------------------------------------

def embed_at_slot(model: ToyFockModel, local: np.ndarray, slot: int) -> np.ndarray:
    """Embed a one-slot operator at the given slot (1-based), identity elsewhere."""
    s = model.slot_dim
    local = as_complex(local)
    if local.shape != (s, s):
        raise DimensionMismatchError(f"slot operator must be {s} x {s}")
    if not (1 <= slot <= model.N):
        raise ValueError(f"slot must lie in 1..{model.N}")
    before = np.eye(model.n * s ** (slot - 1))
    after = np.eye(s ** (model.N - slot))
    return np.kron(np.kron(before, local), after)


def embed_two_site(model: ToyFockModel, local: np.ndarray, slot: int) -> np.ndarray:
    """Embed an operator on (initial (x) one slot) at the given slot."""
    n, s = model.n, model.slot_dim
    local = as_complex(local)
    if local.shape != (n * s, n * s):
        raise DimensionMismatchError(f"two-site operator must be {n * s} x {n * s}")
    before, after = s ** (slot - 1), s ** (model.N - slot)
    out = np.einsum(
        "iajb,pq,xy->ipaxjqby", local.reshape(n, s, n, s), np.eye(before), np.eye(after)
    )
    return out.reshape(model.D, model.D)


def _check_coeff(model: ToyFockModel, F: BlockCoefficient, name: str) -> None:
    if (F.n, F.d) != (model.n, model.d):
        raise DimensionMismatchError(
            f"{name} has (n, d) = {(F.n, F.d)}, model has {(model.n, model.d)}"
        )


def _check_process(model: ToyFockModel, X: DiscreteProcess, name: str) -> None:
    m = X.model
    if (m.n, m.d, m.N) != (model.n, model.d, model.N):
        raise DimensionMismatchError(
            f"{name} was simulated with (n, d, N) = {(m.n, m.d, m.N)}, model has {(model.n, model.d, model.N)}"
        )


# --- local applies on head spaces ---------------------------------------------
#
# Blocks below have rows over a head space C^n (x) slots 1..L (L <= N) and
# any number of columns.  A process operator is X_i = H (x) I on slots > i,
# with its head H on C^n (x) slots 1..i.

def _apply_local(local: np.ndarray, X: np.ndarray, s: int, slot: int) -> np.ndarray:
    """(local at (initial, slot)) X, without forming the embedding.

    local is (n s) x (n s); it is contracted into the initial and slot legs
    of the rows of X, at O(n s) operations per entry of X.
    """
    n = local.shape[0] // s
    x = X.reshape(n, s ** (slot - 1), s, -1)
    out = np.tensordot(local.reshape(n, s, n, s), x, axes=([2, 3], [0, 2]))
    return out.transpose(0, 2, 1, 3).reshape(X.shape)


def _lmul(head: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(head (x) I) X, head acting on the leading legs of the rows of X."""
    return (head @ X.reshape(head.shape[0], -1)).reshape(X.shape)


def _copies(X: np.ndarray, reps: int) -> np.ndarray:
    """Writable h x h x reps view of the diagonal blocks of X on C^h (x) C^reps."""
    h = X.shape[0] // reps
    return np.einsum("ipjp->ijp", X.reshape(h, reps, h, reps))


def _ampliate(head: np.ndarray, reps: int) -> np.ndarray:
    """head (x) I_reps (head itself for reps = 1)."""
    if reps == 1:
        return head
    out = np.zeros((head.shape[0] * reps,) * 2, dtype=complex)
    _copies(out, reps)[...] = head[:, :, None]
    return out


def _chain(local: np.ndarray, s: int, head: np.ndarray, slots) -> list:
    """[head, U_k head, ...]: `local` applied at each of the consecutive `slots`."""
    out = [head]
    for k in slots:
        out.append(_apply_local(local, _ampliate(out[-1], s), s, k))
    return out


def _coupling(vh: np.ndarray, loc: np.ndarray, s: int, slot: int) -> np.ndarray:
    """Head of V* (loc at slot) V for V = vh (x) I on the slots before `slot`."""
    return _lmul(dag(vh), _apply_local(loc, _ampliate(vh, s), s, slot))


def _propagate(heads, loc, s: int, y: np.ndarray, scheme: str, first_slot: int = 1) -> np.ndarray:
    """Y c from a block of columns y = Y_{first_slot - 1} c, one step per head
    vh of V: y + C y (euler) or exp(C) y with C = V* (loc at the slot) V."""
    for k, vh in enumerate(heads, start=first_slot):
        if scheme == "euler":
            out = _lmul(dag(vh), _apply_local(loc, _lmul(vh, y), s, k))
            out += y
            y = out
        elif scheme == "exponential":
            y = _lmul(expm(_coupling(vh, loc, s, k)), y)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
    return y


def _vacuum_columns(model: ToyFockModel) -> np.ndarray:
    """D x n block whose columns are e_u (x) omega^N."""
    out = np.zeros((model.D, model.n), dtype=complex)
    out[:: model.slot_dim ** model.N] = np.eye(model.n)
    return out


# --- dense simulation -------------------------------------------------------

def simulate_hp_unitary(model: ToyFockModel, G: BlockCoefficient, scheme: str = "euler") -> DiscreteProcess:
    """V_0 = I, V_{i+1} = step(G, slot i+1) V_i."""
    _check_coeff(model, G, "G")
    _check_process_memory(model, 3)  # tracemalloc peak: 2.0 beside the heads
    s = model.slot_dim
    heads = _chain(step_local(G, model.h, scheme), s, np.eye(model.n, dtype=complex), range(1, model.N + 1))
    return DiscreteProcess(model=model, heads=heads)


def simulate_flow(model: ToyFockModel, V: DiscreteProcess, a: np.ndarray) -> DiscreteProcess:
    """j_i(a) = V_i* (a (x) I) V_i."""
    _check_process(model, V, "V")
    a = as_complex(a)
    if a.shape != (model.n, model.n):
        raise DimensionMismatchError(f"observable must be {model.n} x {model.n}")
    _check_process_memory(model, 3)  # tracemalloc peak: 2.0 beside the heads
    return DiscreteProcess(model=model, heads=[dag(vh) @ _lmul(a, vh) for vh in V.heads])


def simulate_perturbation(
    model: ToyFockModel, V: DiscreteProcess, F: BlockCoefficient, scheme: str = "euler"
) -> DiscreteProcess:
    """Y_0 = I, Y_{i+1} = Y_i + sum j_i(F^{mu nu}) Lambda^{mu nu}_{i+1} Y_i.

    The exponential variant replaces (I + sum ...) by exp(sum ...) stepwise.
    V_i commutes with the slot-(i+1) increments, so the coupling is the
    sandwich V_i* (coupling_local(F) at slot i+1) V_i; each step works on
    the head space of slot i+1.
    """
    _check_process(model, V, "V")
    _check_coeff(model, F, "F")
    # tracemalloc peak: 2.25 beside the heads (exponential: 6.5, with expm)
    _check_process_memory(model, 7 if scheme == "exponential" else 3)
    s = model.slot_dim
    loc = coupling_local(F, model.h)
    heads = [np.eye(model.n, dtype=complex)]
    for i, vh in enumerate(V.heads[:-1]):
        yh = heads[-1]
        if scheme == "euler":
            nxt = _lmul(dag(vh), _apply_local(loc, _ampliate(vh @ yh, s), s, i + 1))
            _copies(nxt, s)[...] += yh[:, :, None]
        elif scheme == "exponential":
            nxt = expm(_coupling(vh, loc, s, i + 1)) @ _ampliate(yh, s)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        heads.append(nxt)
    return DiscreteProcess(model=model, heads=heads)


def vacuum_expect(model: ToyFockModel, X: np.ndarray) -> np.ndarray:
    """The n x n compression <u (x) omega^N, X (v (x) omega^N)>."""
    X = as_complex(X)
    if X.shape != (model.D, model.D):
        raise DimensionMismatchError(f"operator must live on C^{model.D}")
    stride = model.slot_dim ** model.N
    return np.ascontiguousarray(X[::stride, ::stride])


def fk_expectation_estimate(
    model: ToyFockModel,
    V: DiscreteProcess,
    F1: BlockCoefficient,
    F2: BlockCoefficient,
    a: np.ndarray,
    scheme: str = "euler",
) -> np.ndarray:
    """vacuum_expect(Y1* j_N(a) Y2): the discrete Feynman-Kac expectation.

    Only the n vacuum columns of Y1 and Y2 are propagated.
    """
    _check_process(model, V, "V")
    _check_coeff(model, F1, "F1")
    _check_coeff(model, F2, "F2")
    a = as_complex(a)
    if a.shape != (model.n, model.n):
        raise DimensionMismatchError(f"observable must be {model.n} x {model.n}")
    # the last step holds two operators on C^D (exponential: nine, with expm)
    model.check_memory(9 if scheme == "exponential" else 2)
    s, heads, vac = model.slot_dim, V.heads[:-1], _vacuum_columns(model)
    c1, c2 = (
        V.heads[-1] @ _propagate(heads, coupling_local(F, model.h), s, vac, scheme)
        for F in (F1, F2)
    )
    return dag(c1) @ _lmul(a, c2)


def multiplier_cocycle_check(
    model: ToyFockModel,
    V: DiscreteProcess,
    F: BlockCoefficient,
    split: int,
    scheme: str = "euler",
) -> float:
    """Residual of the discrete multiplier-cocycle identity at a split slot.

    Builds the discrete analogue of J_split(Y_tail): a fresh simulation over
    slots split+1..N whose coefficients are V_split* (F^{mu nu} (x) I) V_split,
    conjugated step by step by the fresh shifted flow; multiplies by Y_split
    and compares to Y_N.  Returns the spectral norm of the difference of
    vacuum-compressed n x n corners, propagating only the n vacuum columns.
    Exactly zero for the trivial flow (the identity reduces to the shift
    property) and for F = 0.
    """
    if not (1 <= split <= model.N - 1):
        raise ValueError(f"split must lie in 1..{model.N - 1}")
    _check_process(model, V, "V")
    _check_coeff(model, F, "F")
    # the last step holds two operators on C^D (exponential: nine, with expm)
    model.check_memory(9 if scheme == "exponential" else 2)
    s, N = model.slot_dim, model.N
    heads = V.heads[:-1]
    loc = coupling_local(F, model.h)
    # the fresh one-step factor is the same local operator V was built from;
    # w_i = V_split (fresh flow over slots split+1..i) acts on the head space of slot i
    fresh = _chain(heads[1], s, np.eye(model.n * s ** split, dtype=complex), range(split + 1, N))
    fresh = [_lmul(heads[split], f) for f in fresh]
    y_split = _propagate(heads[:split], loc, s, _vacuum_columns(model), scheme)
    y = _propagate(heads[split:], loc, s, y_split, scheme, first_slot=split + 1)
    yhat = _propagate(fresh, loc, s, y_split, scheme, first_slot=split + 1)
    stride = s ** N
    return norm2(y[::stride] - yhat[::stride])


def stochastic_derivative_estimate(model: ToyFockModel, Y: DiscreteProcess, t: float | None = None) -> np.ndarray:
    """Block estimate of the generating coefficient from a simulated process.

    Compresses Y_N - I between [t^{-1/2} vacuum, one-particle] columns, where
    the discrete one-particle isometry puts amplitude sqrt(h/t) of the noise
    letter in every slot.  Returns a (d+1)n x (d+1)n matrix in coefficient
    block layout; as T -> 0 at fixed N it approaches the generating F
    blockwise, and it is exact for F = -Delta at any (N, T).  Reads the n
    vacuum columns of Y_N and its products with the dn one-particle columns.
    """
    _check_process(model, Y, "Y")
    n, d, s = model.n, model.d, model.slot_dim
    if t is None:
        t = model.T
    if not (t > 0):
        raise ValueError("compression horizon t must be positive")
    stride = s ** model.N
    vdisc = np.zeros((model.D, d * n), dtype=complex)
    ampl = np.sqrt(model.h / t)
    for c in range(d):
        for u in range(n):
            for k in range(1, model.N + 1):
                vdisc[u * stride + (c + 1) * s ** (model.N - k), c * n + u] = ampl
    yn = Y.heads[-1]
    r_vac = yn[:, ::stride] - _vacuum_columns(model)
    r_one = yn @ vdisc - vdisc
    out = np.zeros(((d + 1) * n, (d + 1) * n), dtype=complex)
    out[:n, :n] = r_vac[::stride] / t
    out[:n, n:] = r_one[::stride] / np.sqrt(t)
    out[n:, :n] = dag(vdisc) @ r_vac / np.sqrt(t)
    out[n:, n:] = dag(vdisc) @ r_one
    return out


# --- contraction (transfer-map) evaluators ----------------------------------
#
# These compress the vacuum expectations slot by slot, so N is limited by
# arithmetic and not by D = n(d+1)^N.  The HP compression is the exact dense
# value for any flow (slot factors of a pure product never interleave), and
# for a trivial free flow every evaluator below reproduces the dense value to
# machine precision.  For a nontrivial flow the perturbation readings use the
# interaction picture X = V Y, whose per-slot factorization holds only up to
# the O(h) non-unitarity of the Euler step: they define an equivalent
# discretization of the same limit rather than the dense matrix itself, and
# only for a unitary-type drive G.  scheme="exponential" is gated to trivial
# flows, where the factor form is still exact.

def _letter_blocks(cols: np.ndarray, s: int) -> np.ndarray:
    """s x m x m: block a holds the rows of slot letter a of an (m s) x m block."""
    m = cols.shape[1]
    return cols.reshape(m, s, m).transpose(1, 0, 2)


def _transfer_power(d1: np.ndarray, d2: np.ndarray, s: int, N: int, x: np.ndarray) -> np.ndarray:
    """T^N(x) for T(x) = <omega| d1* (x (x) I_s) d2 |omega>, by repeated squaring.

    T(x) = sum_a A_a* x B_a, where A_a and B_a are the blocks of slot letter
    a of the slot-vacuum columns of d1 and d2.
    """
    A, B = (_letter_blocks(op[:, ::s], s) for op in (d1, d2))
    m = A.shape[1]
    # row-major vec: vec(A* x B)[(j, l)] = sum conj(A[i, j]) x[i, k] B[k, l]
    mat = np.einsum("aij,akl->jlik", A.conj(), B).reshape(m * m, m * m)
    return (np.linalg.matrix_power(mat, N) @ x.reshape(-1)).reshape(m, m)


def _flow_local(n: int, d: int, h: float, G: BlockCoefficient | None, scheme: str) -> np.ndarray:
    if G is None:
        return np.eye(n * (d + 1), dtype=complex)
    if (G.n, G.d) != (n, d):
        raise DimensionMismatchError("flow coefficient dimensions differ from (n, d)")
    return step_local(G, h, scheme)


def _require_channel_scheme(G: BlockCoefficient | None, scheme: str) -> None:
    if scheme == "euler":
        return
    if scheme == "exponential":
        if G is not None and norm2(G.as_full()) > 0:
            raise ValueError(
                "scheme='exponential' in contraction evaluators requires a trivial flow"
            )
        return
    raise ValueError(f"unknown scheme {scheme!r}")


def hp_vacuum_compression(n: int, d: int, N: int, T: float, G: BlockCoefficient, scheme: str = "euler") -> np.ndarray:
    """<vac| V_N |vac> without materializing C^D: the N-th power of <omega|step|omega>."""
    if (G.n, G.d) != (n, d):
        raise DimensionMismatchError("coefficient dimensions differ from (n, d)")
    b = step_local(G, T / N, scheme)[:: d + 1, :: d + 1]
    return np.linalg.matrix_power(b, N)


def cocycle_vacuum_corner(
    n: int, d: int, N: int, T: float,
    G: BlockCoefficient | None, F: BlockCoefficient, scheme: str = "euler",
) -> np.ndarray:
    """<vac| Y_N |vac> for the perturbation Y of the flow driven by G (None = trivial).

    G must be unitary-type, q(G) = 0 and q(G*) = 0 (see the module docstring).
    """
    _require_channel_scheme(G, scheme)
    u = _flow_local(n, d, T / N, G, scheme)
    return _transfer_power(u, u @ step_local(F, T / N, scheme), d + 1, N, np.eye(n, dtype=complex))


def fk_expectation_channel(
    n: int, d: int, N: int, T: float,
    G: BlockCoefficient | None,
    F1: BlockCoefficient, F2: BlockCoefficient,
    a: np.ndarray, scheme: str = "euler",
) -> np.ndarray:
    """vacuum_expect(Y1* j_N(a) Y2) via an iterated map on M_n.

    In the interaction picture X_i = V_i Y_i the recursion is a product of
    per-slot factors U C, so the compression is T^N(a) with
    T(x) = <omega| (U C1)* (x (x) I) (U C2) |omega>.  G must be unitary-type,
    q(G) = 0 and q(G*) = 0 (see the module docstring).
    """
    _require_channel_scheme(G, scheme)
    a = as_complex(a)
    if a.shape != (n, n):
        raise DimensionMismatchError(f"observable must be {n} x {n}")
    u = _flow_local(n, d, T / N, G, scheme)
    d1 = u @ step_local(F1, T / N, scheme)
    d2 = u @ step_local(F2, T / N, scheme)
    return _transfer_power(d1, d2, d + 1, N, a)


def isometry_defect_channel(
    n: int, d: int, N: int, T: float, F: BlockCoefficient, scheme: str = "euler"
) -> float:
    """|| vacuum_expect(Y_N* Y_N) - I || for a trivial-flow perturbation."""
    defect = fk_expectation_channel(n, d, N, T, None, F, F, np.eye(n), scheme)
    return norm2(defect - np.eye(n))


def multiplier_cocycle_residual(
    n: int, d: int, N: int, T: float,
    G: BlockCoefficient | None, F: BlockCoefficient,
    split: int, scheme: str = "euler",
) -> float:
    """The multiplier-cocycle residual by staged contraction.

    Slots > split are compressed through a transfer map acting on operators
    over C^n (x) slots_{1..split}, so memory scales with n (d+1)^split rather
    than n (d+1)^N; a head space over the default memory cap raises
    MemoryCapExceededError.  Coincides with `multiplier_cocycle_check` exactly
    for a trivial flow; for a nontrivial flow it measures the same identity in
    the interaction-picture reading (see the module docstring), which needs
    a unitary-type G, q(G) = 0 and q(G*) = 0.
    """
    if not (1 <= split <= N - 1):
        raise ValueError(f"split must lie in 1..{N - 1}")
    _require_channel_scheme(G, scheme)
    s = d + 1
    h = T / N
    head_dim = n * s ** split
    # at most five operators on head (x) slot are alive at once
    _check_memory(5, head_dim * s, DEFAULT_MEMORY_CAP)
    u_loc = _flow_local(n, d, h, G, scheme)
    uc = u_loc @ step_local(F, h, scheme)
    corner_y = cocycle_vacuum_corner(n, d, N, T, G, F, scheme)

    # head chains V_split, X_split on C^n (x) slots 1..split
    eye = np.eye(n, dtype=complex)
    vs = _chain(u_loc, s, eye, range(1, split + 1))[-1]
    xs = _chain(uc, s, eye, range(1, split + 1))[-1]

    # coefficients conjugated by V_split, coupled to the next slot
    coupling = _coupling(vs, coupling_local(F, h), s, split + 1)
    chat = np.eye(head_dim * s) + coupling if scheme == "euler" else expm(coupling)
    # per-step map sum_a A_a* x B_a with the flow acting on (initial, new
    # slot): A_a = u_{a0} on the initial leg, B_a = <a| u chat |omega>
    A = [dag(a) for a in _letter_blocks(u_loc[:, ::s], s)]
    B = _letter_blocks(_apply_local(u_loc, chat[:, ::s], s, split + 1), s)
    acc = np.eye(head_dim, dtype=complex)
    for _ in range(N - split):
        acc = sum(_lmul(a, acc @ b) for a, b in zip(A, B))
    total = acc @ dag(vs) @ xs
    corner_w = np.ascontiguousarray(total[:: s ** split, :: s ** split])
    return norm2(corner_y - corner_w)


def ladder_verdict(errors, ratio: float = 0.1, abs_cap: float = 0.05) -> dict:
    """Trend verdict for an error ladder over increasing N.

    Passes when errors strictly decrease and the final error is at most
    max(ratio * initial, abs_cap) -- the weaker of the two caps.  An error
    at or below ROUNDING_FLOOR is zero to rounding and counts as converged
    whatever its predecessor.
    """
    errors = [float(e) for e in errors]
    monotone = all(b < a or b <= ROUNDING_FLOOR for a, b in zip(errors, errors[1:]))
    final = errors[-1] if errors else float("nan")
    bound = max(ratio * errors[0], abs_cap) if errors else float("nan")
    return {
        "errors": errors,
        "monotone": monotone,
        "final_error": final,
        "passed": bool(monotone and final <= bound),
    }
