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
of what the oracle measures, and its first-order convergence is what the
error ladders check (Attal & Pautrat, Ann. Henri Poincare 7, 2006).  Flows
are j_i(a) = V_i* (a (x) I) V_i and perturbations follow the same recursion
with coefficients j_i(F^{mu nu}).

A process is stored by its heads H_i (X_i = H_i (x) I on slots > i), at
most s^2 / (s^2 - 1) operators on C^D in all (s = d + 1), up to the memory cap
(`linalg.reserve`: 2 GiB, D^2 * 16 bytes per operator, before allocation).  No
D x D embedding is formed: a step factor is contracted into the (initial,
slot) legs it acts on, and the simulators step on the head space
C^n (x) slots 1..i+1, applying a local factor to a head H as if to
H (x) I_s without forming it.  That step takes one product per slot letter
a of the new slot and copies its s blocks, one per letter b, straight into
their places in the result: no second result-sized array is formed to
gather them, so the step holds 1/s of its result beside it.
simulate_hp_unitary costs O(n D^2); simulate_perturbation is dominated by
one head-space product at the last step, O(D^3 / s).  The dense readings
propagate or read only the n (or n + dn) columns they compress onto.  At
n = 2, d = 1 the cap admits D = 4096 (N = 11: 0.3-0.6 s and 0.52 GB peak
RSS for simulate_hp_unitary, 8-9 s and 1.05 GB with simulate_perturbation
after it, on one core) and refuses D = 8192.

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
O(n^6 log N) cost.  Each side of the map is a slot word, coefficients whose
Euler steps multiply left to right: the drive G first, G = None (the trivial
flow) read as the zero coefficient, whose step is the identity.  Every
transfer reading goes through `_channel_ladder`: the words and transfer
matrices of all rungs of a ladder are built in one stacked product and
powered in one binary pass, each rung bit for bit as np.linalg.matrix_power
would; the per-N readings are its one-rung case.  The staged multiplier
residual iterates the map on the n vacuum rows of its head space, two products
per slot, linearly in N; `multiplier_cocycle_ladder` reads the corners of all its
rungs in one transfer reading, and the per-N residual is its one-rung case.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .coefficients import BlockCoefficient
from .linalg import DimensionMismatchError, as_complex, chunks, dag, norm2, norm2_stack, reserve

# stacks of the larger of its n^2 x n^2 transfer matrices and n s x n s slot words that
# a chunk of a transfer reading reserves; tracemalloc peak 4.0 to 6.9 (small arrays weigh more)
_TRANSFER_STACKS = 7
# error-ladder entries at or below this are zero to rounding (the dense
# cross-checks pin agreement at this level)
ROUNDING_FLOOR = 1e-12
# the caps on a ladder's final error, see `ladder_verdict`
_VERDICT_RATIO = 0.1
_VERDICT_ABS_CAP = 0.05


@dataclass(frozen=True)
class ToyFockModel:
    """Discretization parameters: initial dim n, noise dim d, N slots over [0, T]."""

    n: int
    d: int
    N: int
    T: float

    def __post_init__(self):
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in (self.n, self.d, self.N)):
            raise DimensionMismatchError(f"n, d and N must be integers, got {(self.n, self.d, self.N)}")
        if self.n < 1 or self.d < 1 or self.N < 1:
            raise DimensionMismatchError("need n >= 1, d >= 1, N >= 1")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"horizon T must be positive and finite, got {self.T!r}")

    @property
    def h(self) -> float:
        return self.T / self.N

    @property
    def slot_dim(self) -> int:
        return self.d + 1

    @property
    def D(self) -> int:
        return self.n * self.slot_dim ** self.N


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


def _reserve_dense(model: ToyFockModel, operators: float) -> None:
    """reserve(operators, D), with D = n s^N past s^64 refused by its lower bound
    n s^64: a D of 2^27 bits took a second to form."""
    reserve(operators, model.n * model.slot_dim ** min(model.N, 64))


def _check_process_memory(model: ToyFockModel, temporaries: int) -> None:
    """The output heads (at most s^2 / (s^2 - 1) operators on C^D) and the
    temporaries on C^D of a simulator's last step must fit the cap."""
    _reserve_dense(model, model.slot_dim ** 2 / (model.slot_dim ** 2 - 1) + temporaries)


# --- local building blocks --------------------------------------------------

def _couplings(F: BlockCoefficient, hs: list) -> np.ndarray:
    """(k, n s, n s): coupling_local(F, h) for each step length h of hs."""
    n, s = F.n, F.d + 1
    # h for time (0, 0), sqrt(h) for creation and annihilation, 1 for gauge: the
    # exponents 0.0, 0.5 and 1.0 only
    powers = np.array([[h ** 0.0, h ** 0.5, h ** 1.0] for h in hs])
    scales = powers[:, [[(mu == 0) + (nu == 0) for nu in range(s)] for mu in range(s)]]
    blocks = F.as_full().reshape(s, n, s, n) * scales[:, :, None, :, None]
    return blocks.transpose(0, 2, 1, 4, 3).reshape(len(hs), n * s, n * s)


def coupling_local(F: BlockCoefficient, h: float) -> np.ndarray:
    """sum_{mu nu} F^{mu nu} (x) Lambda^{mu nu} on C^n (x) C^{d+1}.

    Entry ((i, mu), (j, nu)) is h^(((mu == 0) + (nu == 0)) / 2) F^{mu nu}[i, j]:
    one scaled transpose of F.as_full(), whose entry ((mu, i), (nu, j)) is
    F^{mu nu}[i, j].
    """
    return _couplings(F, [h])[0]


def _steps(F: BlockCoefficient, hs: list) -> np.ndarray:
    """(k, n s, n s): step_local(F, h) for each step length h of hs."""
    return np.eye(F.n * (F.d + 1)) + _couplings(F, hs)


def step_local(F: BlockCoefficient, h: float) -> np.ndarray:
    """The Euler step factor I + coupling_local(F, h)."""
    return _steps(F, [h])[0]


# --- dense embeddings -------------------------------------------------------

def embed_at_slot(model: ToyFockModel, local: np.ndarray, slot: int) -> np.ndarray:
    """Embed a one-slot operator at the given slot (1-based), identity elsewhere."""
    s = model.slot_dim
    local = as_complex(local)
    if local.shape != (s, s):
        raise DimensionMismatchError(f"slot operator must be {s} x {s}")
    return embed_two_site(model, np.kron(np.eye(model.n), local), slot)


def embed_two_site(model: ToyFockModel, local: np.ndarray, slot: int) -> np.ndarray:
    """Embed an operator on (initial (x) one slot) at the given slot."""
    n, s = model.n, model.slot_dim
    local = as_complex(local)
    if local.shape != (n * s, n * s):
        raise DimensionMismatchError(f"two-site operator must be {n * s} x {n * s}")
    if not (1 <= slot <= model.N):
        raise ValueError(f"slot must lie in 1..{model.N}")
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


def _add_copies(X: np.ndarray, head: np.ndarray) -> None:
    """X += head (x) I, one diagonal block at a time (0.5 ms at a 256 x 256 head
    and s = 2, 0.8 ms as one broadcast over the copies)."""
    blocks = _copies(X, X.shape[0] // head.shape[0])
    for r in range(blocks.shape[2]):
        blocks[:, :, r] += head


def _apply_to_ampliated(local: np.ndarray, H: np.ndarray, s: int) -> np.ndarray:
    """(local at (initial, next slot)) (H (x) I_s), without forming H (x) I_s.

    local is (m s) x (m s) and the rows of H run over C^m (x) C^p; the result
    has rows over C^m (x) C^p (x) C^s and columns over (columns of H) (x) C^s:
    out[(i, p, a), (c, b)] = sum_j local[(i, a), (j, b)] H[(j, p), c].  That
    is O(m s^2) operations per entry of H, s times fewer than `_apply_local`
    on the ampliated H.

    One product per slot letter a, of its s m rows local[(i, a), (j, b)] in
    (b, i) order against H as an m x (p cols) matrix, yields the blocks
    out[:, :, a, :, b] of every b, each copied into place while it is still
    in cache.  The working set beside the result is 1/s of it; one product
    of all m s^2 rows followed by a transposing gather held two result-sized
    arrays.  Every entry is the same length-m BLAS sum as in that one
    product, bit for bit, because numpy hands a product of s m >= 2 rows to
    the same BLAS routine, even at m = 1, where a block of m rows would be
    taken for a scalar.  An H of one entry is a scalar whatever the rows:
    numpy then scales all rows in one axpy, which rounds its leading
    multiple of 16 rows in a vector kernel, so those rows stay one product.
    """
    m = local.shape[0] // s
    p, cols = H.shape[0] // m, H.shape[1]
    letters = local.reshape(m, s, m, s).transpose(1, 3, 0, 2).reshape(s, s * m, m)
    h = H.reshape(m, p * cols)
    if h.size == 1:
        return np.dot(letters.reshape(s * s, 1), h).reshape(s, s)
    out = np.empty((m, p, s, cols, s), dtype=np.result_type(local, H))
    product = np.empty((s * m, p * cols), dtype=out.dtype)
    blocks = product.reshape(s, m, p, cols)
    for a in range(s):
        np.dot(letters[a], h, out=product)
        for b in range(s):
            out[:, :, a, :, b] = blocks[b]
    return out.reshape(m * p * s, cols * s)


def _chain(local: np.ndarray, s: int, head: np.ndarray, steps: int) -> list:
    """[head, U head, ...]: `local` applied at each of the next `steps` slots."""
    out = [head]
    for _ in range(steps):
        out.append(_apply_to_ampliated(local, out[-1], s))
    return out


def _propagate(heads, loc, s: int, y: np.ndarray, first_slot: int = 1) -> np.ndarray:
    """Y c from a block of columns y = Y_{first_slot - 1} c, one step per head
    vh of V: y + C y with C = V* (loc at the slot) V."""
    for k, vh in enumerate(heads, start=first_slot):
        out = _lmul(dag(vh), _apply_local(loc, _lmul(vh, y), s, k))
        out += y
        y = out
    return y


def _vacuum_columns(model: ToyFockModel) -> np.ndarray:
    """D x n block whose columns are e_u (x) omega^N."""
    out = np.zeros((model.D, model.n), dtype=complex)
    out[:: model.slot_dim ** model.N] = np.eye(model.n)
    return out


# --- dense simulation -------------------------------------------------------

def simulate_hp_unitary(model: ToyFockModel, G: BlockCoefficient) -> DiscreteProcess:
    """V_0 = I, V_{i+1} = step(G, slot i+1) V_i."""
    _check_coeff(model, G, "G")
    _check_process_memory(model, 2)  # tracemalloc peak: 0.5 beside the heads (n = 2, d = 1)
    s = model.slot_dim
    heads = _chain(step_local(G, model.h), s, np.eye(model.n, dtype=complex), model.N)
    return DiscreteProcess(model=model, heads=heads)


def simulate_perturbation(model: ToyFockModel, V: DiscreteProcess, F: BlockCoefficient) -> DiscreteProcess:
    """Y_0 = I, Y_{i+1} = Y_i + sum j_i(F^{mu nu}) Lambda^{mu nu}_{i+1} Y_i.

    V_i commutes with the slot-(i+1) increments, so the coupling is the
    sandwich V_i* (coupling_local(F) at slot i+1) V_i; each step works on
    the head space of slot i+1.
    """
    _check_process(model, V, "V")
    _check_coeff(model, F, "F")
    _check_process_memory(model, 2)  # tracemalloc peak: 1.25 beside the heads (n = 2, d = 1)
    s = model.slot_dim
    loc = coupling_local(F, model.h)
    heads = [np.eye(model.n, dtype=complex)]
    for vh in V.heads[:-1]:
        yh = heads[-1]
        nxt = _lmul(dag(vh), _apply_to_ampliated(loc, vh @ yh, s))
        _add_copies(nxt, yh)
        heads.append(nxt)
    return DiscreteProcess(model=model, heads=heads)


def multiplier_cocycle_check(
    model: ToyFockModel,
    V: DiscreteProcess,
    F: BlockCoefficient,
    split: int,
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
    _reserve_dense(model, 2)  # the last step holds two operators on C^D
    s, N = model.slot_dim, model.N
    heads = V.heads[:-1]
    loc = coupling_local(F, model.h)
    # the fresh one-step factor is the same local operator V was built from;
    # w_i = V_split (fresh flow over slots split+1..i) acts on the head space of slot i
    fresh = _chain(heads[1], s, np.eye(model.n * s ** split, dtype=complex), N - split - 1)
    fresh = [_lmul(heads[split], f) for f in fresh]
    y_split = _propagate(heads[:split], loc, s, _vacuum_columns(model))
    y = _propagate(heads[split:], loc, s, y_split, first_slot=split + 1)
    yhat = _propagate(fresh, loc, s, y_split, first_slot=split + 1)
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
# arithmetic and not by D = n(d+1)^N; the module docstring says when they
# reproduce the dense value.  They check (n, d, N, T) and every coefficient as
# the dense readings do.

def _letter_blocks(cols: np.ndarray, s: int) -> np.ndarray:
    """s x m x m: block a holds the rows of slot letter a of an (m s) x m block
    (of each block of a stack, on the trailing axes)."""
    m = cols.shape[-1]
    return cols.reshape(cols.shape[:-2] + (m, s, m)).swapaxes(-3, -2)


def _ladder_power(mats: np.ndarray, ladder) -> np.ndarray:
    """mats[r] to the power ladder[r], for a strictly increasing ladder, in one pass.

    Each rung multiplies in the order of np.linalg.matrix_power, bit for bit:
    z runs through the squares a, a^2, a^4, ... and is multiplied into the
    result at each set bit of N, from the least significant up, with numpy's
    shortcut (a a) a for N = 3.  The squares are stacked products over the
    rungs whose N has bits left, a suffix of the ladder.
    """
    ladder = [int(N) for N in ladder]
    out = np.empty(mats.shape, dtype=mats.dtype)
    z, first = mats, 0
    for k in range(ladder[-1].bit_length()):
        start = first
        while not ladder[first] >> k:
            first += 1
        if k:
            z = z[first - start :] @ z[first - start :]
        for r in range(first, len(ladder)):
            if ladder[r] >> k & 1:
                if not ladder[r] & ((1 << k) - 1):
                    out[r] = z[r - first]
                elif ladder[r] == 3:
                    out[r] = z[r - first] @ out[r]
                else:
                    out[r] = out[r] @ z[r - first]
    return out


def _transfer_ladder(d1: np.ndarray, d2: np.ndarray, s: int, ladder, x: np.ndarray) -> np.ndarray:
    """T_r^N(x) for each rung r of the ladder: T_r(x) = <omega| d1[r]* (x (x) I_s) d2[r] |omega>.

    T_r(x) = sum_a A_a* x B_a, where A_a and B_a are the blocks of slot letter
    a of the slot-vacuum columns of d1[r] and d2[r]; the m^2 x m^2 matrices of
    all rungs are built in one stacked product and powered in one pass.
    """
    A, B = (_letter_blocks(op[..., ::s], s) for op in (d1, d2))
    m = A.shape[-1]
    # row-major vec: vec(A* x B)[(j, l)] = sum conj(A[i, j]) x[i, k] B[k, l]
    mats = np.einsum("raij,rakl->rjlik", A.conj(), B).reshape(-1, m * m, m * m)
    vec = x.reshape(-1)
    out = _ladder_power(mats, ladder) @ vec
    if ladder[0] == 1:
        # the power N = 1 is the matrix itself, in einsum's column-major layout,
        # and BLAS sums a matrix-vector product in an order set by that layout
        out[0] = mats[0] @ vec
    return out.reshape(-1, m, m)


def _checked_ladder(n: int, d: int, ladder, T: float, named_coefficients: dict) -> tuple[list, list]:
    """(slot counts, step lengths T/N) of a ladder, checked as the dense readings are.

    Each (n, d, N, T) must make a ToyFockModel, the ladder must be nonempty
    and strictly increasing, and every coefficient must have (n, d).
    """
    models = [ToyFockModel(n=n, d=d, N=N, T=T) for N in ladder]
    if not models or any(b.N <= a.N for a, b in zip(models, models[1:])):
        raise ValueError(f"a ladder must be a nonempty, strictly increasing list of slot counts, got {ladder!r}")
    for name, F in named_coefficients.items():
        _check_coeff(models[0], F, name)
    return [m.N for m in models], [m.h for m in models]


def _drive(G: BlockCoefficient | None, F: BlockCoefficient) -> BlockCoefficient:
    """G, or for G = None the zero coefficient of F's shape: the trivial flow."""
    return BlockCoefficient.from_full(np.zeros_like(F.as_full()), F.n) if G is None else G


def _words(hs: list, *words: tuple) -> list:
    """Each slot word's Euler steps multiplied left to right, at each h of hs; a shared letter is stepped once."""
    steps = {F: _steps(F, hs) for F in dict.fromkeys(F for word in words for F in word)}
    return [functools.reduce(np.matmul, [steps[F] for F in word]) for word in words]


def _channel_ladder(n: int, d: int, ladder, T: float, named: dict, left: tuple, right: tuple, x) -> np.ndarray:
    """T^N(x) at each N of a strictly increasing ladder, as a (k, n, n) stack, for T(x) =
    <omega| L* (x (x) I) R |omega>, L and R the slot words left and right at h = T/N: the one
    checked entry of the transfer readings, which checks its inputs and reserves its memory first."""
    ladder, hs = _checked_ladder(n, d, ladder, T, named)
    x = as_complex(x)
    if x.shape != (n, n):
        raise DimensionMismatchError(f"observable must be {n} x {n}")
    s = d + 1
    # a chunk's transfer matrices and slot words, whichever are larger
    passes = chunks(len(ladder), max(n ** 4, (n * s) ** 2))
    reserve(passes[0].stop * _TRANSFER_STACKS * max(1.0, (s / n) ** 2), n * n)
    out = np.empty((len(ladder), n, n), dtype=complex)
    for rungs in passes:
        out[rungs] = _transfer_ladder(*_words(hs[rungs], left, right), s, ladder[rungs], x)
    return out


def hp_vacuum_ladder(n: int, d: int, ladder, T: float, G: BlockCoefficient) -> np.ndarray:
    """hp_vacuum_compression at each N of a strictly increasing ladder, as a (k, n, n) stack:
    the N-th powers of <omega|step|omega> = I + h K at h = T/N, formed alone, in one powering pass."""
    ladder, hs = _checked_ladder(n, d, ladder, T, {"G": G})
    out = np.empty((len(ladder), n, n), dtype=complex)
    for rungs in chunks(len(ladder), n ** 2):
        out[rungs] = _ladder_power(np.eye(n) + np.multiply.outer(hs[rungs], G.K), ladder[rungs])
    return out


def hp_vacuum_compression(n: int, d: int, N: int, T: float, G: BlockCoefficient) -> np.ndarray:
    """<vac| V_N |vac> without materializing C^D: the N-th power of <omega|step|omega>."""
    return hp_vacuum_ladder(n, d, [N], T, G)[0]


def cocycle_vacuum_corner(
    n: int, d: int, N: int, T: float,
    G: BlockCoefficient | None, F: BlockCoefficient,
) -> np.ndarray:
    """<vac| Y_N |vac> for the perturbation Y of the flow driven by G (None or zero = trivial).

    G must be unitary-type, q(G) = 0 and q(G*) = 0 (see the module docstring).
    """
    G = _drive(G, F)
    return _channel_ladder(n, d, [N], T, {"F": F, "G": G}, (G,), (G, F), np.eye(n, dtype=complex))[0]


def fk_expectation_ladder(
    n: int, d: int, ladder, T: float,
    G: BlockCoefficient | None,
    F1: BlockCoefficient, F2: BlockCoefficient,
    a: np.ndarray,
) -> np.ndarray:
    """fk_expectation_channel at each N of a strictly increasing ladder, as a (k, n, n)
    stack: the transfer reading of the words (G, F1) and (G, F2), built for every rung
    in one stacked pass and powered in one pass."""
    G = _drive(G, F1)
    return _channel_ladder(n, d, ladder, T, {"F1": F1, "F2": F2, "G": G}, (G, F1), (G, F2), a)


def fk_expectation_channel(
    n: int, d: int, N: int, T: float,
    G: BlockCoefficient | None,
    F1: BlockCoefficient, F2: BlockCoefficient,
    a: np.ndarray,
) -> np.ndarray:
    """vacuum_expect(Y1* j_N(a) Y2) via an iterated map on M_n.

    In the interaction picture X_i = V_i Y_i the recursion is a product of
    per-slot factors U C, so the compression is T^N(a) with
    T(x) = <omega| (U C1)* (x (x) I) (U C2) |omega>.  G must be unitary-type,
    q(G) = 0 and q(G*) = 0 (see the module docstring).
    """
    return fk_expectation_ladder(n, d, [N], T, G, F1, F2, a)[0]


def isometry_defect_channel(n: int, d: int, N: int, T: float, F: BlockCoefficient) -> float:
    """|| vacuum_expect(Y_N* Y_N) - I || for a trivial-flow perturbation: the fk
    reading with F1 = F2 = F, no drive and a = I, as `qfk simulate` reads the isometry kind."""
    eye = np.eye(n)
    return float(norm2_stack(fk_expectation_ladder(n, d, [N], T, None, F, F, eye) - eye)[0])


def _apply_to_vacuum(local: np.ndarray, y: np.ndarray, s: int) -> np.ndarray:
    """(local at (initial, next slot)) (y (x) omega): the columns of new letter 0 of
    `_apply_to_ampliated`, from the vacuum-letter columns of local alone.

    out[(i, p, a), c] = sum_j local[(i, a), (j, 0)] y[(j, p), c], one product and
    one transposing copy.
    """
    m = local.shape[0] // s
    p, cols = y.shape[0] // m, y.shape[1]
    out = local[:, ::s] @ y.reshape(m, p * cols)
    return out.reshape(m, s, p, cols).transpose(0, 2, 1, 3).reshape(m * p * s, cols)


def _staged_residual(
    corner: np.ndarray, u_loc: np.ndarray, uc: np.ndarray, loc: np.ndarray, s: int, N: int, split: int
) -> float:
    """One rung of `multiplier_cocycle_ladder`: ||corner - <vac| Yhat_tail Y_split |vac>||,
    from the Euler steps u_loc of G and uc of (G, F) and the coupling loc of F."""
    n = corner.shape[0]
    eye = np.eye(n, dtype=complex)
    # V_split on C^n (x) slots 1..split, and the n vacuum columns of X_split
    vs, xcols = eye, eye
    for _ in range(split):
        vs = _apply_to_ampliated(u_loc, vs, s)
        xcols = _apply_to_vacuum(uc, xcols, s)
    head_dim = vs.shape[0]
    # the vacuum-letter columns of chat = I + V_split* (loc at slot split+1) V_split,
    # the step factor of the coefficients conjugated by V_split, coupled to the next slot
    chat = _lmul(dag(vs), _apply_to_vacuum(loc, vs, s))
    np.einsum("ii->i", chat[::s])[...] += 1
    # per-step map x -> sum_a (A_a (x) I) x B_a with the flow acting on (initial, new
    # slot): A_a = u_{a0}* on the initial leg, B_a = <a| u chat |omega>, read off as
    # [B_0 | ... | B_{s-1}] and [A_0 | ... | A_{s-1}] with its columns in (row, letter)
    # order, so that a step is two plain products; A_a keeps the vacuum rows of x among
    # themselves, and the residual reads nothing else
    bcat = _apply_local(u_loc, chat, s, split + 1).reshape(head_dim, s * head_dim)
    acat = dag(u_loc[:, ::s])
    rows = np.zeros((n, head_dim), dtype=complex)
    rows[:, :: s ** split] = eye  # the vacuum rows e_u (x) omega^split
    for _ in range(N - split):
        rows = acat @ (rows @ bcat).reshape(n * s, head_dim)
    diff = corner - rows @ (dag(vs) @ xcols)
    return norm2(diff) if np.isfinite(diff).all() else math.inf  # an overflow, with no SVD of it


def multiplier_cocycle_ladder(
    n: int, d: int, ladder, T: float,
    G: BlockCoefficient | None, F: BlockCoefficient,
    splits,
) -> np.ndarray:
    """multiplier_cocycle_residual at each N of a strictly increasing ladder, split at
    splits[r] at rung r, as a float array.

    The ladder, its splits and the coefficients are checked, and the head space of the
    largest split reserved, before any rung runs.  The corners of all rungs are one
    transfer reading, and the Euler steps one stacked pass per chunk of rungs, each rung
    bit for bit its one-rung call.  A rung then forms only what its residual reads:
    V_split, the n vacuum columns of X_split and the vacuum-letter columns of chat.
    """
    G = _drive(G, F)
    named = {"F": F, "G": G}
    ladder, hs = _checked_ladder(n, d, ladder, T, named)
    splits = list(splits)
    if len(splits) != len(ladder):
        raise ValueError(f"need one split per rung, got {len(splits)} for {len(ladder)} rungs")
    for N, split in zip(ladder, splits):
        if not (1 <= split <= N - 1):
            raise ValueError(f"split must lie in 1..{N - 1}")
    s = d + 1
    # tracemalloc peak of a rung in operators on head (x) slot: 1.75 at s = 2 and 1.11 at
    # s = 3 on large heads, up to 2.8 on heads of 8 to 16 rows, where small arrays weigh
    # more (smaller still, the transfer reading, which reserves its own, dominates); past
    # s^64 a lower bound is refused, formed without s^split
    reserve(5, n * s ** min(max(splits) + 1, 64))
    corners = _channel_ladder(n, d, ladder, T, named, (G,), (G, F), np.eye(n, dtype=complex))
    out = np.empty(len(ladder))
    for rungs in chunks(len(ladder), (n * s) ** 2):
        steps = zip(range(len(ladder))[rungs], *_words(hs[rungs], (G,), (G, F)), _couplings(F, hs[rungs]))
        for r, u_loc, uc, loc in steps:
            out[r] = _staged_residual(corners[r], u_loc, uc, loc, s, ladder[r], splits[r])
    return out


def multiplier_cocycle_residual(
    n: int, d: int, N: int, T: float,
    G: BlockCoefficient | None, F: BlockCoefficient,
    split: int,
) -> float:
    """The multiplier-cocycle residual by staged contraction: the one-rung
    `multiplier_cocycle_ladder`.

    Slots > split are compressed through a transfer map acting on operators
    over C^n (x) slots_{1..split}, so memory scales with n (d+1)^split rather
    than n (d+1)^N; a head space over `linalg.DEFAULT_MEMORY_CAP` raises
    MemoryCapExceededError.  The map touches the rows of an operator only
    through their initial leg, so it keeps the n vacuum rows among
    themselves, and the residual reads nothing else: the tail evolves those
    n rows alone, at O(N n head_dim^2) with head_dim = n (d+1)^split.
    Coincides with `multiplier_cocycle_check` exactly for a trivial flow; for
    a nontrivial flow it measures the same identity in the interaction-picture
    reading (see the module docstring), which needs a unitary-type G,
    q(G) = 0 and q(G*) = 0.
    """
    return float(multiplier_cocycle_ladder(n, d, [N], T, G, F, [split])[0])


def ladder_verdict(errors) -> dict:
    """Trend verdict for an error ladder over increasing N.

    Passes when errors strictly decrease and the final error is at most
    max(_VERDICT_RATIO * initial, _VERDICT_ABS_CAP) -- the weaker of the two
    caps.  An error at or below ROUNDING_FLOOR is zero to rounding and counts
    as converged whatever its predecessor.
    """
    errors = [float(e) for e in errors]
    monotone = all(b < a or b <= ROUNDING_FLOOR for a, b in zip(errors, errors[1:]))
    final = errors[-1] if errors else float("nan")
    bound = max(_VERDICT_RATIO * errors[0], _VERDICT_ABS_CAP) if errors else float("nan")
    return {
        "errors": errors,
        "monotone": monotone,
        "final_error": final,
        "passed": bool(monotone and final <= bound),
    }
