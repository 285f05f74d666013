"""D x D reference implementations of the toy-Fock simulators and readings,
the slot coupling as a sum of Kronecker products, a local factor applied
to an ampliated head by forming the ampliation, and the transfer-map power
of one slot count by np.linalg.matrix_power.

Every step here multiplies embedded D x D operators (`embed_two_site`,
Kronecker amplifications), at O(N D^3) cost.  A process is a plain list of
its N + 1 operators on C^D, so the reference does not depend on how the
library stores one.  The library evaluates the same recursions by local
applies on head spaces and by column propagation; the tests compare the
two.  Keep D <= 512.

`tensordot_step` and `broadcast_add_copies` are the head step and the
diagonal-block add in the form the library used before it wrote each
slot-letter product into place; they stay as its bit-for-bit oracle.
"""

import numpy as np

from qfk.coefficients import BlockCoefficient
from qfk.linalg import DimensionMismatchError, as_complex, dag, norm2
from qfk.toy_fock import (
    ToyFockModel,
    _apply_local,
    _copies,
    cocycle_vacuum_corner,
    coupling_local,
    embed_two_site,
    step_local,
)


def vacuum_expect(model: ToyFockModel, X: np.ndarray) -> np.ndarray:
    """The n x n compression <u (x) omega^N, X (v (x) omega^N)>."""
    X = as_complex(X)
    if X.shape != (model.D, model.D):
        raise DimensionMismatchError(f"operator must live on C^{model.D}")
    stride = model.slot_dim ** model.N
    return np.ascontiguousarray(X[::stride, ::stride])


def transfer_power(d1: np.ndarray, d2: np.ndarray, s: int, N: int, x: np.ndarray) -> np.ndarray:
    """T^N(x) for T(x) = <omega| d1* (x (x) I_s) d2 |omega>, one N at a time:
    np.linalg.matrix_power of the n^2 x n^2 transfer matrix."""
    m = d1.shape[0] // s
    A, B = (op[:, ::s].reshape(m, s, m).transpose(1, 0, 2) for op in (d1, d2))
    mat = np.einsum("aij,akl->jlik", A.conj(), B).reshape(m * m, m * m)
    return (np.linalg.matrix_power(mat, N) @ x.reshape(-1)).reshape(m, m)


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


def coupling_kron_sum(F: BlockCoefficient, h: float) -> np.ndarray:
    """sum_{mu nu} F^{mu nu} (x) Lambda^{mu nu}, one Kronecker product per block."""
    s = F.d + 1
    out = np.zeros((F.n * s, F.n * s), dtype=complex)
    for (mu, nu), blk in coefficient_blocks(F).items():
        out += np.kron(blk, increment_local(F.d, h, mu, nu))
    return out


def apply_to_ampliated(local: np.ndarray, H: np.ndarray, s: int) -> np.ndarray:
    """(local at (initial, next slot)) (H (x) I_s), forming H (x) I_s first.

    local is (m s) x (m s) and H has m s^k rows; the local factor acts on
    the initial leg and slot k + 1.
    """
    p = H.shape[0] // (local.shape[0] // s)
    slot = 1
    while s ** (slot - 1) < p:
        slot += 1
    return _apply_local(local, np.kron(H, np.eye(s)), s, slot)


def tensordot_step(local: np.ndarray, H: np.ndarray, s: int) -> np.ndarray:
    """(local at (initial, next slot)) (H (x) I_s) as one tensordot of all
    m s^2 rows of local against H, gathered into place by a transpose."""
    m = local.shape[0] // s
    p, cols = H.shape[0] // m, H.shape[1]
    out = np.tensordot(local.reshape(m, s, m, s), H.reshape(m, p, cols), axes=(2, 0))
    return out.transpose(0, 3, 1, 4, 2).reshape(m * p * s, cols * s)


def broadcast_add_copies(X: np.ndarray, head: np.ndarray) -> None:
    """X += head (x) I as one broadcast over the copies."""
    _copies(X, X.shape[0] // head.shape[0])[...] += head[:, :, None]


def simulate_hp_unitary(model: ToyFockModel, G) -> list:
    loc = step_local(G, model.h)
    ops = [np.eye(model.D, dtype=complex)]
    for k in range(1, model.N + 1):
        ops.append(embed_two_site(model, loc, k) @ ops[-1])
    return ops


def simulate_flow(model: ToyFockModel, V: list, a) -> list:
    amp = np.kron(as_complex(a), np.eye(model.slot_dim ** model.N))
    return [dag(v) @ amp @ v for v in V]


def simulate_perturbation(model: ToyFockModel, V: list, F) -> list:
    loc = coupling_local(F, model.h)
    ops = [np.eye(model.D, dtype=complex)]
    for i in range(model.N):
        vi = V[i]
        ops.append(ops[-1] + dag(vi) @ embed_two_site(model, loc, i + 1) @ vi @ ops[-1])
    return ops


def fk_expectation_estimate(model: ToyFockModel, V: list, F1, F2, a) -> np.ndarray:
    y1 = simulate_perturbation(model, V, F1)[-1]
    y2 = simulate_perturbation(model, V, F2)[-1]
    vn = V[-1]
    amp = np.kron(as_complex(a), np.eye(model.slot_dim ** model.N))
    return vacuum_expect(model, dag(y1) @ dag(vn) @ amp @ vn @ y2)


def multiplier_cocycle_check(model: ToyFockModel, V: list, F, split: int) -> float:
    s = model.slot_dim
    Y = simulate_perturbation(model, V, F)
    vs = V[split]
    loc = coupling_local(F, model.h)
    u_loc = np.ascontiguousarray(V[1][:: s ** (model.N - 1), :: s ** (model.N - 1)])
    yhat = np.eye(model.D, dtype=complex)
    vfresh = np.eye(model.D, dtype=complex)
    for i in range(split, model.N):
        w = vs @ vfresh
        yhat = yhat + dag(w) @ embed_two_site(model, loc, i + 1) @ w @ yhat
        vfresh = embed_two_site(model, u_loc, i + 1) @ vfresh
    lhs = vacuum_expect(model, Y[-1])
    rhs = vacuum_expect(model, yhat @ Y[split])
    return norm2(lhs - rhs)


def stochastic_derivative_estimate(model: ToyFockModel, Y: list, t=None) -> np.ndarray:
    n, d, s, D = model.n, model.d, model.slot_dim, model.D
    t = model.T if t is None else t
    stride = s ** model.N
    evac = np.zeros((D, n), dtype=complex)
    for u in range(n):
        evac[u * stride, u] = 1.0
    vdisc = np.zeros((D, d * n), dtype=complex)
    ampl = np.sqrt(model.h / t)
    for c in range(d):
        for u in range(n):
            for k in range(1, model.N + 1):
                vdisc[u * stride + (c + 1) * s ** (model.N - k), c * n + u] = ampl
    r = Y[-1] - np.eye(D)
    out = np.zeros(((d + 1) * n, (d + 1) * n), dtype=complex)
    out[:n, :n] = dag(evac) @ r @ evac / t
    out[:n, n:] = dag(evac) @ r @ vdisc / np.sqrt(t)
    out[n:, :n] = dag(vdisc) @ r @ evac / np.sqrt(t)
    out[n:, n:] = dag(vdisc) @ r @ vdisc
    return out


def multiplier_cocycle_residual(n: int, d: int, N: int, T: float, G, F, split: int) -> float:
    """The staged residual with its head chains and tail map as embedded products."""
    s, h = d + 1, T / N
    u_loc = np.eye(n * s, dtype=complex) if G is None else step_local(G, h)
    uc = u_loc @ step_local(F, h)
    head = ToyFockModel(n=n, d=d, N=split, T=T)        # C^n (x) slots 1..split
    ext = ToyFockModel(n=n, d=d, N=split + 1, T=T)     # ... (x) slot split+1
    vs = xs = np.eye(head.D, dtype=complex)
    for k in range(1, split + 1):
        vs = embed_two_site(head, u_loc, k) @ vs
        xs = embed_two_site(head, uc, k) @ xs
    vs_slot = np.kron(vs, np.eye(s))
    coupling = dag(vs_slot) @ embed_two_site(ext, coupling_local(F, h), split + 1) @ vs_slot
    chat = np.eye(ext.D) + coupling
    m1 = embed_two_site(ext, u_loc, split + 1)
    A, B = (op[:, ::s].reshape(head.D, s, head.D).transpose(1, 0, 2) for op in (m1, m1 @ chat))
    acc = np.eye(head.D, dtype=complex)
    for _ in range(N - split):
        acc = sum(dag(a) @ acc @ b for a, b in zip(A, B))
    total = acc @ dag(vs) @ xs
    corner = cocycle_vacuum_corner(n, d, N, T, G, F)
    return norm2(corner - total[:: s ** split, :: s ** split])
