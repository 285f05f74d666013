import contextlib
import io
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_reference as ref
from dense_reference import coefficient_blocks, coupling_kron_sum, increment_local, increment_scale, vacuum_expect
import qfk.cli
import qfk.linalg as linalg
import qfk.toy_fock as toy_fock
from qfk.coefficients import BlockCoefficient, delta_perp, delta_projection, q_form, transform_prime
from qfk.flows import FlowGenerator, trivial_flow
from qfk.linalg import DimensionMismatchError, MemoryCapExceededError, dag, expm, norm2, norm2_stack
from qfk.perturbations import (
    PerturbationSpec,
    Superoperator,
    phi_perturbed,
    semigroup_at,
    vacuum_generator,
)
from qfk.toy_fock import (
    DiscreteProcess,
    _apply_local,
    _apply_to_ampliated,
    ToyFockModel,
    cocycle_vacuum_corner,
    coupling_local,
    embed_at_slot,
    embed_two_site,
    fk_expectation_channel,
    hp_vacuum_compression,
    isometry_defect_channel,
    ladder_verdict,
    multiplier_cocycle_check,
    multiplier_cocycle_residual,
    simulate_hp_unitary,
    simulate_perturbation,
    step_local,
    stochastic_derivative_estimate,
)

from conftest import (
    complex_randn,
    damping_coefficient,
    inner_coefficient,
    random_coefficient,
    random_hermitian,
    traced_peak,
    weyl_coefficient,
    zero_coefficient,
)


def vacuum_columns(model: ToyFockModel) -> np.ndarray:
    """D x n matrix whose columns are e_u (x) omega^N."""
    stride = model.slot_dim ** model.N
    out = np.zeros((model.D, model.n), dtype=complex)
    for u in range(model.n):
        out[u * stride, u] = 1.0
    return out


def vacuum_projection(model: ToyFockModel) -> np.ndarray:
    e = vacuum_columns(model)
    return e @ dag(e)


def slot_loop(d1: np.ndarray, d2: np.ndarray, s: int, N: int, x: np.ndarray) -> np.ndarray:
    """Reference transfer iteration: x -> <omega| d1* (x (x) I_s) d2 |omega>, N times."""
    for _ in range(N):
        x = (dag(d1) @ np.kron(x, np.eye(s)) @ d2)[::s, ::s]
    return x


def reference_coupling(model: ToyFockModel, vi: np.ndarray, F: BlockCoefficient, slot: int) -> np.ndarray:
    """sum_{mu nu} vi* (F^{mu nu} (x) I) vi Lambda^{mu nu}_slot, one (mu, nu) pair at a time."""
    fock_eye = np.eye(model.slot_dim ** model.N)
    out = np.zeros((model.D, model.D), dtype=complex)
    for (mu, nu), blk in coefficient_blocks(F).items():
        inc = embed_at_slot(model, increment_local(model.d, model.h, mu, nu), slot)
        out += (dag(vi) @ np.kron(blk, fock_eye) @ vi) @ inc
    return out


# --- model and local building blocks ------------------------------------------

def test_model_properties():
    model = ToyFockModel(n=2, d=1, N=3, T=0.75)
    assert model.h == pytest.approx(0.25)
    assert model.slot_dim == 2 and model.D == 16


def test_model_validation():
    with pytest.raises(DimensionMismatchError):
        ToyFockModel(n=0, d=1, N=1, T=1.0)
    with pytest.raises(ValueError):
        ToyFockModel(n=1, d=1, N=1, T=0.0)
    for T in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            ToyFockModel(n=1, d=1, N=1, T=T)
    for sizes in ({"n": 2.0}, {"d": 1.0}, {"N": 2.5}, {"N": True}, {"n": np.bool_(True)}, {"N": "4"}):
        with pytest.raises(DimensionMismatchError):
            ToyFockModel(**{"n": 1, "d": 1, "N": 1, "T": 1.0, **sizes})
    model = ToyFockModel(n=np.int64(2), d=np.int32(1), N=np.int64(3), T=0.75)
    assert model.D == 16


def test_memory_cap(monkeypatch):
    # one cap for the dense simulators and the channel readers, read when called:
    # a model built before the cap changes keeps no cap of its own
    model = ToyFockModel(n=2, d=1, N=3, T=1.0)
    G = zero_coefficient(2, 1)
    monkeypatch.setattr(linalg, "DEFAULT_MEMORY_CAP", 1000)
    with pytest.raises(MemoryCapExceededError):
        linalg.reserve(1, model.D)
    with pytest.raises(MemoryCapExceededError):
        simulate_hp_unitary(model, G)
    with pytest.raises(MemoryCapExceededError):
        multiplier_cocycle_residual(2, 1, 3, 1.0, G, G, 1)


def test_memory_cap_counts_heads_not_dense_outputs(monkeypatch):
    # the heads of a process fill at most s^2 / (s^2 - 1) = 4/3 operators on
    # C^D here; a cap of 5 admits them and the last step's temporaries, where
    # N + 1 dense outputs would need 7, and a cap of 3 does not
    monkeypatch.setattr(linalg, "DEFAULT_MEMORY_CAP", 5 * 128 ** 2 * 16)
    model = ToyFockModel(n=2, d=1, N=6, T=0.6)
    rng = np.random.default_rng(102)
    V = simulate_hp_unitary(model, inner_coefficient(rng, 2, 1))
    assert len(V.ops) == model.N + 1
    F = random_coefficient(rng, 2, 1, scale=0.5)
    simulate_perturbation(model, V, F)
    monkeypatch.setattr(linalg, "DEFAULT_MEMORY_CAP", 3 * 128 ** 2 * 16)
    with pytest.raises(MemoryCapExceededError):
        simulate_perturbation(model, V, F)


def test_memory_cap_covers_measured_peaks(monkeypatch):
    # a cap one byte below what a call allocates must stop it beforehand
    rng = np.random.default_rng(103)
    model = ToyFockModel(n=2, d=1, N=6, T=0.6)
    G = inner_coefficient(rng, 2, 1)
    F = random_coefficient(rng, 2, 1, scale=0.5)
    V = simulate_hp_unitary(model, G)
    calls = [
        lambda: simulate_hp_unitary(model, G),
        lambda: simulate_perturbation(model, V, F),
        lambda: multiplier_cocycle_check(model, V, F, 2),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with monkeypatch.context() as m:
            m.setattr(linalg, "DEFAULT_MEMORY_CAP", peak - 1)
            with pytest.raises(MemoryCapExceededError):
                call()


def test_staged_residual_cap_covers_measured_peak(monkeypatch):
    # a default cap one byte below what the staged residual allocates must stop it beforehand
    rng = np.random.default_rng(105)
    F = random_coefficient(rng, 2, 1, scale=0.5)
    G = inner_coefficient(rng, 2, 1)
    call = lambda: multiplier_cocycle_residual(2, 1, 12, 1.0, G, F, 6)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(linalg, "DEFAULT_MEMORY_CAP", peak - 1)
    with pytest.raises(MemoryCapExceededError):
        call()


@pytest.mark.parametrize("split", [64, 1 << 28])
def test_staged_residual_refuses_a_long_head_before_forming_its_size(split):
    # the head space n s^split is refused by a lower bound, without its 2^28-bit integer
    F = random_coefficient(np.random.default_rng(107), 2, 1)
    start = time.perf_counter()
    with pytest.raises(MemoryCapExceededError, match="dense operators on C\\^D, D >= 2\\^65, need inf bytes"):
        multiplier_cocycle_residual(2, 1, 1 << 29, 1.0, None, F, split)
    assert time.perf_counter() - start < 0.5


def test_dense_simulator_refuses_a_huge_N_before_forming_D():
    # D = 2^(2^27 + 1) is refused by its lower bound n s^64, without its 2^27-bit integer
    model = ToyFockModel(n=2, d=1, N=1 << 27, T=1.0)
    start = time.perf_counter()
    with pytest.raises(MemoryCapExceededError, match="dense operators on C\\^D, D >= 2\\^65, need inf bytes"):
        simulate_hp_unitary(model, zero_coefficient(2, 1))
    assert time.perf_counter() - start < 0.1


def test_discrete_process_shape_check():
    model = ToyFockModel(n=1, d=1, N=2, T=1.0)
    with pytest.raises(DimensionMismatchError):
        DiscreteProcess(model=model, heads=[np.eye(3)])


@pytest.mark.parametrize(
    "spoil",
    [
        lambda heads, ops: heads[:-1],
        lambda heads, ops: heads[:2] + [heads[3]] + heads[3:],
        lambda heads, ops: heads[:1] + [ops[1]] + heads[2:],
    ],
    ids=["one head missing", "head of a later slot", "D x D operator as head"],
)
def test_process_heads_off_their_form_are_rejected(spoil):
    rng = np.random.default_rng(99)
    model = ToyFockModel(n=2, d=1, N=4, T=0.6)
    V = simulate_hp_unitary(model, inner_coefficient(rng, 2, 1))
    with pytest.raises(DimensionMismatchError):
        DiscreteProcess(model=model, heads=spoil(list(V.heads), V.ops))


@pytest.mark.parametrize(
    "reading",
    [
        lambda model, V, F: simulate_perturbation(model, V, F),
        lambda model, V, F: multiplier_cocycle_check(model, V, F, 2),
        lambda model, V, F: stochastic_derivative_estimate(model, V),
    ],
    ids=["simulate_perturbation", "multiplier_cocycle_check", "stochastic_derivative_estimate"],
)
def test_process_from_another_model_is_rejected(reading):
    rng = np.random.default_rng(101)
    G, F = inner_coefficient(rng, 2, 1), random_coefficient(rng, 2, 1)
    V = simulate_hp_unitary(ToyFockModel(n=2, d=1, N=5, T=0.6), G)
    with pytest.raises(DimensionMismatchError, match="simulated with"):
        reading(ToyFockModel(n=2, d=1, N=4, T=0.6), V, F)


def test_process_ops_read_the_heads():
    rng = np.random.default_rng(100)
    model = ToyFockModel(n=2, d=1, N=5, T=0.6)
    V = simulate_hp_unitary(model, inner_coefficient(rng, 2, 1))
    assert len(V.ops) == model.N + 1
    assert V.ops[-1] is V.heads[-1]
    for i, (op, head) in enumerate(zip(V.ops, V.heads)):
        assert np.array_equal(op, np.kron(head, np.eye(2 ** (model.N - i))))
    with pytest.raises(TypeError):
        V.ops[0] = V.ops[0]


def test_increment_scale_values():
    h = 0.25
    assert increment_scale(h, 0, 0) == pytest.approx(0.25)
    assert increment_scale(h, 0, 1) == pytest.approx(0.5)
    assert increment_scale(h, 1, 0) == pytest.approx(0.5)
    assert increment_scale(h, 1, 1) == pytest.approx(1.0)


def test_increment_local_examples():
    inc = increment_local(1, 0.25, 0, 0)
    assert np.allclose(inc, np.array([[0.25, 0.0], [0.0, 0.0]]))
    for h in (0.1, 0.5):  # gauge entries carry no h scaling
        assert increment_local(2, h, 2, 1)[2, 1] == pytest.approx(1.0)
    for mu in range(2):
        for nu in range(2):
            assert np.allclose(
                dag(increment_local(1, 0.3, mu, nu)), increment_local(1, 0.3, nu, mu)
            )
    with pytest.raises(DimensionMismatchError):
        increment_local(1, 0.25, 2, 0)


def test_coefficient_blocks_match_full():
    rng = np.random.default_rng(70)
    F = random_coefficient(rng, 2, 2)
    full = F.as_full()
    blocks = coefficient_blocks(F)
    for mu in range(3):
        for nu in range(3):
            assert np.array_equal(
                blocks[(mu, nu)], full[mu * 2 : (mu + 1) * 2, nu * 2 : (nu + 1) * 2]
            )


def test_coupling_local_scalar_case():
    k, l, m, w = 0.3 - 0.1j, 0.5j, -0.2, 0.8
    F = BlockCoefficient(K=[[k]], L=[[l]], M=[[m]], W=[[w]])
    h = 0.25
    expected = np.array([[k * h, m * np.sqrt(h)], [l * np.sqrt(h), w - 1.0]])
    assert np.allclose(coupling_local(F, h), expected)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    d=st.integers(1, 3),
    h=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_coupling_local_equals_kron_sum_bit_for_bit(n, d, h, seed):
    F = random_coefficient(np.random.default_rng(seed), n, d)
    assert np.array_equal(coupling_local(F, h), coupling_kron_sum(F, h))


def test_step_local_is_identity_plus_coupling():
    rng = np.random.default_rng(71)
    F = random_coefficient(rng, 1, 1)
    assert np.allclose(step_local(F, 0.1), np.eye(2) + coupling_local(F, 0.1))


def ito_product_h(G: BlockCoefficient, F: BlockCoefficient, h: float) -> BlockCoefficient:
    """G (+)_h F = G + F + G (Delta + h Delta_perp) F on the full matrices: the
    Ito product with h in the time-time entry of the Ito table."""
    n, g, f = G.n, G.as_full(), F.as_full()
    return BlockCoefficient.from_full(g + f + g @ (delta_projection(n, G.d) + h * delta_perp(n, G.d)) @ f, n)


SLOT_LEG = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), d=st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(**SLOT_LEG, h=st.floats(1e-6, 1.0))
def test_euler_steps_multiply_as_the_discrete_ito_product(seed, n, d, h):
    # the algebra of slot words: a product of Euler steps is one Euler step
    rng = np.random.default_rng(seed)
    G, F = random_coefficient(rng, n, d), random_coefficient(rng, n, d)
    scale = (1.0 + norm2(G.as_full())) * (1.0 + norm2(F.as_full()))
    product = step_local(G, h) @ step_local(F, h)
    want = step_local(ito_product_h(G, F, h), h)
    assert norm2(product - want) <= 1e-13 * scale
    if n * d >= 2:
        # planted: the reversed order misses by O(1) (commuting gauge blocks at
        # n d = 1 leave only O(sqrt h))
        assert norm2(step_local(F, h) @ step_local(G, h) - want) >= 1e-3 * scale


@settings(max_examples=100, deadline=None)
@given(**SLOT_LEG, h=st.floats(0.1, 1.0))
def test_euler_steps_miss_the_ito_product_without_the_time_entry(seed, n, d, h):
    # planted: (+) in place of (+)_h drops h G Delta_perp F, whose time-time
    # block h^2 K_G K_F the miss contains
    rng = np.random.default_rng(seed)
    G, F = random_coefficient(rng, n, d), random_coefficient(rng, n, d)
    scale = (1.0 + norm2(G.as_full())) * (1.0 + norm2(F.as_full()))
    miss = norm2(step_local(G, h) @ step_local(F, h) - step_local(ito_product_h(G, F, 0.0), h))
    assert miss >= 0.99 * h ** 2 * norm2(G.K @ F.K) and miss > 1e-13 * scale


@settings(max_examples=100, deadline=None)
@given(**SLOT_LEG, h=st.floats(1e-6, 1.0))
def test_euler_step_gram_is_one_plus_the_discrete_q_form(seed, n, d, h):
    # step(F)* step(F) = I + coupling(q(F) + h F* Delta_perp F)
    F = random_coefficient(np.random.default_rng(seed), n, d)
    f = F.as_full()
    q_h = BlockCoefficient.from_full(q_form(F) + h * dag(f) @ delta_perp(n, d) @ f, n)
    step = step_local(F, h)
    want = np.eye(len(step)) + coupling_local(q_h, h)
    assert norm2(dag(step) @ step - want) <= 1e-13 * (1.0 + norm2(f)) ** 2


def test_embed_at_slot():
    model = ToyFockModel(n=2, d=1, N=2, T=1.0)
    rng = np.random.default_rng(72)
    local = complex_randn(rng, 2, 2)
    assert np.allclose(embed_at_slot(model, np.eye(2), 1), np.eye(model.D))
    assert np.allclose(embed_at_slot(model, local, 2), np.kron(np.eye(4), local))
    assert np.allclose(embed_at_slot(model, local, 1), np.kron(np.kron(np.eye(2), local), np.eye(2)))
    with pytest.raises(ValueError):
        embed_at_slot(model, local, 3)
    with pytest.raises(DimensionMismatchError):
        embed_at_slot(model, np.eye(3), 1)


def test_embed_two_site_product_form():
    model = ToyFockModel(n=2, d=1, N=2, T=1.0)
    rng = np.random.default_rng(73)
    a = complex_randn(rng, 2, 2)
    b = complex_randn(rng, 2, 2)
    for slot in (1, 2):
        lhs = embed_two_site(model, np.kron(a, b), slot)
        rhs = np.kron(a, np.eye(4)) @ embed_at_slot(model, b, slot)
        assert norm2(lhs - rhs) <= 1e-13 * (1.0 + norm2(a) * norm2(b))
    with pytest.raises(DimensionMismatchError):
        embed_two_site(model, np.eye(3), 1)


@pytest.mark.parametrize("slot", [0, 3, -1])
def test_embeddings_refuse_a_slot_outside_the_model(slot):
    model = ToyFockModel(n=2, d=1, N=2, T=1.0)
    with pytest.raises(ValueError, match=r"slot must lie in 1\.\.2"):
        embed_two_site(model, np.eye(4), slot)
    with pytest.raises(ValueError, match=r"slot must lie in 1\.\.2"):
        embed_at_slot(model, np.eye(2), slot)


def test_embed_two_site_matches_blockwise_krons():
    model = ToyFockModel(n=2, d=2, N=3, T=1.0)
    rng = np.random.default_rng(91)
    local = complex_randn(rng, 6, 6)
    s = model.slot_dim
    for slot in (1, 2, 3):
        expected = np.zeros((model.D, model.D), dtype=complex)
        for a in range(s):
            for b in range(s):
                unit = np.zeros((s, s))
                unit[a, b] = 1.0
                expected += np.kron(
                    np.kron(np.kron(local[a::s, b::s], np.eye(s ** (slot - 1))), unit),
                    np.eye(s ** (model.N - slot)),
                )
        assert np.array_equal(embed_two_site(model, local, slot), expected)


# --- local applies ------------------------------------------------------------

@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_apply_local_matches_embedding(n, d):
    rng = np.random.default_rng(95 + 10 * n + d)
    model = ToyFockModel(n=n, d=d, N=3, T=1.0)
    s = model.slot_dim
    local = complex_randn(rng, n * s, n * s)
    for slot in range(1, model.N + 1):
        emb = embed_two_site(model, local, slot)
        for m in (1, n, model.D):
            X = complex_randn(rng, model.D, m)
            expected = emb @ X
            out = _apply_local(local, X, s, slot)
            assert out.shape == X.shape
            assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    d=st.integers(1, 2),
    k=st.integers(0, 3),
    cols=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_to_ampliated_matches_ampliate_then_apply(n, d, k, cols, seed):
    rng = np.random.default_rng(seed)
    s = d + 1
    # a step factor on (initial, slot k + 1) against a head on C^n (x) slots 1..k
    local = complex_randn(rng, n * s, n * s)
    H = complex_randn(rng, n * s ** k, cols)
    out = _apply_to_ampliated(local, H, s)
    expected = ref.apply_to_ampliated(local, H, s)
    assert out.shape == expected.shape == (n * s ** (k + 1), cols * s)
    assert np.linalg.norm(out - expected) <= 1e-14 * np.linalg.norm(expected)
    # a full factor on (head, next slot), m = rows of the head
    full = complex_randn(rng, n * s ** (k + 1), n * s ** (k + 1))
    out = _apply_to_ampliated(full, H, s)
    expected = ref.apply_to_ampliated(full, H, s)
    assert out.shape == expected.shape
    assert np.linalg.norm(out - expected) <= 1e-14 * np.linalg.norm(expected)


# entries the bit-for-bit comparisons mix into normal draws
SPECIAL_ENTRIES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan])


def mixed_entries(rng, rows: int, cols: int) -> np.ndarray:
    """Complex normals whose real and imaginary parts are each, with probability
    1/4, one of SPECIAL_ENTRIES."""
    parts = rng.standard_normal((2, rows, cols))
    special = rng.random(parts.shape) < 0.25
    parts[special] = rng.choice(SPECIAL_ENTRIES, int(special.sum()))
    out = np.empty((rows, cols), dtype=complex)
    out.real, out.imag = parts
    return out


def same_bits(x, y) -> bool:
    """Equal shapes and equal float bit patterns: NaN positions and payloads and signed zeros included."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 4),
    d=st.integers(1, 3),
    p=st.integers(1, 4 ** 5),
    cols=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
# a one-entry H, which numpy takes for a scalar: at s = 4 an axpy over 16 rows
# rounds in its vector kernel, over 4 rows in its scalar loop
@example(n=1, d=3, p=1, cols=1, seed=0)
@example(n=1, d=1, p=1, cols=1, seed=0)
def test_apply_to_ampliated_matches_tensordot_step_bit_for_bit(n, d, p, cols, seed):
    rng = np.random.default_rng(seed)
    s = d + 1
    p = 1 + (p - 1) % s ** 5
    local = mixed_entries(rng, n * s, n * s)
    H = mixed_entries(rng, n * p, cols)
    with np.errstate(all="ignore"):
        assert same_bits(_apply_to_ampliated(local, H, s), ref.tensordot_step(local, H, s))


def swapped_step(local, H, s):
    """A planted fault: the step with the slot letters a and b of local swapped."""
    m = local.shape[0] // s
    return _apply_to_ampliated(local.reshape(m, s, m, s).transpose(0, 3, 2, 1).reshape(local.shape), H, s)


@settings(max_examples=100, deadline=None)
@given(side=st.integers(1, 40), reps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_add_copies_matches_broadcast_add_bit_for_bit(side, reps, seed):
    rng = np.random.default_rng(seed)
    X, head = mixed_entries(rng, side * reps, side * reps), mixed_entries(rng, side, side)
    expected = X.copy()
    with np.errstate(all="ignore"):
        toy_fock._add_copies(X, head)
        ref.broadcast_add_copies(expected, head)
    assert same_bits(X, expected)


def dense_readings(model: ToyFockModel, G, F) -> list:
    """Every head of V and of Y, and both multiplier residuals, at one split."""
    split = max(1, model.N // 3)
    V = simulate_hp_unitary(model, G)
    Y = simulate_perturbation(model, V, F)
    residuals = [
        multiplier_cocycle_check(model, V, F, split),
        multiplier_cocycle_residual(model.n, model.d, model.N, model.T, G, F, split),
    ]
    return V.heads + Y.heads + [np.array(residuals)]


def readings_against_tensordot_step(monkeypatch, model, G, F, step=None) -> bool:
    """Whether the dense readings with the library's step (or `step`) equal, bit for
    bit, those with the tensordot step and the broadcast add patched in."""
    with monkeypatch.context() as m:
        if step is not None:
            m.setattr(toy_fock, "_apply_to_ampliated", step)
        now = dense_readings(model, G, F)
    with monkeypatch.context() as m:
        m.setattr(toy_fock, "_apply_to_ampliated", ref.tensordot_step)
        m.setattr(toy_fock, "_add_copies", ref.broadcast_add_copies)
        before = dense_readings(model, G, F)
    return len(now) == len(before) and all(same_bits(x, y) for x, y in zip(now, before))


@pytest.mark.parametrize("trivial", [True, False])
@pytest.mark.parametrize("n,d,N", [(2, 1, 8), (2, 1, 7), (2, 1, 6), (1, 1, 9), (1, 3, 4), (3, 2, 4)])
def test_dense_readings_match_tensordot_step_bit_for_bit(monkeypatch, n, d, N, trivial):
    # the three dense workload shapes (D = 512, 256, 128), n = 1 and d >= 2
    rng = np.random.default_rng(121 + 10 * n + d)
    model = ToyFockModel(n=n, d=d, N=N, T=0.5)
    G = zero_coefficient(n, d) if trivial else inner_coefficient(rng, n, d)
    F = random_coefficient(rng, n, d, scale=0.5)
    assert readings_against_tensordot_step(monkeypatch, model, G, F)
    assert not readings_against_tensordot_step(monkeypatch, model, G, F, step=swapped_step)


def test_last_dense_step_holds_one_letter_product_beside_the_heads():
    # tracemalloc at n = 2, d = 1: the last step of simulate_hp_unitary holds its
    # result and one slot letter's product, half an operator on C^D; the
    # tensordot step held a whole one more.  simulate_perturbation peaks at its
    # last head product, 1.25 operators beside its heads (1.5 before)
    rng = np.random.default_rng(122)
    G, F = inner_coefficient(rng, 2, 1), random_coefficient(rng, 2, 1, scale=0.5)
    for N in (8, 9):
        model = ToyFockModel(n=2, d=1, N=N, T=0.5)
        operator = model.D ** 2 * 16
        out = []
        peak = traced_peak(lambda: out.append(simulate_hp_unitary(model, G)))
        V = out.pop()
        assert peak - sum(h.nbytes for h in V.heads) <= 0.55 * operator
        peak = traced_peak(lambda: out.append(simulate_perturbation(model, V, F)))
        assert peak - sum(h.nbytes for h in out.pop().heads) <= 1.3 * operator


def rel_err(x, y) -> float:
    return float(np.linalg.norm(np.asarray(x) - y) / np.linalg.norm(y))


def assert_processes_close(P: DiscreteProcess, R: list, tol: float = 1e-13):
    assert len(P.ops) == len(R)
    for x, y in zip(P.ops, R):
        assert rel_err(x, y) <= tol


@pytest.mark.parametrize("trivial", [True, False])
@pytest.mark.parametrize("n,d,N", [(1, 1, 5), (2, 1, 6), (2, 2, 4), (3, 1, 5)])
def test_dense_oracle_matches_dxd_reference(n, d, N, trivial):
    rng = np.random.default_rng(96 + 100 * n + 10 * d + N)
    T = 0.6
    model = ToyFockModel(n=n, d=d, N=N, T=T)
    G = zero_coefficient(n, d) if trivial else inner_coefficient(rng, n, d)
    F1 = random_coefficient(rng, n, d, scale=0.5)
    split = max(1, N // 3)

    V = simulate_hp_unitary(model, G)
    Vd = list(V.ops)
    assert_processes_close(V, ref.simulate_hp_unitary(model, G))
    Y = simulate_perturbation(model, V, F1)
    assert_processes_close(Y, ref.simulate_perturbation(model, Vd, F1))
    assert rel_err(
        stochastic_derivative_estimate(model, Y), ref.stochastic_derivative_estimate(model, list(Y.ops))
    ) <= 1e-13
    expected = ref.multiplier_cocycle_check(model, Vd, F1, split)
    assert abs(multiplier_cocycle_check(model, V, F1, split) - expected) <= 1e-13
    Gd = None if trivial else G
    expected = ref.multiplier_cocycle_residual(n, d, N, T, Gd, F1, split)
    assert abs(multiplier_cocycle_residual(n, d, N, T, Gd, F1, split) - expected) <= 1e-13


def test_dense_oracle_matches_dxd_reference_at_d512():
    rng = np.random.default_rng(97)
    model = ToyFockModel(n=2, d=1, N=8, T=0.5)  # D = 512
    G = inner_coefficient(rng, 2, 1)
    F = random_coefficient(rng, 2, 1, scale=0.5)
    V = simulate_hp_unitary(model, G)
    assert_processes_close(V, ref.simulate_hp_unitary(model, G))
    assert_processes_close(simulate_perturbation(model, V, F), ref.simulate_perturbation(model, list(V.ops), F))


MULTIPLIER_LADDER = [8, 16, 32, 48]


@pytest.mark.parametrize("trivial", [True, False])
def test_staged_residual_matches_reference_at_workload_size(trivial):
    # the benchmark's multiplier ladder at split fraction 0.1: head dimensions 4 to 64, 93 tail steps
    rng = np.random.default_rng(104)
    n, d, T = 2, 1, 1.0
    G = None if trivial else inner_coefficient(rng, n, d)
    F = random_coefficient(rng, n, d, scale=0.5)
    splits = [min(N - 1, max(1, round(0.1 * N))) for N in MULTIPLIER_LADDER]  # as `qfk simulate` splits
    assert splits == [1, 2, 3, 5]
    got = toy_fock.multiplier_cocycle_ladder(n, d, MULTIPLIER_LADDER, T, G, F, splits)
    assert got.shape == (len(MULTIPLIER_LADDER),)
    for r, (N, split) in enumerate(zip(MULTIPLIER_LADDER, splits)):
        assert abs(got[r] - ref.multiplier_cocycle_residual(n, d, N, T, G, F, split)) <= 1e-13


def test_dense_paths_form_no_embedding(monkeypatch):
    rng = np.random.default_rng(98)
    n, d, N, T = 2, 1, 5, 0.6
    model = ToyFockModel(n=n, d=d, N=N, T=T)
    G = inner_coefficient(rng, n, d)
    F = random_coefficient(rng, n, d, scale=0.5)
    kron = np.kron

    def forbidden(*args, **kwargs):
        raise AssertionError("a D x D embedding was formed")

    def local_kron(x, y):
        out = kron(x, y)
        if out.shape[0] > n * (d + 1):
            raise AssertionError(f"a {out.shape} amplification was formed")
        return out

    ampliate = toy_fock._ampliate

    def head_only(head, reps):
        if reps > 1:
            raise AssertionError(f"a head was ampliated {reps} times")
        return ampliate(head, reps)

    monkeypatch.setattr(toy_fock, "embed_two_site", forbidden)
    monkeypatch.setattr(toy_fock, "embed_at_slot", forbidden)
    monkeypatch.setattr(toy_fock, "_ampliate", head_only)
    monkeypatch.setattr(np, "kron", local_kron)
    V = simulate_hp_unitary(model, G)
    Y = simulate_perturbation(model, V, F)
    vacuum_expect(model, Y.ops[-1])
    stochastic_derivative_estimate(model, Y)
    multiplier_cocycle_check(model, V, F, 2)
    multiplier_cocycle_residual(n, d, N, T, G, F, 2)


def test_dense_to_channel_gap_shrinks_only_for_unitary_drive():
    # the interaction-picture channel is an O(h) discretization of the dense
    # value for a unitary-type drive, and off by O(1) for any other drive
    rng = np.random.default_rng(101)
    G = inner_coefficient(rng, 2, 1)
    bad = BlockCoefficient(K=G.K, L=G.L, M=G.M, W=np.eye(2) + 0.1 * complex_randn(rng, 2, 2))
    F1 = random_coefficient(rng, 2, 1, scale=0.5)
    F2 = random_coefficient(rng, 2, 1, scale=0.5)
    a = complex_randn(rng, 2, 2)
    gaps = {}
    for name, drive in (("unitary", G), ("other", bad)):
        gaps[name] = []
        for N in (4, 6, 8):
            model = ToyFockModel(n=2, d=1, N=N, T=0.5)
            dense = ref.fk_expectation_estimate(model, list(simulate_hp_unitary(model, drive).ops), F1, F2, a)
            gaps[name].append(norm2(dense - fk_expectation_channel(2, 1, N, 0.5, drive, F1, F2, a)))
    assert gaps["unitary"][2] < gaps["unitary"][1] < gaps["unitary"][0]
    assert min(gaps["other"]) > 10 * gaps["unitary"][0]


# --- dense simulation: flows ----------------------------------------------------

def test_hp_unitary_trivial_coefficient():
    model = ToyFockModel(n=2, d=1, N=3, T=1.0)
    V = simulate_hp_unitary(model, zero_coefficient(2, 1))
    for op in V.ops:
        assert norm2(op - np.eye(model.D)) == 0.0


def test_hp_dimension_check():
    model = ToyFockModel(n=2, d=1, N=2, T=1.0)
    with pytest.raises(DimensionMismatchError):
        simulate_hp_unitary(model, zero_coefficient(1, 1))


def test_hp_dense_matches_channel_compression_any_flow():
    # <vac| V_N |vac> factorizes slot by slot exactly.
    rng = np.random.default_rng(74)
    G = inner_coefficient(rng, 2, 1)
    model = ToyFockModel(n=2, d=1, N=4, T=0.5)
    V = simulate_hp_unitary(model, G)
    dense = vacuum_expect(model, V.ops[-1])
    channel = hp_vacuum_compression(2, 1, 4, 0.5, G)
    assert norm2(dense - channel) <= 1e-13


def test_hp_hamiltonian_corner_ladder():
    eta = 0.7
    G = BlockCoefficient(K=[[1j * eta]], L=[[0.0]], M=[[0.0]], W=[[1.0]])
    errs = []
    for N in (8, 16, 32):
        corner = hp_vacuum_compression(1, 1, N, 1.0, G)
        errs.append(abs(corner[0, 0] - np.exp(1j * eta)))
    assert errs[2] < errs[1] < errs[0]


def test_hp_frozen_drift_regression():
    # K = -1/2, T = 1, N = 64: euler corner is (1 - 1/128)^64, error about 1.2e-3.
    G = BlockCoefficient(K=[[-0.5]], L=[[0.0]], M=[[0.0]], W=[[1.0]])
    corner = hp_vacuum_compression(1, 1, 64, 1.0, G)
    err = abs(corner[0, 0] - np.exp(-0.5))
    assert 5e-4 < err < 2.5e-3


def test_flow_heisenberg_trend():
    rng = np.random.default_rng(76)
    h = random_hermitian(rng, 2, scale=0.8)
    G = BlockCoefficient(K=1j * h, L=np.zeros((2, 2)), M=np.zeros((2, 2)), W=np.eye(2))
    a = complex_randn(rng, 2, 2)
    T = 0.6
    errs = []
    for N in (4, 8):
        model = ToyFockModel(n=2, d=1, N=N, T=T)
        j = ref.simulate_flow(model, list(simulate_hp_unitary(model, G).ops), a)
        corner = vacuum_expect(model, j[-1])
        expected = expm(-1j * T * h) @ a @ expm(1j * T * h)
        errs.append(norm2(corner - expected))
    assert errs[1] < errs[0]


def test_adaptedness():
    rng = np.random.default_rng(77)
    model = ToyFockModel(n=2, d=1, N=3, T=0.6)
    V = simulate_hp_unitary(model, inner_coefficient(rng, 2, 1))
    Y = simulate_perturbation(model, V, random_coefficient(rng, 2, 1))
    late = embed_at_slot(model, complex_randn(rng, 2, 2), 3)
    for proc, i in ((V, 1), (V, 2), (Y, 2)):
        op = proc.ops[i]
        assert norm2(op @ late - late @ op) <= 1e-12 * (1.0 + norm2(op) * norm2(late))


# --- dense simulation: perturbations ---------------------------------------------

def test_perturbation_of_zero_coefficient_is_identity():
    rng = np.random.default_rng(78)
    model = ToyFockModel(n=2, d=1, N=3, T=1.0)
    V = simulate_hp_unitary(model, inner_coefficient(rng, 2, 1))
    Y = simulate_perturbation(model, V, zero_coefficient(2, 1))
    for op in Y.ops:
        assert norm2(op - np.eye(model.D)) == 0.0


def test_vacuum_projection_cocycle_is_exact():
    # F = -Delta with trivial flow: Y_N is the all-slots-vacuum projection.
    model = ToyFockModel(n=2, d=1, N=5, T=0.8)
    V = simulate_hp_unitary(model, zero_coefficient(2, 1))
    F = BlockCoefficient(K=np.zeros((2, 2)), L=np.zeros((2, 2)), M=np.zeros((2, 2)), W=np.zeros((2, 2)))
    Y = simulate_perturbation(model, V, F)
    assert norm2(Y.ops[-1] - vacuum_projection(model)) <= 1e-13


def test_shredding_preserves_vacuum_columns_exactly():
    # F and F' = (K, L, 0, 0) act identically on e_u (x) omega^N: the
    # blocks where they differ always meet a vacuum slot annihilator.
    rng = np.random.default_rng(79)
    model = ToyFockModel(n=2, d=1, N=4, T=0.7)
    V = simulate_hp_unitary(model, inner_coefficient(rng, 2, 1))
    F = random_coefficient(rng, 2, 1, scale=0.6)
    Y = simulate_perturbation(model, V, F)
    Yp = simulate_perturbation(model, V, transform_prime(F))
    evac = vacuum_columns(model)
    assert norm2((Y.ops[-1] - Yp.ops[-1]) @ evac) <= 1e-12


def test_vacuum_expect_examples():
    model = ToyFockModel(n=2, d=1, N=3, T=1.0)
    rng = np.random.default_rng(80)
    a = complex_randn(rng, 2, 2)
    assert np.array_equal(vacuum_expect(model, np.kron(a, np.eye(8))), a)
    gauge = embed_at_slot(model, increment_local(1, model.h, 1, 1), 2)
    assert norm2(vacuum_expect(model, gauge)) == 0.0
    with pytest.raises(DimensionMismatchError):
        vacuum_expect(model, np.eye(4))


def test_factored_perturbation_matches_per_block_reference():
    rng = np.random.default_rng(92)
    model = ToyFockModel(n=2, d=1, N=6, T=0.6)  # D = 128
    V = simulate_hp_unitary(model, inner_coefficient(rng, 2, 1))
    F = random_coefficient(rng, 2, 1, scale=0.5)
    Y = simulate_perturbation(model, V, F)
    ref = np.eye(model.D, dtype=complex)
    for i in range(model.N):
        ref = ref + reference_coupling(model, V.ops[i], F, i + 1) @ ref
        assert norm2(Y.ops[i + 1] - ref) <= 1e-13 * (1.0 + norm2(ref))


def test_factored_multiplier_check_matches_per_block_reference():
    rng = np.random.default_rng(93)
    model = ToyFockModel(n=2, d=1, N=5, T=0.8)
    split = 2
    V = simulate_hp_unitary(model, inner_coefficient(rng, 2, 1))
    F = random_coefficient(rng, 2, 1, scale=0.5)
    # the fresh flow over slots split+1..N, one slot at a time
    s = model.slot_dim
    u_loc = V.ops[1][:: s ** (model.N - 1), :: s ** (model.N - 1)]
    yhat = vfresh = np.eye(model.D, dtype=complex)
    for i in range(split, model.N):
        vs_vfresh = V.ops[split] @ vfresh
        yhat = yhat + reference_coupling(model, vs_vfresh, F, i + 1) @ yhat
        vfresh = embed_two_site(model, u_loc, i + 1) @ vfresh
    Y = simulate_perturbation(model, V, F)
    expected = norm2(vacuum_expect(model, Y.ops[-1]) - vacuum_expect(model, yhat @ Y.ops[split]))
    assert expected > 1e-6  # the identity is only approximate for a nontrivial flow
    assert abs(multiplier_cocycle_check(model, V, F, split) - expected) <= 1e-13


# --- transfer power vs slot loop ------------------------------------------------------

@pytest.mark.parametrize("n,d", [(2, 1), (4, 2)])
@pytest.mark.parametrize("N,tol", [(64, 1e-13), (4096, 1e-11)])
def test_transfer_power_matches_slot_loop(n, d, N, tol):
    rng = np.random.default_rng(94 + n)
    T = 0.7
    G = inner_coefficient(rng, n, d)
    F1 = random_coefficient(rng, n, d, scale=0.5)
    F2 = random_coefficient(rng, n, d, scale=0.5)
    a = complex_randn(rng, n, n)
    u = step_local(G, T / N)
    d1 = u @ step_local(F1, T / N)
    d2 = u @ step_local(F2, T / N)
    s = d + 1
    ref = slot_loop(d1, d2, s, N, a)
    assert norm2(fk_expectation_channel(n, d, N, T, G, F1, F2, a) - ref) <= tol * norm2(ref)
    ref = slot_loop(u, d2, s, N, np.eye(n))
    assert norm2(cocycle_vacuum_corner(n, d, N, T, G, F2) - ref) <= tol * norm2(ref)


# --- ladder readings ---------------------------------------------------------------

LADDERS = ([1, 2, 3, 4, 5, 6, 7, 12, 100, 1000], [3], [1], [2], [5, 48, 1024, 4097])
LADDER_SHAPES = [(1, 1), (2, 1), (2, 2), (3, 1), (4, 2)]


def _ladder_inputs(n, d):
    rng = np.random.default_rng(17 * n + d)
    G = inner_coefficient(rng, n, d)
    F1, F2 = random_coefficient(rng, n, d, scale=0.5), random_coefficient(rng, n, d, scale=0.5)
    return G, F1, F2, complex_randn(rng, n, n)


@pytest.mark.parametrize("n,d", LADDER_SHAPES)
def test_ladder_readings_equal_matrix_power_per_rung(n, d, monkeypatch):
    """Every rung of a ladder reading is bit for bit the per-N reading and the
    np.linalg.matrix_power of its own transfer matrix, in one chunk or many."""
    T, s = 0.7, d + 1
    G, F1, F2, a = _ladder_inputs(n, d)
    for entries in (linalg.CHUNK_ENTRIES, 1, 2 * n ** 4):
        monkeypatch.setattr(linalg, "CHUNK_ENTRIES", entries)
        for ladder in LADDERS:
            fk = toy_fock.fk_expectation_ladder(n, d, ladder, T, G, F1, F2, a)
            hp = toy_fock.hp_vacuum_ladder(n, d, ladder, T, G)
            assert fk.shape == hp.shape == (len(ladder), n, n)
            for r, N in enumerate(ladder):
                h = T / N
                u = step_local(G, h)
                d1, d2 = u @ step_local(F1, h), u @ step_local(F2, h)
                want = ref.transfer_power(d1, d2, s, N, a)
                assert np.array_equal(fk[r], want)
                assert np.array_equal(fk[r], fk_expectation_channel(n, d, N, T, G, F1, F2, a))
                want = np.linalg.matrix_power(u[::s, ::s], N)
                assert np.array_equal(hp[r], want)
                assert np.array_equal(hp[r], hp_vacuum_compression(n, d, N, T, G))
                d1 = step_local(F1, h)
                want = norm2(ref.transfer_power(d1, d1, s, N, np.eye(n)) - np.eye(n))
                assert want == isometry_defect_channel(n, d, N, T, F1)
                want = ref.transfer_power(u, d2, s, N, np.eye(n))
                assert np.array_equal(cocycle_vacuum_corner(n, d, N, T, G, F2), want)


def test_ladder_reading_is_one_powering_pass(monkeypatch):
    n, d = 2, 1
    G, F1, F2, a = _ladder_inputs(n, d)
    ladder = [2 ** k for k in range(4, 21)]
    monkeypatch.setattr(np.linalg, "matrix_power", lambda *args: pytest.fail("matrix_power called"))
    passes = []
    power = toy_fock._ladder_power
    monkeypatch.setattr(toy_fock, "_ladder_power", lambda mats, rungs: passes.append(len(rungs)) or power(mats, rungs))
    toy_fock.hp_vacuum_ladder(n, d, ladder, 1.0, G)
    toy_fock.fk_expectation_ladder(n, d, ladder, 1.0, G, F1, F2, a)
    assert passes == [len(ladder)] * 2
    # the per-N readers are the one-rung case of the same pass
    passes.clear()
    hp_vacuum_compression(n, d, 8, 1.0, G)
    fk_expectation_channel(n, d, 8, 1.0, G, F1, F2, a)
    isometry_defect_channel(n, d, 8, 1.0, F1)
    cocycle_vacuum_corner(n, d, 8, 1.0, G, F1)
    multiplier_cocycle_residual(n, d, 8, 1.0, G, F1, 3)
    assert passes == [1] * 5


@pytest.mark.parametrize("n,d,rungs", [(1, 3, 1200), (2, 3, 300), (2, 1, 1100)])
def test_ladder_chunks_stay_within_entry_budget(monkeypatch, n, d, rungs):
    # a chunk holds the rungs whose transfer matrices (n^4 entries each) or slot
    # words ((n s)^2), whichever are larger, fit linalg.CHUNK_ENTRIES together
    G, F1, F2, a = _ladder_inputs(n, d)
    calls = []
    transfer = toy_fock._transfer_ladder
    monkeypatch.setattr(toy_fock, "_transfer_ladder", lambda d1, *args: calls.append(d1.shape) or transfer(d1, *args))
    toy_fock.fk_expectation_ladder(n, d, list(range(1, rungs + 1)), 1.0, G, F1, F2, a)
    entries = max(n ** 4, (n * (d + 1)) ** 2)
    per_chunk = linalg.CHUNK_ENTRIES // entries
    assert sum(k for k, _, _ in calls) == rungs
    assert all(k * entries <= linalg.CHUNK_ENTRIES for k, _, _ in calls)
    assert len(calls) == -(-rungs // per_chunk) == 2


def test_ladder_reading_memory_is_a_few_transfer_stacks():
    n, d = 4, 2
    G, F1, F2, a = _ladder_inputs(n, d)
    ladder = [2 ** k for k in range(4, 21)]
    toy_fock.fk_expectation_ladder(n, d, ladder, 1.0, G, F1, F2, a)
    tracemalloc.start()
    try:
        toy_fock.fk_expectation_ladder(n, d, ladder, 1.0, G, F1, F2, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured: 5.8 stacks of the 17 transfer matrices (n^2 x n^2 complex)
    assert peak <= 8 * len(ladder) * n ** 4 * 16


def corner_of_full_steps(n: int, d: int, ladder, T: float, G: BlockCoefficient) -> np.ndarray:
    """The hp ladder read off full Euler steps on C^n (x) C^{d+1}: the vacuum corner
    of each step, powered per rung.  Reference for the corner-only reading."""
    s = d + 1
    return toy_fock._ladder_power(toy_fock._steps(G, [T / N for N in ladder])[:, ::s, ::s], ladder)


# entries that overflow a rung, underflow, or carry a sign on zero
HP_EXTREMES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1e154])


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 5), d=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1), share=st.floats(0.0, 1.0),
    ladder=st.lists(st.integers(1, 5000), min_size=1, max_size=8, unique=True).map(sorted),
    T=st.sampled_from([0.7, 1e-300, 1e3, 1e300]),
)
def test_hp_ladder_reads_the_corner_of_the_full_step_bit_for_bit(n, d, seed, share, ladder, T):
    # a share of the entries extreme, the rest ordinary
    rng, m = np.random.default_rng(seed), n * (d + 1)
    parts = np.where(rng.random((m, m, 2)) < share, rng.choice(HP_EXTREMES, (m, m, 2)), rng.normal(size=(m, m, 2)))
    G = BlockCoefficient.from_full(parts.view(complex)[..., 0], n)
    with np.errstate(all="ignore"):
        want = corner_of_full_steps(n, d, ladder, T, G)
        got = toy_fock.hp_vacuum_ladder(n, d, ladder, T, G)
    assert got.tobytes() == want.tobytes()


def test_hp_ladder_memory_does_not_grow_with_d():
    # n = 1, d = 30: a full Euler step is 31 x 31 while the corner the ladder
    # powers is 1 x 1 (the full steps of these 2000 rungs peaked at 58.9 MiB)
    G = random_coefficient(np.random.default_rng(106), 1, 30)
    ladder = list(range(1, 2001))
    toy_fock.hp_vacuum_ladder(1, 30, ladder, 1.0, G)
    assert traced_peak(lambda: toy_fock.hp_vacuum_ladder(1, 30, ladder, 1.0, G)) < 1 << 20


@pytest.mark.parametrize("ladder", [[], [4, 4], [8, 4], [1, 3, 2]])
def test_ladder_readings_need_a_strictly_increasing_ladder(ladder):
    G, F1, F2, a = _ladder_inputs(2, 1)
    for call in (
        lambda: toy_fock.hp_vacuum_ladder(2, 1, ladder, 1.0, G),
        lambda: toy_fock.fk_expectation_ladder(2, 1, ladder, 1.0, G, F1, F2, a),
    ):
        with pytest.raises(ValueError):
            call()


def negative_zero_coefficient(n: int, d: int) -> BlockCoefficient:
    """The zero coefficient with every zero entry signed negative."""
    dn = d * n
    return BlockCoefficient(
        K=np.full((n, n), -0.0), L=np.full((dn, n), -0.0), M=np.full((n, dn), -0.0),
        W=np.where(np.eye(dn) == 1.0, 1.0, -0.0),
    )


@pytest.mark.parametrize("n,d", LADDER_SHAPES)
def test_the_trivial_flow_and_the_zero_drive_are_one_reading(n, d):
    # G = None and a zero G, signed zeros included, give the same bytes
    _, F1, F2, a = _ladder_inputs(n, d)
    drives = (zero_coefficient(n, d), negative_zero_coefficient(n, d))
    readings = [lambda G, ladder=ladder: toy_fock.fk_expectation_ladder(n, d, ladder, 0.7, G, F1, F2, a)
                for ladder in LADDERS]
    readings += [lambda G, N=N: cocycle_vacuum_corner(n, d, N, 0.7, G, F2) for N in (1, 3, 64)]
    readings += [lambda G, N=N, split=split: np.float64(multiplier_cocycle_residual(n, d, N, 0.7, G, F1, split))
                 for N, split in ((4, 1), (9, 2))]
    readings.append(lambda G: toy_fock.multiplier_cocycle_ladder(n, d, [2, 4, 9], 0.7, G, F1, [1, 1, 2]))
    for reading in readings:
        want = reading(None).tobytes()
        assert all(reading(G).tobytes() == want for G in drives)


@pytest.mark.parametrize("n,d", LADDER_SHAPES)
def test_multiplier_ladder_rungs_equal_the_one_rung_call(n, d, monkeypatch):
    # each rung is bit for bit its own multiplier_cocycle_residual, in one chunk of rungs or many
    G, F1, _, _ = _ladder_inputs(n, d)
    ladder, splits = [2, 3, 7, 12, 20], [1, 2, 3, 2, 4]
    for entries in (linalg.CHUNK_ENTRIES, 1):
        monkeypatch.setattr(linalg, "CHUNK_ENTRIES", entries)
        for drive in (None, G):
            got = toy_fock.multiplier_cocycle_ladder(n, d, ladder, 0.7, drive, F1, splits)
            for r, (N, split) in enumerate(zip(ladder, splits)):
                want = multiplier_cocycle_residual(n, d, N, 0.7, drive, F1, split)
                assert got[r].tobytes() == np.float64(want).tobytes()


def test_multiplier_ladder_reserves_its_largest_rung_before_any_rung(monkeypatch):
    # the first reservation is the head space of the largest split: a cap one byte below
    # it refuses the ladder before any rung's corner, Euler steps or head chain is formed
    n, d, s = 2, 1, 2
    G, F1, _, _ = _ladder_inputs(n, d)
    ladder, splits = MULTIPLIER_LADDER, [1, 2, 5, 3]
    reserved, reserve = [], toy_fock.reserve
    with monkeypatch.context() as m:
        m.setattr(toy_fock, "reserve", lambda ops, dim: reserved.append((ops, dim)) or reserve(ops, dim))
        toy_fock.multiplier_cocycle_ladder(n, d, ladder, 1.0, G, F1, splits)
    ops, dim = reserved[0]
    assert dim == n * s ** (max(splits) + 1)
    formed = []
    for name in ("_channel_ladder", "_words", "_couplings", "_apply_to_ampliated", "_apply_to_vacuum"):
        monkeypatch.setattr(toy_fock, name, lambda *a, name=name: formed.append(name))
    monkeypatch.setattr(linalg, "DEFAULT_MEMORY_CAP", ops * dim * dim * 16 - 1)
    with pytest.raises(MemoryCapExceededError):
        toy_fock.multiplier_cocycle_ladder(n, d, ladder, 1.0, G, F1, splits)
    assert formed == []


def test_multiplier_ladder_refuses_splits_off_its_rungs():
    F = random_coefficient(np.random.default_rng(108), 1, 1)
    with pytest.raises(ValueError, match="one split per rung"):
        toy_fock.multiplier_cocycle_ladder(1, 1, [4, 8], 1.0, None, F, [1])
    with pytest.raises(ValueError, match="split must lie in 1..7"):
        toy_fock.multiplier_cocycle_ladder(1, 1, [4, 8], 1.0, None, F, [1, 8])


@pytest.mark.parametrize("n,d", [(8, 1), (8, 3), (12, 1)])
@pytest.mark.parametrize("reading", ["fk", "isometry", "corner", "multiplier"])
def test_transfer_reading_cap_covers_measured_peak(monkeypatch, n, d, reading):
    # a cap one byte below what a transfer reading allocates must stop it
    # beforehand, with less than one n^2 x n^2 transfer matrix allocated
    G, F1, F2, a = _ladder_inputs(n, d)
    ladder = [2 ** k for k in range(4, 21)]
    call = {
        "fk": lambda: toy_fock.fk_expectation_ladder(n, d, ladder, 1.0, G, F1, F2, a),
        "isometry": lambda: isometry_defect_channel(n, d, 1024, 1.0, F1),
        "corner": lambda: cocycle_vacuum_corner(n, d, 1024, 1.0, G, F1),
        "multiplier": lambda: multiplier_cocycle_residual(n, d, 12, 1.0, G, F1, 1),
    }[reading]
    call()
    peak = traced_peak(call)
    monkeypatch.setattr(linalg, "DEFAULT_MEMORY_CAP", peak - 1)
    refused = traced_peak(lambda: pytest.raises(MemoryCapExceededError, call))
    assert refused < n ** 4 * 16


def test_the_oracle_workload_jobs_pass_their_own_checks(workloads, tmp_path):
    # the benchmark's oracle jobs at seed 0: the CLI ladders, and the dense jobs
    # that call the transfer readers with G = None; a break in a signature the
    # benchmark calls fails here, not only in the benchmark
    jobs = workloads.build("oracle", 0, str(tmp_path))
    failures = {}
    for i, job in enumerate(jobs):
        if job.argv is not None:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = qfk.cli.main(job.argv)
            out = (rc, stdout.getvalue(), stderr.getvalue())
        else:
            out = job.reduce(job.call())
        bad = job.check(out)
        if bad:
            failures[f"{i}: {job.shape}"] = bad
    assert failures == {}
    shapes = sorted(job.shape for job in jobs)
    assert len(jobs) == 20 and sum(s.startswith("dense ") for s in shapes) == 3
    assert shapes.count("simulate fk n2 d1") == 12


# --- dense vs channel agreement ---------------------------------------------------

def test_fk_dense_matches_channel_for_trivial_flow():
    rng = np.random.default_rng(81)
    model = ToyFockModel(n=2, d=1, N=3, T=0.5)
    V = simulate_hp_unitary(model, zero_coefficient(2, 1))
    F1 = random_coefficient(rng, 2, 1, scale=0.4)
    F2 = random_coefficient(rng, 2, 1, scale=0.4)
    a = complex_randn(rng, 2, 2)
    dense = ref.fk_expectation_estimate(model, list(V.ops), F1, F2, a)
    channel = fk_expectation_channel(2, 1, 3, 0.5, None, F1, F2, a)
    assert norm2(dense - channel) <= 1e-13 * (1.0 + norm2(a))


def test_fk_dense_matches_channel_for_pure_flow():
    # F1 = F2 = 0 is a pure flow compression: exact for any driving flow.
    rng = np.random.default_rng(82)
    model = ToyFockModel(n=2, d=1, N=4, T=0.5)
    G = inner_coefficient(rng, 2, 1)
    V = simulate_hp_unitary(model, G)
    a = complex_randn(rng, 2, 2)
    Z = zero_coefficient(2, 1)
    dense = ref.fk_expectation_estimate(model, list(V.ops), Z, Z, a)
    channel = fk_expectation_channel(2, 1, 4, 0.5, G, Z, Z, a)
    assert norm2(dense - channel) <= 1e-13 * (1.0 + norm2(a))


def test_corner_dense_matches_channel_for_trivial_flow():
    rng = np.random.default_rng(83)
    model = ToyFockModel(n=2, d=1, N=4, T=0.5)
    V = simulate_hp_unitary(model, zero_coefficient(2, 1))
    F = random_coefficient(rng, 2, 1, scale=0.5)
    Y = simulate_perturbation(model, V, F)
    dense = vacuum_expect(model, Y.ops[-1])
    channel = cocycle_vacuum_corner(2, 1, 4, 0.5, None, F)
    assert norm2(dense - channel) <= 1e-13


def test_isometry_defect_dense_matches_channel_for_trivial_flow():
    rng = np.random.default_rng(84)
    model = ToyFockModel(n=2, d=1, N=3, T=0.5)
    V = simulate_hp_unitary(model, zero_coefficient(2, 1))
    F = inner_coefficient(rng, 2, 1)
    dense = norm2(ref.fk_expectation_estimate(model, list(V.ops), F, F, np.eye(2)) - np.eye(2))
    channel = isometry_defect_channel(2, 1, 3, 0.5, F)
    assert abs(dense - channel) <= 1e-12


def test_multiplier_dense_matches_staged_for_trivial_flow():
    rng = np.random.default_rng(85)
    model = ToyFockModel(n=2, d=1, N=4, T=0.6)
    V = simulate_hp_unitary(model, zero_coefficient(2, 1))
    F = random_coefficient(rng, 2, 1, scale=0.5)
    dense = multiplier_cocycle_check(model, V, F, split=2)
    staged = multiplier_cocycle_residual(2, 1, 4, 0.6, None, F, split=2)
    assert abs(dense - staged) <= 1e-12


# --- convergence ladders ------------------------------------------------------------

def test_fk_free_flow_semigroup_trend():
    rng = np.random.default_rng(86)
    fg = FlowGenerator(h=random_hermitian(rng, 2, 0.5), l=complex_randn(rng, 2, 2) * 0.5, W=np.eye(2))
    from qfk.flows import hp_coefficient_for_flow

    G = hp_coefficient_for_flow(fg)
    a = complex_randn(rng, 2, 2)
    T = 0.5
    Z = zero_coefficient(2, 1)
    expected = semigroup_at(Superoperator.from_map(fg.lindblad, 2), T).apply(a)
    errs = []
    for N in (8, 16):
        out = fk_expectation_channel(2, 1, N, T, G, Z, Z, a)
        errs.append(norm2(out - expected))
    assert errs[1] < errs[0]


def test_fk_damping_ladder():
    F = damping_coefficient()
    spec = PerturbationSpec(theta=trivial_flow(2, 1), F1=F, F2=F)
    G = vacuum_generator(phi_perturbed(spec))
    a = np.array([[0.2, 0.4], [0.4, 0.8]], dtype=complex)
    T = 0.5
    expected = semigroup_at(G, T).apply(a)
    errs = []
    for N in (8, 16, 32):
        out = fk_expectation_channel(2, 1, N, T, None, F, F, a)
        errs.append(norm2(out - expected))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.75 * errs[1] < 0.75 * 0.75 * errs[0]


def test_weyl_corner_frozen_ladder():
    F = weyl_coefficient(1.0)
    expected = np.exp(-0.5)
    errs = []
    for N in (8, 16, 32, 64):
        corner = cocycle_vacuum_corner(1, 1, N, 1.0, None, F)
        errs.append(abs(corner[0, 0] - expected))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[0] < 0.02 and errs[-1] < 0.002


def test_isometry_defect_ladder():
    F = weyl_coefficient(1.0)
    errs = [isometry_defect_channel(1, 1, N, 1.0, F) for N in (4, 8, 16)]
    assert errs[2] < errs[1] < errs[0]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), d=st.integers(1, 2), N=st.integers(1, 2**20), T=st.floats(1e-3, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_isometry_defect_channel_is_the_fk_ladder_reading_bit_for_bit(n, d, N, T, seed):
    # the isometry kind as `qfk simulate` reads it: one fk rung, F1 = F2 = F, no drive, a = I
    F = random_coefficient(np.random.default_rng(seed), n, d, scale=0.5)
    eye = np.eye(n)
    want = norm2_stack(toy_fock.fk_expectation_ladder(n, d, [N], T, None, F, F, eye) - eye)[0]
    assert np.float64(isometry_defect_channel(n, d, N, T, F)).tobytes() == want.tobytes()


def test_multiplier_residual_decreases():
    rng = np.random.default_rng(87)
    G = inner_coefficient(rng, 1, 1)
    F = random_coefficient(rng, 1, 1, scale=0.5)
    r8 = multiplier_cocycle_residual(1, 1, 8, 1.0, G, F, split=2)
    r16 = multiplier_cocycle_residual(1, 1, 16, 1.0, G, F, split=4)
    assert r16 < r8


def test_multiplier_zero_perturbation_is_exact():
    rng = np.random.default_rng(88)
    model = ToyFockModel(n=1, d=1, N=4, T=1.0)
    G = inner_coefficient(rng, 1, 1)
    V = simulate_hp_unitary(model, G)
    Z = zero_coefficient(1, 1)
    assert multiplier_cocycle_check(model, V, Z, split=2) <= 1e-14
    assert multiplier_cocycle_residual(1, 1, 4, 1.0, G, Z, split=2) <= 1e-14


def test_multiplier_split_validation():
    rng = np.random.default_rng(89)
    model = ToyFockModel(n=1, d=1, N=4, T=1.0)
    V = simulate_hp_unitary(model, zero_coefficient(1, 1))
    F = random_coefficient(rng, 1, 1)
    with pytest.raises(ValueError):
        multiplier_cocycle_check(model, V, F, split=0)
    with pytest.raises(ValueError):
        multiplier_cocycle_residual(1, 1, 4, 1.0, None, F, split=4)


# Each contraction reading at (n, d) = (2, 2) as a function of (N, T, coefficients),
# with the coefficient positions it takes.
CONTRACTION_READINGS = {
    "hp_vacuum_compression": (
        ("G",), lambda N, T, c: hp_vacuum_compression(2, 2, N, T, c["G"])),
    "cocycle_vacuum_corner": (
        ("G", "F"), lambda N, T, c: cocycle_vacuum_corner(2, 2, N, T, c["G"], c["F"])),
    "fk_expectation_channel": (
        ("G", "F1", "F2"),
        lambda N, T, c: fk_expectation_channel(2, 2, N, T, c["G"], c["F1"], c["F2"], np.eye(2))),
    "isometry_defect_channel": (
        ("F",), lambda N, T, c: isometry_defect_channel(2, 2, N, T, c["F"])),
    "multiplier_cocycle_residual": (
        ("G", "F"), lambda N, T, c: multiplier_cocycle_residual(2, 2, N, T, c["G"], c["F"], 1)),
    # the ladder forms, on the ladder [N, 2 N]
    "hp_vacuum_ladder": (
        ("G",), lambda N, T, c: toy_fock.hp_vacuum_ladder(2, 2, [N, 2 * N], T, c["G"])),
    "fk_expectation_ladder": (
        ("G", "F1", "F2"),
        lambda N, T, c: toy_fock.fk_expectation_ladder(2, 2, [N, 2 * N], T, c["G"], c["F1"], c["F2"], np.eye(2))),
}


@pytest.mark.parametrize("reading", sorted(CONTRACTION_READINGS))
def test_contraction_readings_check_sizes_horizon_and_coefficients(reading):
    positions, call = CONTRACTION_READINGS[reading]
    rng = np.random.default_rng(91)
    good = {"G": inner_coefficient(rng, 2, 2)}
    good.update((name, random_coefficient(rng, 2, 2)) for name in ("F", "F1", "F2"))
    call(4, 1.0, good)
    bad_calls = [(4, 1.0, {**good, name: random_coefficient(rng, 3, 1)}) for name in positions]
    bad_calls += [(N, 1.0, good) for N in (0, -2)]
    bad_calls += [(4, T, good) for T in (0.0, -1.0, np.inf)]
    for N, T, coefficients in bad_calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((DimensionMismatchError, ValueError)):
                call(N, T, coefficients)


# --- stochastic derivative ------------------------------------------------------------

def test_stochastic_derivative_of_identity_process_is_zero():
    model = ToyFockModel(n=2, d=1, N=3, T=0.5)
    V = simulate_hp_unitary(model, zero_coefficient(2, 1))
    Y = simulate_perturbation(model, V, zero_coefficient(2, 1))
    assert norm2(stochastic_derivative_estimate(model, Y)) == 0.0


def test_stochastic_derivative_exact_for_vacuum_projection():
    model = ToyFockModel(n=2, d=1, N=4, T=0.8)
    V = simulate_hp_unitary(model, zero_coefficient(2, 1))
    F = BlockCoefficient(K=np.zeros((2, 2)), L=np.zeros((2, 2)), M=np.zeros((2, 2)), W=np.zeros((2, 2)))
    Y = simulate_perturbation(model, V, F)
    est = stochastic_derivative_estimate(model, Y)
    assert norm2(est - F.as_full()) <= 1e-12


def test_stochastic_derivative_weyl_trend():
    F = weyl_coefficient(1.0)
    errs = []
    for T in (0.4, 0.2, 0.1):
        model = ToyFockModel(n=1, d=1, N=8, T=T)
        V = simulate_hp_unitary(model, zero_coefficient(1, 1))
        Y = simulate_perturbation(model, V, F)
        est = stochastic_derivative_estimate(model, Y)
        errs.append(norm2(est - F.as_full()))
    assert errs[2] < errs[1] < errs[0]


def test_stochastic_derivative_time_validation():
    model = ToyFockModel(n=1, d=1, N=2, T=0.5)
    V = simulate_hp_unitary(model, zero_coefficient(1, 1))
    Y = simulate_perturbation(model, V, zero_coefficient(1, 1))
    with pytest.raises(ValueError):
        stochastic_derivative_estimate(model, Y, t=0.0)


# --- ladder verdicts ---------------------------------------------------------------

def test_ladder_verdict_passes_on_decreasing_errors():
    v = ladder_verdict([0.4, 0.2, 0.04])
    assert v["passed"] and v["monotone"] and v["final_error"] == 0.04


def test_ladder_verdict_fails_on_non_monotone():
    v = ladder_verdict([0.4, 0.5, 0.01])
    assert not v["monotone"] and not v["passed"]


def test_ladder_verdict_fails_on_large_final():
    v = ladder_verdict([2.0, 1.5, 1.0])
    assert v["monotone"] and not v["passed"]


def test_ladder_verdict_zero_to_rounding_is_converged():
    # the trivial-flow multiplier ladder: residuals at the rounding level
    v = ladder_verdict([0.0, 1.3e-16, 1.7e-16, 2.3e-16])
    assert v["passed"] and v["monotone"]
    assert not ladder_verdict([1e-3, 2e-3, 1e-4])["passed"]


def test_ladder_verdict_weaker_bound_wins():
    assert ladder_verdict([0.4, 0.3, 0.045])["passed"]  # absolute cap
    assert ladder_verdict([10.0, 5.0, 0.9])["passed"]  # relative cap
