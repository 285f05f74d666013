import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfk.perturbations
from qfk import linalg
from qfk.coefficients import BlockCoefficient, compose, delta_projection, transform_double_prime, transform_prime
from qfk.flows import (
    FlowGenerator,
    OperatorMap,
    ampliate,
    as_theta_map,
    hp_coefficient_for_flow,
    structure_defects,
    trivial_flow,
)
from qfk.linalg import (
    CHUNK_ENTRIES,
    DimensionMismatchError,
    dag,
    min_eig_hermitian,
    norm2,
    norm2_stack,
)
from qfk.perturbations import (
    PerturbationSpec,
    Superoperator,
    block_superoperators,
    choi_matrix,
    composed_blocks,
    composed_vacuum_generator,
    from_hp_coefficient,
    is_cp,
    is_unital,
    phi_perturbed,
    psi_map,
    semigroup_at,
    semigroup_stack,
    unvec,
    vacuum_generator,
    vec,
)

from conftest import (
    SIGMA_MINUS, complex_randn, damping_coefficient, flow_of, gauge_free, inner_coefficient, random_coefficient,
    random_flow, random_hermitian, random_phi, traced_peak,
)

KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


# --- vectorization and superoperators ----------------------------------------

def test_vec_unvec_round_trip():
    rng = np.random.default_rng(30)
    x = complex_randn(rng, 3, 3)
    assert np.array_equal(unvec(vec(x), 3), x)


def test_vec_is_column_stacking():
    rng = np.random.default_rng(31)
    a, x, b = (complex_randn(rng, 3, 3) for _ in range(3))
    assert np.allclose(vec(a @ x @ b), np.kron(b.T, a) @ vec(x))


def test_superoperator_from_map_matches_fn():
    rng = np.random.default_rng(32)
    a, b = complex_randn(rng, 3, 3), complex_randn(rng, 3, 3)
    P = Superoperator.from_map(lambda x: a @ x @ b, 3)
    x = complex_randn(rng, 3, 3)
    assert norm2(P.apply(x) - a @ x @ b) <= 1e-12 * (1.0 + norm2(x))


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (4,), (1, 2, 2)])
def test_superoperator_from_map_refuses_an_image_that_is_not_n_by_n(shape):
    with pytest.raises(DimensionMismatchError, match=re.escape(f"map returned shape {shape}, expected (2, 2)")):
        Superoperator.from_map(lambda x: np.ones(shape), 2)


def test_superoperator_linearity():
    rng = np.random.default_rng(33)
    P = Superoperator(n=2, mat=complex_randn(rng, 4, 4))
    x, y = complex_randn(rng, 2, 2), complex_randn(rng, 2, 2)
    al, be = 1.3 - 0.2j, -0.4j
    assert norm2(P.apply(al * x + be * y) - al * P.apply(x) - be * P.apply(y)) <= 1e-12


def test_superoperator_composition():
    rng = np.random.default_rng(34)
    P = Superoperator(n=2, mat=complex_randn(rng, 4, 4))
    Q = Superoperator(n=2, mat=complex_randn(rng, 4, 4))
    x = complex_randn(rng, 2, 2)
    assert np.allclose((P @ Q).apply(x), P.apply(Q.apply(x)))


def test_superoperator_shape_checks():
    with pytest.raises(DimensionMismatchError):
        Superoperator(n=2, mat=np.eye(3))
    P = Superoperator.identity(2)
    with pytest.raises(DimensionMismatchError):
        P.apply(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        P @ Superoperator.identity(3)


# --- one- and two-sided perturbed generators ----------------------------------

def test_psi_at_identity_is_the_coefficient():
    rng = np.random.default_rng(35)
    fg = random_flow(rng, 2, 2)
    F = random_coefficient(rng, 2, 2)
    psi = psi_map(fg, F)
    assert norm2(psi(np.eye(2)) - F.as_full()) <= 1e-13 * (1.0 + norm2(F.as_full()))


def test_psi_dimension_mismatch():
    rng = np.random.default_rng(36)
    with pytest.raises(DimensionMismatchError):
        psi_map(trivial_flow(2, 1), random_coefficient(rng, 2, 2))


def test_spec_dimension_mismatch():
    rng = np.random.default_rng(37)
    F = random_coefficient(rng, 2, 1)
    with pytest.raises(DimensionMismatchError):
        PerturbationSpec(theta=trivial_flow(2, 2), F1=F, F2=F)


def test_phi_noise_corner():
    rng = np.random.default_rng(39)
    fg = random_flow(rng, 2, 1)
    F1 = random_coefficient(rng, 2, 1)
    F2 = random_coefficient(rng, 2, 1)
    phi = phi_perturbed(PerturbationSpec(theta=fg, F1=F1, F2=F2))
    x = complex_randn(rng, 2, 2)
    corner = phi(x)[2:, 2:]
    assert np.allclose(corner, dag(F1.W) @ fg.pi(x) @ F2.W - np.kron(np.eye(1), x))


def test_phi_trivial_everything_is_zero():
    phi = phi_perturbed(
        PerturbationSpec(
            theta=trivial_flow(2, 1),
            F1=BlockCoefficient(K=np.zeros((2, 2)), L=np.zeros((2, 2)), M=np.zeros((2, 2)), W=np.eye(2)),
            F2=BlockCoefficient(K=np.zeros((2, 2)), L=np.zeros((2, 2)), M=np.zeros((2, 2)), W=np.eye(2)),
        )
    )
    rng = np.random.default_rng(40)
    assert norm2(phi(complex_randn(rng, 2, 2))) <= 1e-14


# --- psi and the implemented flow are phi with a zero or trivial side -----------

def psi_terms(theta, F: BlockCoefficient, x: np.ndarray) -> tuple:
    """The terms of psi(x) = theta(x) + iota(x) F + theta(x) Delta F, on a stack x."""
    tm = as_theta_map(theta)
    f, delta, tx = F.as_full(), delta_projection(tm.n, tm.d), tm(x)
    return tx, ampliate(x, tm.d) @ f, tx @ delta @ f


def from_hp_terms(G: BlockCoefficient, x: np.ndarray) -> tuple:
    """The terms of iota(x) G + G* iota(x) + G* Delta iota(x) Delta G, on a stack x."""
    g, delta, ix = G.as_full(), delta_projection(G.n, G.d), ampliate(x, G.d)
    return ix @ g, dag(g) @ ix, dag(g) @ delta @ ix @ delta @ g


def misses(got: np.ndarray, terms: tuple, planted: bool = False) -> np.ndarray:
    """||got - sum of terms|| per item of the stacks, over the sum of the terms'
    norms (the terms cancel: at n = 1 every inner flow is zero); planted drops
    the last term from the sum."""
    ref = sum(terms[:-1] if planted else terms)
    return norm2_stack(got - ref) / sum(norm2_stack(t) for t in terms)


def formula_case(rng, n: int, d: int, scale: float = 0.3):
    """((psi(x), its terms), (from_hp(x), its terms)) on a stack x of 5 inputs, for a
    random flow, coefficient F and unitary-type G."""
    fg, F, G = random_flow(rng, n, d), random_coefficient(rng, n, d, scale), inner_coefficient(rng, n, d)
    x = np.stack([complex_randn(rng, n, n) for _ in range(5)])
    return (psi_map(fg, F)(x), psi_terms(fg, F, x)), (from_hp_coefficient(G)(x), from_hp_terms(G, x))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), d=st.integers(1, 3))
def test_psi_map_and_from_hp_coefficient_are_their_formulas(seed, n, d):
    for got, terms in formula_case(np.random.default_rng(seed), n, d):
        assert max(misses(got, terms)) <= 1e-13


def test_formula_pins_catch_a_dropped_term():
    # planted: psi without theta(x) Delta F, from_hp without G* Delta iota(x) Delta G;
    # n >= 2, as at n = 1 theta is zero; measured: at least 0.27 relative for both
    rng = np.random.default_rng(69)
    for _ in range(20):
        n, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        for got, terms in formula_case(rng, n, d, scale=1.0):
            assert min(misses(got, terms, planted=True)) >= 1e-2


def perturbed_twice_and_once(rng, n: int, d: int, drive: str, scale: float, law=compose):
    """(phi of phi(theta, G1, G2) perturbed by (F1, F2), phi(theta, G1 (+) F1, G2 (+) F2))
    on a stack of 5 inputs, with (+) read as law."""
    theta, _ = _driven(rng, n, d, drive)
    G1, G2, F1, F2 = (random_coefficient(rng, n, d, scale) for _ in range(4))
    x = np.stack([complex_randn(rng, n, n) for _ in range(5)])
    inner = phi_perturbed(PerturbationSpec(theta=theta, F1=G1, F2=G2))
    twice = phi_perturbed(PerturbationSpec(theta=inner, F1=F1, F2=F2))(x)
    once = phi_perturbed(PerturbationSpec(theta=theta, F1=law(G1, F1), F2=law(G2, F2)))(x)
    return twice, once


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    d=st.integers(1, 3),
    drive=st.sampled_from(["flow", "hp", "trivial"]),
)
def test_perturbing_a_perturbation_composes_the_coefficients(seed, n, d, drive):
    # phi(phi(theta, G1, G2), F1, F2) = phi(theta, G1 (+) F1, G2 (+) F2), for a
    # FlowGenerator theta, an implemented flow or the trivial flow
    twice, once = perturbed_twice_and_once(np.random.default_rng(seed), n, d, drive, scale=0.5)
    assert max(norm2_stack(twice - once) / norm2_stack(once)) <= 1e-13


def test_composition_leg_fails_in_the_reversed_order():
    # planted: F (+) G in place of G (+) F; measured: at least 0.35 relative over
    # these draws (0.24 over 300 seeds).  Seeded, not under hypothesis: a zero
    # coefficient commutes with every other under (+).
    rng = np.random.default_rng(70)
    for _ in range(20):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        drive = str(rng.choice(["flow", "hp"]))
        twice, once = perturbed_twice_and_once(rng, n, d, drive, scale=1.0, law=lambda G, F: compose(F, G))
        assert min(norm2_stack(twice - once) / norm2_stack(once)) >= 1e-2


# --- the Markov generator on the scalar corner ---------------------------------

def test_vacuum_generator_ignores_m_and_w():
    # The scalar corner depends only on (K, L) of each side, so both canonical
    # transforms leave it untouched, exactly.
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        fg = random_flow(rng, n, d)
        F1 = random_coefficient(rng, n, d)
        F2 = random_coefficient(rng, n, d)
        base = vacuum_generator(phi_perturbed(PerturbationSpec(theta=fg, F1=F1, F2=F2)))
        for tf in (transform_prime, transform_double_prime):
            other = vacuum_generator(
                phi_perturbed(PerturbationSpec(theta=fg, F1=tf(F1), F2=tf(F2)))
            )
            assert norm2(base.mat - other.mat) <= 1e-12 * (1.0 + norm2(base.mat))


def test_vacuum_generator_damping_example():
    # the damping flow unperturbed, and the trivial flow perturbed by the gauge-free
    # damping pair on both sides: the same generator, with |1><1| decaying at rate 1
    fg = FlowGenerator(h=np.zeros((2, 2)), l=SIGMA_MINUS, W=np.eye(2))
    zero = gauge_free(np.zeros((2, 2)), np.zeros((2, 2)))
    G = composed_vacuum_generator(hp_coefficient_for_flow(fg), zero, zero)
    assert np.allclose(G.apply(KET1), -KET1)
    F = damping_coefficient()
    spec = PerturbationSpec(theta=trivial_flow(2, 1), F1=F, F2=F)
    H = vacuum_generator(phi_perturbed(spec))
    assert np.allclose(H.apply(KET1), -KET1)
    assert norm2(H.apply(np.eye(2))) <= 1e-14


def test_vacuum_generator_unitality_criterion():
    rng = np.random.default_rng(43)
    fg = random_flow(rng, 2, 1)
    l1, l2 = complex_randn(rng, 2, 2), complex_randn(rng, 2, 2)
    k2 = complex_randn(rng, 2, 2)
    k1 = -dag(k2 + dag(l1) @ l2)  # k1* + l1* l2 + k2 = 0
    G = composed_vacuum_generator(hp_coefficient_for_flow(fg), gauge_free(k1, l1), gauge_free(k2, l2))
    assert norm2(G.apply(np.eye(2))) <= 1e-12
    P = semigroup_at(G, 1.5)
    assert is_unital(P, tol=1e-9)


def test_composed_vacuum_generator_shape_checks():
    # a malformed gauge-free pair is refused by its coefficient, and a well-formed
    # one of other dimensions by the composition with the drive
    G = hp_coefficient_for_flow(trivial_flow(2, 1))
    zero = np.zeros((2, 2))
    with pytest.raises(DimensionMismatchError):
        gauge_free(zero, np.zeros((3, 2)))
    with pytest.raises(DimensionMismatchError):
        gauge_free(np.zeros((1, 2)), zero)
    with pytest.raises(DimensionMismatchError):
        composed_vacuum_generator(G, gauge_free(zero, np.zeros((4, 2))), gauge_free(zero, zero))


# --- semigroups ----------------------------------------------------------------

def test_semigroup_at_zero_is_identity():
    rng = np.random.default_rng(44)
    G = Superoperator(n=2, mat=complex_randn(rng, 4, 4))
    assert np.allclose(semigroup_at(G, 0.0).mat, np.eye(4))


def test_semigroup_rejects_negative_time():
    with pytest.raises(ValueError):
        semigroup_at(Superoperator.identity(2), -0.1)


@pytest.mark.parametrize("t", [-0.1, np.nan, np.inf, -np.inf])
def test_semigroups_refuse_a_time_that_is_not_finite_and_nonnegative(t):
    # a NaN or Inf time would otherwise come back as an all-NaN P_t
    G = Superoperator.identity(2)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        semigroup_at(G, t)
    for times in ([t], [0.5, t, 1.0]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            semigroup_stack(G, times)


def test_semigroup_damping_decay():
    fg = FlowGenerator(h=np.zeros((2, 2)), l=SIGMA_MINUS, W=np.eye(2))
    zero = gauge_free(np.zeros((2, 2)), np.zeros((2, 2)))
    G = composed_vacuum_generator(hp_coefficient_for_flow(fg), zero, zero)
    for t in (0.5, 1.0, 2.0):
        out = semigroup_at(G, t).apply(KET1)
        assert norm2(out - np.exp(-t) * KET1) <= 1e-10


def test_semigroup_hamiltonian_conjugation():
    rng = np.random.default_rng(45)
    h = random_hermitian(rng, 3)
    fg = FlowGenerator(h=h, l=np.zeros((3, 3)), W=np.eye(3))
    zero = gauge_free(np.zeros((3, 3)), np.zeros((3, 3)))
    G = composed_vacuum_generator(hp_coefficient_for_flow(fg), zero, zero)
    x = complex_randn(rng, 3, 3)
    from qfk.linalg import expm

    for t in (0.3, 1.0):
        expected = expm(-1j * t * h) @ x @ expm(1j * t * h)
        assert norm2(semigroup_at(G, t).apply(x) - expected) <= 1e-10 * (1.0 + norm2(x))


def test_semigroup_property():
    rng = np.random.default_rng(46)
    fg = random_flow(rng, 2, 1)
    l1, l2, k1, k2 = (complex_randn(rng, 2, 2) for _ in range(4))
    G = composed_vacuum_generator(hp_coefficient_for_flow(fg), gauge_free(k1, l1), gauge_free(k2, l2))
    s, t = 0.4, 0.9
    lhs = semigroup_at(G, s + t).mat
    rhs = (semigroup_at(G, s) @ semigroup_at(G, t)).mat
    assert norm2(lhs - rhs) <= 1e-10 * (1.0 + norm2(lhs))


# --- block superoperators of phi ------------------------------------------------

def test_block_superoperators_match_from_map_blockwise():
    # The same n^2 evaluations of phi, rearranged: equal to from_map bit for bit.
    rng = np.random.default_rng(60)
    for _ in range(8):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        phi = random_phi(rng, n, d)
        blocks = block_superoperators(phi)
        assert blocks.shape == (d + 1, d + 1, n * n, n * n)
        for mu in range(d + 1):
            for nu in range(d + 1):
                ref = Superoperator.from_map(
                    lambda x: phi(x)[..., mu * n : (mu + 1) * n, nu * n : (nu + 1) * n], n
                )
                assert np.array_equal(blocks[mu, nu], ref.mat)


@pytest.mark.parametrize(("n", "d", "budget"), [(3, 1, 36 * 4), (4, 2, 144 * 5), (5, 1, 1), (2, 3, CHUNK_ENTRIES)])
def test_block_superoperators_chunk_the_units_within_the_entry_budget(monkeypatch, n, d, budget):
    # 4, 5, 1 and all 4 units per call: the columns are those of from_map, bit for bit
    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", budget)
    phi = random_phi(np.random.default_rng(62), n, d)
    rows = []
    counting = OperatorMap(n=n, d=d, fn=lambda x: rows.append(x.shape[0]) or phi(x))
    blocks = block_superoperators(counting)
    per_call = max(1, budget // ((d + 1) * n) ** 2)
    assert rows == [min(per_call, n * n - start) for start in range(0, n * n, per_call)]
    for mu in range(d + 1):
        for nu in range(d + 1):
            ref = Superoperator.from_map(lambda x: phi(x)[mu * n : (mu + 1) * n, nu * n : (nu + 1) * n], n)
            assert np.array_equal(blocks[mu, nu], ref.mat)


def test_vacuum_generator_equals_from_map_of_scalar_corner_bit_for_bit():
    # stacked calls on the matrix units against n^2 single calls, and against one
    # stacked call per column of units: y[i, p, q] -> [q, p, i]
    rng = np.random.default_rng(61)
    for _ in range(30):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        phi = random_phi(rng, n, d)

        def corner(x):
            return phi(x)[..., :n, :n]

        G = vacuum_generator(phi).mat
        assert np.array_equal(G, Superoperator.from_map(corner, n).mat)
        cols = []
        for j in range(n):
            units = np.zeros((n, n, n), dtype=complex)
            units[np.arange(n), np.arange(n), j] = 1.0
            cols.append(corner(units).transpose(2, 1, 0).reshape(n * n, n))
        assert np.array_equal(G, np.hstack(cols))


def test_block_superoperators_refuse_a_working_set_over_the_cap(monkeypatch):
    # phi is never called: the refusal comes before any evaluation or allocation
    never = OperatorMap(n=3, d=1, fn=lambda x: pytest.fail("phi evaluated"))
    monkeypatch.setattr(linalg, "DEFAULT_MEMORY_CAP", 4 * 3 ** 4 * 16)
    with pytest.raises(linalg.MemoryCapExceededError, match="dense operators on C\\^9"):
        block_superoperators(never)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_superoperators_cap_covers_measured_peak(monkeypatch, d):
    # a cap one byte below what the assembly allocates at n = 8 must stop it
    # beforehand, with less than one superoperator allocated
    phi = random_phi(np.random.default_rng(64), 8, d)
    block_superoperators(phi)
    peak = traced_peak(lambda: block_superoperators(phi))
    monkeypatch.setattr(linalg, "DEFAULT_MEMORY_CAP", peak - 1)
    refused = traced_peak(lambda: pytest.raises(linalg.MemoryCapExceededError, block_superoperators, phi))
    assert refused < 8 ** 4 * 16


# --- the closed-form vacuum generator of a driven flow -------------------------

def _driven(rng, n: int, d: int, drive: str, scale: float = 0.4):
    """(theta, G): a flow and a drive G whose inner flow is theta."""
    fg = trivial_flow(n, d) if drive == "trivial" else random_flow(rng, n, d, scale)
    G = hp_coefficient_for_flow(fg)
    return (from_hp_coefficient(G) if drive == "hp" else fg), G


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    d=st.integers(1, 3),
    drive=st.sampled_from(["flow", "hp", "trivial"]),
)
def test_composed_vacuum_generator_is_the_phi_unit_reading(seed, n, d, drive):
    # a FlowGenerator theta, the inner flow of a unitary-type drive, or the
    # trivial flow; general F_i (M and W included)
    rng = np.random.default_rng(seed)
    theta, G = _driven(rng, n, d, drive)
    F1, F2 = random_coefficient(rng, n, d, scale=0.5), random_coefficient(rng, n, d, scale=0.5)
    ref = vacuum_generator(phi_perturbed(PerturbationSpec(theta=theta, F1=F1, F2=F2))).mat
    got = composed_vacuum_generator(G, F1, F2).mat
    assert norm2(got - ref) <= 1e-13 * norm2(ref)


@pytest.mark.parametrize("planted", [
    lambda G, F: compose(F, G),  # the product in the other order
    lambda G, F: BlockCoefficient.from_full(G.as_full() + F.as_full(), G.n),  # G Delta F dropped
], ids=["swapped", "no_G_Delta_F"])
def test_composed_vacuum_generator_controls_fail_on_nontrivial_flows(monkeypatch, planted):
    # measured: at least 0.24 (swapped) and 0.034 (dropped) relative over 300 draws
    monkeypatch.setattr(qfk.perturbations, "compose", planted)
    rng = np.random.default_rng(66)
    for _ in range(20):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        theta, G = _driven(rng, n, d, str(rng.choice(["flow", "hp"])), scale=1.0)
        F1, F2 = random_coefficient(rng, n, d, scale=1.0), random_coefficient(rng, n, d, scale=1.0)
        ref = vacuum_generator(phi_perturbed(PerturbationSpec(theta=theta, F1=F1, F2=F2))).mat
        got = composed_vacuum_generator(G, F1, F2).mat
        assert norm2(got - ref) >= 1e-2 * norm2(ref)


def test_composed_vacuum_generator_is_the_phi_corner_for_gauge_free_pairs():
    # gauge-free pairs at unit scale, where the corner is Ldb(x) + l1* delta(x)
    # + l1* pi(x) l2 + delta(x*)* l2 + k1* x + x k2
    rng = np.random.default_rng(67)
    for _ in range(10):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        fg = random_flow(rng, n, d)
        l1, l2 = complex_randn(rng, d * n, n), complex_randn(rng, d * n, n)
        k1, k2 = complex_randn(rng, n, n), complex_randn(rng, n, n)
        F1, F2 = gauge_free(k1, l1), gauge_free(k2, l2)
        ref = vacuum_generator(phi_perturbed(PerturbationSpec(theta=fg, F1=F1, F2=F2))).mat
        got = composed_vacuum_generator(hp_coefficient_for_flow(fg), F1, F2).mat
        assert norm2(got - ref) <= 1e-13 * norm2(ref)


# --- all the blocks of a driven flow in closed form ---------------------------

def _blocks_by_units(theta, F1, F2) -> np.ndarray:
    return block_superoperators(phi_perturbed(PerturbationSpec(theta=theta, F1=F1, F2=F2)))


def _relative(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    d=st.integers(1, 3),
    drive=st.sampled_from(["flow", "hp", "trivial"]),
)
def test_composed_blocks_are_the_phi_unit_reading(seed, n, d, drive):
    rng = np.random.default_rng(seed)
    theta, G = _driven(rng, n, d, drive)
    F1, F2 = random_coefficient(rng, n, d, scale=0.5), random_coefficient(rng, n, d, scale=0.5)
    got = composed_blocks(G, F1, F2)
    assert got.shape == (d + 1, d + 1, n * n, n * n)
    assert _relative(got, _blocks_by_units(theta, F1, F2)) <= 1e-13
    # the (0, 0) block is the vacuum generator (one product over j of other
    # shapes, so equal up to the rounding of that product)
    assert _relative(got[0, 0], composed_vacuum_generator(G, F1, F2).mat) <= 1e-14


def _plant(name: str):
    """_composed with one mistake in its formula."""
    composed = qfk.perturbations._composed

    def planted(H1, H2, s):
        n = H1.n
        if name == "swapped":
            return composed(H2, H1, s)
        if name == "no_conjugate":  # (H1^{nu mu})^T in place of its adjoint
            return composed(BlockCoefficient.from_full(H1.as_full().conj(), n), H2, s)
        out = composed(H1, H2, s)  # j = 0 in the sum: add (H2^{0 nu})^T (x) (H1^{0 mu})*
        h1, h2 = (H.as_full().reshape(s, n, s, n) for H in (H1, H2))
        for mu, nu in itertools.product(range(s), repeat=2):
            out[mu, nu] += np.kron(h2[0, :, nu, :].T, dag(h1[0, :, mu, :]))
        return out

    return planted


@pytest.mark.parametrize("name", ["swapped", "no_conjugate", "j0_in_sum"])
def test_composed_blocks_controls_fail(monkeypatch, name):
    monkeypatch.setattr(qfk.perturbations, "_composed", _plant(name))
    rng = np.random.default_rng(68)
    for _ in range(20):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        theta, G = _driven(rng, n, d, str(rng.choice(["flow", "hp"])), scale=1.0)
        F1, F2 = random_coefficient(rng, n, d, scale=1.0), random_coefficient(rng, n, d, scale=1.0)
        assert _relative(composed_blocks(G, F1, F2), _blocks_by_units(theta, F1, F2)) >= 1e-2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_composed_blocks_cap_covers_measured_peak(monkeypatch, d):
    # a cap one byte below what the closed form allocates at n = 8 must stop it
    # beforehand, with less than one superoperator allocated
    rng = np.random.default_rng(69)
    G, F1, F2 = inner_coefficient(rng, 8, d), random_coefficient(rng, 8, d), random_coefficient(rng, 8, d)
    composed_blocks(G, F1, F2)
    peak = traced_peak(lambda: composed_blocks(G, F1, F2))
    monkeypatch.setattr(linalg, "DEFAULT_MEMORY_CAP", peak - 1)
    refused = traced_peak(lambda: pytest.raises(linalg.MemoryCapExceededError, composed_blocks, G, F1, F2))
    assert refused < 8 ** 4 * 16


# --- the perturbed flow is a flow, in closed form -----------------------------

def perturbed_flow_case(rng, n: int, d: int, scale: float, law=compose):
    """(the blocks of phi for theta perturbed by F on both sides, the flow
    flow_of(G (+) F) with (+) read as law, sigma = (1 + ||G||_F)^2 (1 + ||F||_F)^2):
    theta a random flow at scale with drive G, and F the drive of a second one."""
    theta = random_flow(rng, n, d, scale)
    G, F = hp_coefficient_for_flow(theta), hp_coefficient_for_flow(random_flow(rng, n, d, scale))
    sigma = ((1 + np.linalg.norm(G.as_full())) * (1 + np.linalg.norm(F.as_full()))) ** 2
    return _blocks_by_units(theta, F, F), flow_of(law(G, F)), sigma


def _block_miss(got: np.ndarray, ref: np.ndarray) -> float:
    """The largest spectral-norm miss over the blocks."""
    return float(norm2_stack((got - ref).reshape(-1, *got.shape[2:])).max())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), d=st.integers(1, 3), exponent=st.floats(-2, 1))
def test_a_flow_perturbed_by_a_unitary_cocycle_is_the_flow_of_the_product(seed, n, d, exponent):
    # phi(theta, F, F) generates the flow that G (+) F, the coefficient of the product
    # of the two unitary cocycles, implements (Hudson and Parthasarathy).  The bound is
    # a measured worst case: 8.0e-17 sigma over 3000 draws at these sizes and scales
    # 1e-2 to 10, so 1e-15 sigma leaves a margin of 12.  At n = 1 every block is zero
    # to rounding, so the miss is judged at sigma, not relative to the blocks.
    blocks, flow, sigma = perturbed_flow_case(np.random.default_rng(seed), n, d, 10.0 ** exponent)
    assert _block_miss(blocks, block_superoperators(flow.as_map())) <= 1e-15 * sigma
    assert structure_defects(flow, 1e-11).passed


def test_perturbed_flow_control_fails_in_the_reversed_order():
    # planted: F (+) G in place of G (+) F, at n >= 2 (at n = 1 every flow's blocks
    # vanish); measured: at least 2.0e-4 sigma over 2000 draws at unit scale, where
    # the commutator of the two W blocks keeps the miss from vanishing
    rng = np.random.default_rng(71)
    for _ in range(20):
        n, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        blocks, flow, sigma = perturbed_flow_case(rng, n, d, 1.0, law=lambda G, F: compose(F, G))
        assert _block_miss(blocks, block_superoperators(flow.as_map())) >= 1e-4 * sigma


# --- Choi matrix and the semigroup flags ----------------------------------------

def test_choi_of_identity_map():
    P = Superoperator.identity(2)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            expected[i * 2 : (i + 1) * 2, j * 2 : (j + 1) * 2] = unit
    assert np.allclose(choi_matrix(P), expected)
    assert is_cp(P)


def choi_by_units(P: Superoperator) -> np.ndarray:
    """Reference: sum_ij E_ij (x) P(E_ij), one apply per matrix unit."""
    n = P.n
    out = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            out[i * n : (i + 1) * n, j * n : (j + 1) * n] = P.apply(unit)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_choi_matrix_equals_unit_loop(n):
    rng = np.random.default_rng(62 + n)
    P = Superoperator(n=n, mat=complex_randn(rng, n * n, n * n))
    assert np.array_equal(choi_matrix(P), choi_by_units(P))


def test_transpose_map_is_not_cp():
    P = Superoperator.from_map(lambda x: x.T, 2)
    evals = np.linalg.eigvalsh(choi_matrix(P))
    assert abs(evals[0] + 1.0) <= 1e-12
    assert not is_cp(P)


def test_cp_semigroup_from_matched_sides():
    rng = np.random.default_rng(47)
    fg = random_flow(rng, 2, 1)
    l = complex_randn(rng, 2, 2)
    k = complex_randn(rng, 2, 2)
    G = composed_vacuum_generator(hp_coefficient_for_flow(fg), gauge_free(k, l), gauge_free(k, l))
    for t in (0.1, 1.0):
        assert is_cp(semigroup_at(G, t))


def test_contractive_cp_semigroup():
    rng = np.random.default_rng(48)
    fg = random_flow(rng, 2, 1)
    l = complex_randn(rng, 2, 2)
    k = 1j * random_hermitian(rng, 2) - 0.5 * dag(l) @ l - 0.3 * np.eye(2)
    G = composed_vacuum_generator(hp_coefficient_for_flow(fg), gauge_free(k, l), gauge_free(k, l))
    assert min_eig_hermitian(dag(k) + k + dag(l) @ l) <= 1e-12
    for t in (0.1, 1.0, 5.0):
        P = semigroup_at(G, t)
        assert is_cp(P)
        assert norm2(P.apply(np.eye(2))) <= 1.0 + 1e-10
