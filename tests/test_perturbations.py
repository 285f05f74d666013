import numpy as np
import pytest

from qfk.coefficients import BlockCoefficient, transform_double_prime, transform_prime
from qfk.flows import (
    FlowGenerator,
    OperatorMap,
    as_theta_map,
    from_hp_coefficient,
    hp_coefficient_for_flow,
    theta_components,
    trivial_flow,
)
from qfk.linalg import (
    DimensionMismatchError,
    complex_randn,
    dag,
    min_eig_hermitian,
    norm2,
    random_hermitian,
)
from qfk.perturbations import (
    PerturbationSpec,
    Superoperator,
    block_superoperators,
    choi_matrix,
    fk_generator,
    is_cp,
    is_unital,
    phi_perturbed,
    phi_perturbed_blockform,
    psi_map,
    semigroup_at,
    unvec,
    vacuum_generator,
    vec,
)

from conftest import SIGMA_MINUS, damping_coefficient, random_coefficient, random_flow, random_phi

KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def gauge_free(k: np.ndarray, l: np.ndarray) -> BlockCoefficient:
    dn = l.shape[0]
    return BlockCoefficient(K=k, L=l, M=-dag(l), W=np.eye(dn))


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
    assert norm2(psi(np.eye(2)) - F.as_full()) <= 1e-13 * (1.0 + F.norm())


def test_psi_dimension_mismatch():
    rng = np.random.default_rng(36)
    with pytest.raises(DimensionMismatchError):
        psi_map(trivial_flow(2, 1), random_coefficient(rng, 2, 2))


def test_spec_dimension_mismatch():
    rng = np.random.default_rng(37)
    F = random_coefficient(rng, 2, 1)
    with pytest.raises(DimensionMismatchError):
        PerturbationSpec(theta=trivial_flow(2, 2), F1=F, F2=F)


def test_phi_matches_blockform():
    rng = np.random.default_rng(38)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        spec = PerturbationSpec(
            theta=random_flow(rng, n, d),
            F1=random_coefficient(rng, n, d, scale=0.6),
            F2=random_coefficient(rng, n, d, scale=0.6),
        )
        phi = phi_perturbed(spec)
        phib = phi_perturbed_blockform(spec)
        for _ in range(8):
            x = complex_randn(rng, n, n)
            assert norm2(phi(x) - phib(x)) <= 1e-11 * (1.0 + norm2(x))


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


# --- the Markov generator on the scalar corner ---------------------------------

def test_fk_generator_matches_vacuum_corner():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        fg = random_flow(rng, n, d)
        l1, l2 = complex_randn(rng, d * n, n), complex_randn(rng, d * n, n)
        k1, k2 = complex_randn(rng, n, n), complex_randn(rng, n, n)
        G = fk_generator(fg, l1, l2, k1, k2)
        spec = PerturbationSpec(theta=fg, F1=gauge_free(k1, l1), F2=gauge_free(k2, l2))
        H = vacuum_generator(phi_perturbed(spec))
        assert norm2(G.mat - H.mat) <= 1e-11 * (1.0 + norm2(G.mat))


def test_fk_generator_equals_from_map_bit_for_bit():
    # n stacked calls, one per column of matrix units, against n^2 single calls
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        fg = random_flow(rng, n, d)
        l1, l2 = complex_randn(rng, d * n, n), complex_randn(rng, d * n, n)
        k1, k2 = complex_randn(rng, n, n), complex_randn(rng, n, n)

        tm = fg.as_map()

        def fn(x):
            lx, dx, dxd, px = theta_components(tm, x)
            return lx + dag(l1) @ dx + dag(l1) @ px @ l2 + dxd @ l2 + dag(k1) @ x + x @ k2

        ref = Superoperator.from_map(fn, n).mat
        G = fk_generator(fg, l1, l2, k1, k2).mat
        assert np.array_equal(G, ref)
        # the generator's own per-column reading: y[i, p, q] -> [q, p, i]
        cols = []
        for j in range(n):
            units = np.zeros((n, n, n), dtype=complex)
            units[np.arange(n), np.arange(n), j] = 1.0
            cols.append(fn(units).transpose(2, 1, 0).reshape(n * n, n))
        assert np.array_equal(G, np.hstack(cols))


def test_fk_generator_is_the_former_inline_corner_bit_for_bit():
    # fk_generator reads the scalar corner of phi_perturbed_blockform; the
    # corner it used to write out itself is the reference, for a flow
    # generator and for the inner flow of its HP coefficient
    def former(theta, l1, l2, k1, k2):
        tm = as_theta_map(theta)

        def fn(x):
            lx, dx, dxd, px = theta_components(tm, x)
            return lx + dag(l1) @ dx + dag(l1) @ px @ l2 + dxd @ l2 + dag(k1) @ x + x @ k2

        return vacuum_generator(OperatorMap(n=tm.n, d=0, fn=fn)).mat

    rng = np.random.default_rng(47)
    for _ in range(40):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        fg = random_flow(rng, n, d)
        l1, l2 = complex_randn(rng, d * n, n), complex_randn(rng, d * n, n)
        k1, k2 = complex_randn(rng, n, n), complex_randn(rng, n, n)
        for theta in (fg, from_hp_coefficient(hp_coefficient_for_flow(fg))):
            assert np.array_equal(fk_generator(theta, l1, l2, k1, k2).mat, former(theta, l1, l2, k1, k2))


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


def test_fk_generator_damping_example():
    fg = FlowGenerator(h=np.zeros((2, 2)), l=SIGMA_MINUS, W=np.eye(2))
    G = fk_generator(fg, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    assert np.allclose(G.apply(KET1), -KET1)
    # Same semigroup from a trivial flow with gauge-free damping pairs.
    F = damping_coefficient()
    spec = PerturbationSpec(theta=trivial_flow(2, 1), F1=F, F2=F)
    H = vacuum_generator(phi_perturbed(spec))
    assert np.allclose(H.apply(KET1), -KET1)
    assert norm2(H.apply(np.eye(2))) <= 1e-14


def test_fk_generator_unitality_criterion():
    rng = np.random.default_rng(43)
    fg = random_flow(rng, 2, 1)
    l1, l2 = complex_randn(rng, 2, 2), complex_randn(rng, 2, 2)
    k2 = complex_randn(rng, 2, 2)
    k1 = -dag(k2 + dag(l1) @ l2)  # k1* + l1* l2 + k2 = 0
    G = fk_generator(fg, l1, l2, k1, k2)
    assert norm2(G.apply(np.eye(2))) <= 1e-12
    P = semigroup_at(G, 1.5)
    assert is_unital(P, tol=1e-9)


def test_fk_generator_shape_checks():
    fg = trivial_flow(2, 1)
    with pytest.raises(DimensionMismatchError):
        fk_generator(fg, np.zeros((3, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        fk_generator(fg, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((2, 2)))


# --- semigroups ----------------------------------------------------------------

def test_semigroup_at_zero_is_identity():
    rng = np.random.default_rng(44)
    G = Superoperator(n=2, mat=complex_randn(rng, 4, 4))
    assert np.allclose(semigroup_at(G, 0.0).mat, np.eye(4))


def test_semigroup_rejects_negative_time():
    with pytest.raises(ValueError):
        semigroup_at(Superoperator.identity(2), -0.1)


def test_semigroup_damping_decay():
    fg = FlowGenerator(h=np.zeros((2, 2)), l=SIGMA_MINUS, W=np.eye(2))
    zero = np.zeros((2, 2))
    G = fk_generator(fg, zero, zero, zero, zero)
    for t in (0.5, 1.0, 2.0):
        out = semigroup_at(G, t).apply(KET1)
        assert norm2(out - np.exp(-t) * KET1) <= 1e-10


def test_semigroup_hamiltonian_conjugation():
    rng = np.random.default_rng(45)
    h = random_hermitian(rng, 3)
    fg = FlowGenerator(h=h, l=np.zeros((3, 3)), W=np.eye(3))
    zero = np.zeros((3, 3))
    G = fk_generator(fg, zero, zero, zero, zero)
    x = complex_randn(rng, 3, 3)
    from qfk.linalg import expm

    for t in (0.3, 1.0):
        expected = expm(-1j * t * h) @ x @ expm(1j * t * h)
        assert norm2(semigroup_at(G, t).apply(x) - expected) <= 1e-10 * (1.0 + norm2(x))


def test_semigroup_property():
    rng = np.random.default_rng(46)
    fg = random_flow(rng, 2, 1)
    G = fk_generator(fg, complex_randn(rng, 2, 2), complex_randn(rng, 2, 2),
                     complex_randn(rng, 2, 2), complex_randn(rng, 2, 2))
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


def test_vacuum_generator_matches_from_map_of_scalar_corner():
    rng = np.random.default_rng(61)
    for _ in range(8):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        phi = random_phi(rng, n, d)
        ref = Superoperator.from_map(lambda x: phi(x)[..., :n, :n], n).mat
        G = vacuum_generator(phi).mat
        assert norm2(G - ref) <= 1e-13 * norm2(ref)


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
    G = fk_generator(fg, l, l, k, k)
    for t in (0.1, 1.0):
        assert is_cp(semigroup_at(G, t))


def test_contractive_cp_semigroup():
    rng = np.random.default_rng(48)
    fg = random_flow(rng, 2, 1)
    l = complex_randn(rng, 2, 2)
    k = 1j * random_hermitian(rng, 2) - 0.5 * dag(l) @ l - 0.3 * np.eye(2)
    G = fk_generator(fg, l, l, k, k)
    assert min_eig_hermitian(dag(k) + k + dag(l) @ l) <= 1e-12
    for t in (0.1, 1.0, 5.0):
        P = semigroup_at(G, t)
        assert is_cp(P)
        assert norm2(P.apply(np.eye(2))) <= 1.0 + 1e-10
