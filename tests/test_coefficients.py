import json
from dataclasses import asdict
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfk.coefficients import (
    BlockCoefficient,
    classify,
    compose,
    contraction_decomposition,
    delta_perp,
    delta_projection,
    min_quasicontractivity_beta,
    q_form,
    q_form_adjoint,
    transform_double_prime,
    transform_prime,
)
import qfk.cli
import qfk.coefficients
from qfk.instances import (
    coefficient_from_json,
    coefficient_to_json,
    flow_to_json,
    matrix_from_pairs,
    matrix_to_pairs,
)
from qfk.linalg import (
    DimensionMismatchError,
    dag,
    min_eig_hermitian,
    norm2,
)

from beta_reference import schur_path_beta
from conftest import (
    complex_randn,
    contraction_coefficient,
    damping_coefficient,
    inner_coefficient,
    random_coefficient,
    random_flow,
    random_hermitian,
    random_unitary,
    zero_coefficient,
)


def scalar_coefficient(k=0.0, l=0.0, m=0.0, w=0.0) -> BlockCoefficient:
    return BlockCoefficient(
        K=np.array([[k]]), L=np.array([[l]]), M=np.array([[m]]), W=np.array([[w]])
    )


def q_direct(F: BlockCoefficient) -> np.ndarray:
    """Oracle: q(F) from the full matrix, no block shortcuts."""
    full = F.as_full()
    return dag(full) + full + dag(full) @ delta_projection(F.n, F.d) @ full


# --- block structure --------------------------------------------------------

def test_block_shape_validation():
    with pytest.raises(DimensionMismatchError):
        BlockCoefficient(K=np.eye(2), L=np.zeros((3, 2)), M=np.zeros((2, 3)), W=np.eye(3))
    with pytest.raises(DimensionMismatchError):
        BlockCoefficient(K=np.eye(2), L=np.zeros((2, 2)), M=np.zeros((2, 4)), W=np.eye(2))


def test_full_round_trip():
    rng = np.random.default_rng(10)
    F = random_coefficient(rng, 2, 3)
    G = BlockCoefficient.from_full(F.as_full(), 2)
    assert np.allclose(G.K, F.K) and np.allclose(G.L, F.L)
    assert np.allclose(G.M, F.M) and np.allclose(G.W, F.W)
    assert G.n == 2 and G.d == 3


def test_adjoint_is_full_adjoint_and_involutive():
    rng = np.random.default_rng(11)
    F = random_coefficient(rng, 2, 2)
    assert np.allclose(F.adjoint().as_full(), dag(F.as_full()))
    FF = F.adjoint().adjoint()
    assert np.array_equal(FF.K, F.K) and np.array_equal(FF.W, F.W)


# --- the quadratic form q ---------------------------------------------------

def test_q_form_matches_direct_assembly():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        F = random_coefficient(rng, n, d, scale=0.7)
        assert norm2(q_form(F) - q_direct(F)) <= 1e-12 * (1.0 + norm2(F.as_full())) ** 2
        assert norm2(q_form_adjoint(F) - q_direct(F.adjoint())) <= 1e-12 * (1.0 + norm2(F.as_full())) ** 2


def test_q_form_pure_drift_example():
    F = scalar_coefficient(k=1.0)
    assert np.allclose(q_form(F), np.array([[2.0, 0.0], [0.0, -1.0]]))


def test_q_adjoint_of_minus_delta_is_minus_delta():
    F = scalar_coefficient()  # full matrix is -Delta
    assert np.allclose(F.as_full(), -delta_projection(1, 1))
    assert np.allclose(q_form_adjoint(F), -delta_projection(1, 1))


def test_shift_identity():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        F = random_coefficient(rng, n, d, scale=0.6)
        beta = float(rng.normal()) * 3.0
        shifted = BlockCoefficient(K=F.K - 0.5 * beta * np.eye(n), L=F.L, M=F.M, W=F.W)
        lhs = q_form(shifted)
        rhs = q_form(F) - beta * delta_perp(n, d)
        assert norm2(lhs - rhs) <= 1e-12 * (1.0 + norm2(rhs))


def test_weyl_coefficient_is_unitary_type():
    lam, eta = 0.7 - 0.4j, 1.3
    F = BlockCoefficient(
        K=np.array([[-0.5 * abs(lam) ** 2 + 1j * eta]]),
        L=np.array([[lam]]),
        M=np.array([[-np.conj(lam)]]),
        W=np.eye(1),
    )
    assert norm2(q_form(F)) <= 1e-14
    assert norm2(q_form_adjoint(F)) <= 1e-14
    flags = classify(F)
    assert flags.isometric_gen and flags.coisometric_nec
    assert flags.contractive_gen and flags.quasicontractive


# --- quasicontractivity -----------------------------------------------------

def test_min_beta_pure_drift_is_two():
    beta = min_quasicontractivity_beta(scalar_coefficient(k=1.0))
    assert beta is not None
    assert abs(beta - 2.0) <= 1e-6


def test_min_beta_expanding_w_is_infeasible():
    assert min_quasicontractivity_beta(scalar_coefficient(w=2.0)) is None


@pytest.mark.parametrize("k", [0, 4, 8, 10])
def test_min_beta_at_the_contraction_gate_clips_c(k):
    # ||W|| <= 1 + tol passes the gate; C = I - W*W then reaches -(2 tol + tol^2)
    assert min_quasicontractivity_beta(scalar_coefficient(w=1.0 + k * 1e-9)) == 0.0


def test_min_beta_range_condition_infeasible():
    # W unitary forces M + L*W = 0; a nonzero residual has no finite beta.
    F = BlockCoefficient(
        K=np.zeros((1, 1)), L=np.zeros((1, 1)), M=np.array([[0.3]]), W=np.eye(1)
    )
    assert min_quasicontractivity_beta(F) is None


def test_min_beta_is_tight():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        F = contraction_coefficient(rng, n, d)
        beta = min_quasicontractivity_beta(F)
        assert beta is not None
        assert min_eig_hermitian(beta * delta_perp(n, d) - q_form(F)) >= -1e-7
        assert min_eig_hermitian((beta - 1e-2) * delta_perp(n, d) - q_form(F)) < -1e-3


def schur_beta(F: BlockCoefficient) -> float:
    """Oracle: lambda_max(A + B C^-1 B*) by a linear solve, for ||W|| < 1."""
    A = dag(F.K) + F.K + dag(F.L) @ F.L
    B = F.M + dag(F.L) @ F.W
    S = A + B @ np.linalg.solve(np.eye(F.L.shape[0]) - dag(F.W) @ F.W, dag(B))
    return float(np.linalg.eigvalsh((S + dag(S)) / 2.0)[-1])


COEF = st.floats(-2.0, 2.0).map(lambda v: round(v, 6))  # 0 or |v| >= 1e-6


@settings(max_examples=200, deadline=None)
@given(digits=st.integers(1, 8), k=COEF, l=COEF, m=st.floats(-20.0, 20.0).map(lambda v: round(v, 6)))
@example(digits=6, k=0.0, l=0.0, m=20.0)  # exact beta = 2.0e8
def test_min_beta_scalar_closed_form_as_w_nears_one(digits, k, l, m):
    # q(F) <= beta Delta_perp for scalars reads beta >= 2k + l^2 + (m + lw)^2 / (1 - w^2).
    # The reference forms 1 - w^2 as (1 - w)(1 + w), within a few ulps at every w,
    # so the formula itself is what is compared.  The literal 1 - w * w would add
    # eps / (1 - w^2) of its own rounding, 5e-11 at w = 1 - 1e-6.
    w = 1.0 - 10.0 ** -digits
    terms = (2.0 * k, l * l, (m + l * w) ** 2 / ((1.0 - w) * (1.0 + w)))
    beta = min_quasicontractivity_beta(scalar_coefficient(k=k, l=l, m=m, w=w))
    assert beta is not None
    assert abs(beta - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)


@pytest.mark.parametrize("digits", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("k, l, m", [(0.3, 0.7, 1.1), (0.0, 0.0, 20.0), (-0.2, 1.3, -0.9)])
def test_min_beta_scalar_exact_for_the_float_inputs(digits, k, l, m):
    # Exact rational value of 2k + l^2 + (m + lw)^2 / (1 - w^2) at the float inputs.
    w = 1.0 - 10.0 ** -digits
    K, L, M, W = (Fraction(v) for v in (k, l, m, w))
    exact = 2 * K + L * L + (M + L * W) ** 2 / (1 - W * W)
    beta = min_quasicontractivity_beta(scalar_coefficient(k=k, l=l, m=m, w=w))
    assert abs(Fraction(beta) - exact) <= Fraction(1, 10**13) * abs(exact)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), d=st.integers(1, 3))
def test_min_beta_feasible_and_exact_at_w_norm_one_minus_1e8(seed, n, d):
    F = contraction_coefficient(np.random.default_rng(seed), n, d, w_norm=1.0 - 1e-8)
    beta = min_quasicontractivity_beta(F)
    assert beta is not None
    assert min_eig_hermitian(beta * delta_perp(n, d) - q_form(F)) >= -1e-14 * (1.0 + abs(beta))
    assert abs(beta - schur_beta(F)) <= 1e-12 * abs(beta)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    d=st.integers(1, 3),
    identity_w=st.booleans(),
    kick=st.floats(1e-6, 1.0),
)
def test_min_beta_unitary_w_with_balanced_m(seed, n, d, identity_w, kick):
    # W unitary and M = -L*W: B = M + L*W = 0 and C = I - W*W = 0, so the
    # shift is lambda_max(K* + K + L*L); any M off that line leaves the range
    # of C^{1/2} = 0 and the generator is not quasicontractive.
    rng = np.random.default_rng(seed)
    dn = d * n
    if identity_w:
        W = np.eye(dn, dtype=complex)
    else:
        W, _ = np.linalg.qr(complex_randn(rng, dn, dn))
    K, L = complex_randn(rng, n, n), complex_randn(rng, dn, n)
    A = dag(K) + K + dag(L) @ L
    beta = min_quasicontractivity_beta(BlockCoefficient(K=K, L=L, M=-dag(L) @ W, W=W))
    assert beta is not None
    assert abs(beta - np.linalg.eigvalsh(A)[-1]) <= 1e-12 * (1.0 + norm2(A))
    E = complex_randn(rng, n, dn)
    M = -dag(L) @ W + kick * E / norm2(E)
    assert min_quasicontractivity_beta(BlockCoefficient(K=K, L=L, M=M, W=W)) is None


def exact_classify(F, tol):
    """classify with every gate replaced by its exact comparison: the reference."""
    def exact_gate(r, x, tol):
        return (r if isinstance(r, float) else norm2(r)), tol * (1.0 + norm2(x))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qfk.coefficients, "norm2_gate", exact_gate)
        return classify(F, tol=tol)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    d=st.integers(1, 2),
    gap=st.sampled_from([0.0, 1e-12, 1e-8, 1e-6, 1e-3, 1e-1, -1e-9, -1e-6]),
    ratio=st.sampled_from([None, 1e-3, 1 - 1e-6, 1.0, 1 + 1e-6, 1e3]),
    balanced_m=st.booleans(),
    tol=st.sampled_from([1e-10, 1e-8, 1e-6]),
)
def test_classify_flags_equal_the_exact_norm_reference(seed, n, d, gap, ratio, balanced_m, tol):
    """||W|| = 1 - gap walks to 1 (and just past it); with M = -L*W and K =
    ih - L*L/2 plus eps v v*, q(F) and q(F*) are 2 eps v v* up to rounding, so
    ratio puts the isometric, coisometric and contractive verdicts at their
    bound tol (1 + ||F||) or far from it.  The gated flags, beta included, are
    those of the exact comparisons, and they are Python bools."""
    rng = np.random.default_rng(seed)
    dn = d * n
    sv = np.concatenate([[1.0 - gap], rng.uniform(0.2, 1.0 - gap, dn - 1) if gap > 0 else np.ones(dn - 1)])
    W = random_unitary(rng, dn) @ np.diag(sv) @ random_unitary(rng, dn)
    L = 0.5 * complex_randn(rng, dn, n)
    M = -dag(L) @ W if balanced_m else 0.5 * complex_randn(rng, n, dn)
    K = 1j * random_hermitian(rng, n, 0.5) - 0.5 * dag(L) @ L
    if ratio is not None:
        base = BlockCoefficient(K=K, L=L, M=M, W=W)
        v = complex_randn(rng, n, 1)
        v /= norm2(v)
        K = K + 0.5 * ratio * tol * (1.0 + norm2(base.as_full())) * (v @ dag(v))
    F = BlockCoefficient(K=K, L=L, M=M, W=W)
    flags = classify(F, tol=tol)
    assert flags == exact_classify(F, tol)
    verdicts = (flags.isometric_gen, flags.coisometric_nec, flags.contractive_gen, flags.quasicontractive)
    assert all(type(v) is bool for v in verdicts)
    json.dumps(asdict(classify(F, tol=np.float64(tol))))


def test_check_decomposes_each_matrix_once(tmp_path, capsys, monkeypatch):
    # a strict contraction far from every class bound and an exact flow, where the
    # Frobenius gates settle every norm comparison: one check run takes one eigh (C,
    # for beta), two eigvalsh (lambda_max(q(F)), then beta) and one batched SVD (the
    # flow's five norms), and no other decomposition
    rng = np.random.default_rng(90)
    n, d = 2, 2
    F, fg = contraction_coefficient(rng, n, d), random_flow(rng, n, d)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"coefficient": coefficient_to_json(F), "flow": flow_to_json(fg)}))
    expected = exact_classify(F, 1e-8)
    calls = []
    for name in ("svd", "eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _fn=fn, _name=name, **kw:
                            calls.append((_name, np.shape(a))) or _fn(a, *args, **kw))
    assert qfk.cli.main(["check", "--instance", str(path)]) == 0
    dn = d * n
    assert calls == [("eigvalsh", (n + dn, n + dn)), ("eigh", (dn, dn)), ("eigvalsh", (n, n)), ("svd", (5, dn, dn))]
    assert json.loads(capsys.readouterr().out)["coefficient"] == asdict(expected)


def mp_schur_beta(F: BlockCoefficient) -> float:
    """lambda_max(A + B C^-1 B*) at 60 digits, C = I - W*W of the float W: the exact
    Schur value of a strict contraction's float inputs, to the printed digit."""
    with mpmath.workdps(60):
        K, L, M, W = (mpmath.matrix(x.tolist()) for x in (F.K, F.L, F.M, F.W))
        B = M + L.H * W
        S = K.H + K + L.H * L + B * mpmath.inverse(mpmath.eye(W.rows) - W.H * W) * B.H
        return float(max(mpmath.eighe((S + S.H) / 2, eigvals_only=True)))


def beta_draw(rng, n: int, d: int, kind: str, tol: float) -> BlockCoefficient:
    """A coefficient of one kind for the beta oracle."""
    dn = d * n
    K, L, M = 0.5 * complex_randn(rng, n, n), 0.5 * complex_randn(rng, dn, n), 0.5 * complex_randn(rng, n, dn)
    if kind == "random":
        return random_coefficient(rng, n, d)
    if kind == "contraction":
        return contraction_coefficient(rng, n, d, w_norm=rng.uniform(0.05, 1.0))
    if kind == "e_form":
        # W = exp(s (i H - P)), P >= 0: a contraction with ||I - W||_F of order s <= 1e-3
        H, P = random_hermitian(rng, dn), complex_randn(rng, dn, dn)
        P = P @ dag(P)
        W = scipy.linalg.expm(10 ** rng.uniform(-6, -3) * (1j * H / norm2(H) - P / norm2(P)))
        return BlockCoefficient(K=K, L=L, M=M, W=W)
    if kind == "gate":
        # ||W|| = 1 + tol +- 1e-9, and B = M + L*W has no part along the top singular
        # vector, so the contraction gate alone decides
        s = np.concatenate([[1 + tol + rng.uniform(-1e-9, 1e-9)], rng.uniform(0.2, 0.9, dn - 1)])
        U, Vh = random_unitary(rng, dn), random_unitary(rng, dn)
        W, v0 = (U * s) @ Vh, dag(Vh)[:, :1]
        return BlockCoefficient(K=K, L=L, M=M @ (np.eye(dn) - v0 @ dag(v0)) - dag(L) @ W, W=W)
    if kind == "isometric":
        return inner_coefficient(rng, n, d)
    if kind == "infeasible":
        # a unitary W with a random M leaves the range of C^{1/2} = 0; 2 U fails the gate
        return BlockCoefficient(K=K, L=L, M=M, W=random_unitary(rng, dn) * rng.choice([1.0, 2.0]))
    # W*W overflows
    return BlockCoefficient(K=K, L=L, M=M, W=1e160 * random_unitary(rng, dn))


BETA_KINDS = ("random", "contraction", "e_form", "gate", "isometric", "infeasible", "overflow")


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), d=st.integers(1, 3),
       kind=st.sampled_from(BETA_KINDS), tol=st.sampled_from([1e-10, 1e-8, 1e-6]))
def test_min_beta_from_one_eigh_is_the_three_decomposition_path(seed, n, d, kind, tol):
    # feasibility agrees outside a 1e-12 band at the gate, and beta within 1e-12 (1 + |beta|).
    # Where the two differ by more, C has an eigenvalue just above the cutoff, which the
    # explicit root and its SVD condition twice (1.1e-11 over 1000 gate draws): there
    # the one-eigh beta must be the nearer to the exact Schur value, within 1e-12
    F = beta_draw(np.random.default_rng(seed), n, d, kind, tol)
    beta, reference = min_quasicontractivity_beta(F, tol), schur_path_beta(F, tol)
    if abs(norm2(F.W) - (1 + tol)) > 1e-12 * (1 + tol):
        assert (beta is None) == (reference is None)
    assert (beta is None) == (kind in ("infeasible", "overflow")) or kind in ("random", "gate")
    if beta is None or reference is None or abs(beta - reference) <= 1e-12 * (1 + abs(reference)):
        return
    exact = mp_schur_beta(F)
    assert abs(beta - exact) <= min(abs(reference - exact), 1e-12 * (1 + abs(exact)))


def test_prime_transform_always_quasicontractive():
    rng = np.random.default_rng(15)
    for _ in range(20):
        F = random_coefficient(rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        assert min_quasicontractivity_beta(transform_prime(F)) is not None


# --- contraction decomposition ----------------------------------------------

def test_decomposition_zero_coefficient():
    b1, v1 = contraction_decomposition(zero_coefficient(1, 1), beta=0.0)
    assert np.allclose(b1, 0.0) and np.allclose(v1, 0.0)


def test_decomposition_isometric_example():
    F = scalar_coefficient(k=-0.5, l=1.0)
    b1, v1 = contraction_decomposition(F, beta=0.0)
    assert np.allclose(b1, 0.0) and np.allclose(v1, 0.0)


def test_decomposition_pure_drift_at_min_beta():
    b1, v1 = contraction_decomposition(scalar_coefficient(k=1.0), beta=2.0)
    assert np.allclose(b1, 0.0)


def test_decomposition_reconstructs():
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        F = contraction_coefficient(rng, n, d)
        beta = min_quasicontractivity_beta(F)
        out = contraction_decomposition(F, beta + 1e-6)
        assert out is not None
        b1, v1 = out
        assert min_eig_hermitian(b1) >= -1e-8
        assert norm2(v1) <= 1.0 + 1e-8
        gram_root_sq = np.eye(d * n) - dag(F.W) @ F.W
        from qfk.linalg import sqrtm_psd

        lhs = sqrtm_psd(b1) @ v1 @ sqrtm_psd(gram_root_sq)
        assert norm2(lhs - (F.M + dag(F.L) @ F.W)) <= 1e-6 * (1.0 + norm2(F.M))


def test_decomposition_reports_tolerance_inconsistency():
    # Engineered to pass the PSD precondition at tolerance while the
    # least-squares contraction overshoots ||v1|| = 1: must return None.
    beta = 1e-7
    m = np.sqrt(beta * 0.75) * 1.01
    F = scalar_coefficient(m=m, w=0.5)
    assert contraction_decomposition(F, beta) is None


def test_decomposition_precondition_raises():
    with pytest.raises(ValueError):
        contraction_decomposition(scalar_coefficient(k=1.0), beta=0.0)


def test_decomposition_just_past_norm_one_clips_c():
    # the precondition admits C = I - W*W down to -tol (1 + ||q(F)||), here -1.6e-8
    b1, v1 = contraction_decomposition(scalar_coefficient(k=-5.0, w=1.0 + 8e-9), beta=0.0)
    assert np.allclose(b1, 10.0) and np.allclose(v1, 0.0)


# --- the two canonical transforms -------------------------------------------

def test_prime_transform_full_matrix_identity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        F = random_coefficient(rng, n, d)
        expected = F.as_full() @ delta_perp(n, d) - delta_projection(n, d)
        assert norm2(transform_prime(F).as_full() - expected) <= 1e-14 * (1.0 + norm2(F.as_full()))


def test_double_prime_transform_blocks():
    F = damping_coefficient()
    G = transform_double_prime(F)
    assert np.array_equal(G.K, F.K) and np.array_equal(G.L, F.L)
    assert np.allclose(G.M, -dag(F.L)) and np.allclose(G.W, np.eye(2))
    assert classify(G).quasicontractive


# --- the composition G (+) F -------------------------------------------------

def _composable(seed: int, n: int, d: int, count: int) -> list[BlockCoefficient]:
    rng = np.random.default_rng(seed)
    return [random_coefficient(rng, n, d, scale=0.5) for _ in range(count)]


def test_compose_is_the_full_matrix_formula_blockwise():
    rng = np.random.default_rng(131)
    for _ in range(10):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        G, F = random_coefficient(rng, n, d), random_coefficient(rng, n, d)
        H = compose(G, F)
        g, f = G.as_full(), F.as_full()
        want = g + f + g @ delta_projection(n, d) @ f
        # W is stored, not W - I: the round trip through from_full rounds W - I
        assert norm2(H.as_full() - want) <= 1e-15 * (1.0 + norm2(want))
        # the block forms of its docstring
        for got, want in ((H.K, G.K + F.K + G.M @ F.L), (H.L, G.L + G.W @ F.L),
                          (H.M, F.M + G.M @ F.W), (H.W, G.W @ F.W)):
            assert norm2(got - want) <= 1e-14 * (1.0 + norm2(want))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), d=st.integers(1, 3))
def test_compose_is_associative(seed, n, d):
    A, B, C = _composable(seed, n, d, 3)
    lhs = compose(compose(A, B), C).as_full()
    rhs = compose(A, compose(B, C)).as_full()
    assert norm2(lhs - rhs) <= 1e-13 * (1.0 + norm2(lhs))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), d=st.integers(1, 3))
def test_zero_coefficient_is_the_unit_of_compose(seed, n, d):
    (F,) = _composable(seed, n, d, 1)
    zero = zero_coefficient(n, d)
    assert np.array_equal(compose(zero, F).as_full(), F.as_full())
    assert np.array_equal(compose(F, zero).as_full(), F.as_full())


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), d=st.integers(1, 3))
def test_compose_has_a_right_inverse(seed, n, d):
    # G + G' + G Delta G' = G + (I + G Delta) G' = 0 for G' = -(I + G Delta)^-1 G
    (G,) = _composable(seed, n, d, 1)
    g = G.as_full()
    gd = np.eye(len(g)) + g @ delta_projection(n, d)
    inverse = BlockCoefficient.from_full(-np.linalg.solve(gd, g), n)
    scale = (1.0 + norm2(g)) * (1.0 + norm2(inverse.as_full())) * np.linalg.cond(gd)
    assert norm2(compose(G, inverse).as_full()) <= 1e-13 * scale


def test_compose_needs_equal_shapes():
    rng = np.random.default_rng(137)
    with pytest.raises(DimensionMismatchError):
        compose(random_coefficient(rng, 2, 1), random_coefficient(rng, 2, 2))
    with pytest.raises(DimensionMismatchError):
        compose(random_coefficient(rng, 1, 2), random_coefficient(rng, 2, 1))


# --- JSON wire format --------------------------------------------------------

def test_matrix_pairs_round_trip_is_exact():
    # bit for bit, a signed zero in either part included
    rng = np.random.default_rng(18)
    x = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    x.flat[:5] = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)] + [complex(0.5, -0.0)]
    y = matrix_from_pairs(matrix_to_pairs(x), 3, 2)
    assert y.shape == (3, 2) and x.view(np.uint64).tolist() == y.view(np.uint64).tolist()


def test_matrix_from_pairs_shape_check():
    with pytest.raises(DimensionMismatchError):
        matrix_from_pairs([[1.0, 0.0]], 2, 2)


@pytest.mark.parametrize("value", ["nan", "-inf", "1e999", float("nan"), float("inf")])
@pytest.mark.parametrize("k", [0, 3])
def test_matrix_from_pairs_names_a_non_finite_pair(value, k):
    pairs = [[0.5, -0.5] for _ in range(4)]
    pairs[k][1] = value
    # a string is refused as one, before numpy could read it as NaN or Inf
    want = rf"\[re, im\] pair {k} must hold numbers, got " if isinstance(value, str) else \
        rf"non-finite \[re, im\] pair {k}: "
    with pytest.raises(ValueError, match=want):
        matrix_from_pairs(pairs, 2, 2)


def test_matrix_from_pairs_reads_bools_and_integers_past_int64_as_floats():
    # the numbers a step function's values take, each pair read as complex(re, im)
    pairs = [[True, False], [2**70, -3], [0.5, 10**20], [-0.0, 1]]
    want = np.array([complex(float(re), float(im)) for re, im in pairs]).reshape(2, 2)
    assert matrix_from_pairs(pairs, 2, 2).tobytes() == want.tobytes()


def test_coefficient_json_round_trip():
    rng = np.random.default_rng(19)
    F = random_coefficient(rng, 2, 2)
    G = coefficient_from_json(coefficient_to_json(F))
    assert np.array_equal(G.K, F.K) and np.array_equal(G.L, F.L)
    assert np.array_equal(G.M, F.M) and np.array_equal(G.W, F.W)


def test_coefficient_json_rejects_bad_dims():
    obj = coefficient_to_json(zero_coefficient(1, 1))
    obj["n"] = 0
    with pytest.raises(DimensionMismatchError):
        coefficient_from_json(obj)
