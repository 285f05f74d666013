import numpy as np
import pytest

from qfk.coefficients import BlockCoefficient, delta_projection
from qfk.flows import (
    FlowGenerator,
    NotUnitaryGeneratorError,
    OperatorMap,
    ampliate,
    as_theta_map,
    flow_from_json,
    flow_to_json,
    from_hp_coefficient,
    hp_coefficient_for_flow,
    noise_ampliate,
    theta_components,
    trivial_flow,
    validate_structure,
)
from qfk.flows import _STRUCTURE_GROUP
from qfk.linalg import DimensionMismatchError, complex_randn, dag, norm2

from conftest import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    random_flow,
    raw_theta_map,
    weyl_coefficient,
)

KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # |1><1|


# --- construction and validation ---------------------------------------------

def test_flow_generator_rejects_non_hermitian_h():
    with pytest.raises(ValueError):
        FlowGenerator(h=np.array([[0.0, 1.0], [0.0, 0.0]]), l=np.zeros((2, 2)), W=np.eye(2))


def test_flow_generator_rejects_non_unitary_w():
    with pytest.raises(ValueError):
        FlowGenerator(h=np.zeros((2, 2)), l=np.zeros((2, 2)), W=np.diag([1.0, 0.5]))


def test_flow_generator_rejects_bad_shapes():
    with pytest.raises(DimensionMismatchError):
        FlowGenerator(h=np.zeros((2, 2)), l=np.zeros((3, 2)), W=np.eye(3))


def test_operator_map_checks_input_shape():
    theta = trivial_flow(2, 1).as_map()
    for shape in ((3, 3), (3,), (2, 3), (2, 2, 2, 2)):
        with pytest.raises(DimensionMismatchError):
            theta(np.zeros(shape))


def test_as_theta_map_rejects_other_types():
    with pytest.raises(TypeError):
        as_theta_map(np.eye(2))


def test_ampliations():
    x = SIGMA_X
    assert np.allclose(ampliate(x, 2), np.kron(np.eye(3), x))
    assert np.allclose(noise_ampliate(x, 2), np.kron(np.eye(2), x))
    stack = complex_randn(np.random.default_rng(19), 6, 2).reshape(3, 2, 2)
    for amp, reps in ((ampliate, 3), (noise_ampliate, 2)):
        assert np.array_equal(amp(stack, 2), np.stack([np.kron(np.eye(reps), z) for z in stack]))


# --- component maps on Pauli examples ----------------------------------------

def test_pi_conjugates_through_w():
    fg = FlowGenerator(h=np.zeros((2, 2)), l=np.zeros((2, 2)), W=SIGMA_X)
    assert np.allclose(fg.pi(SIGMA_Z), -SIGMA_Z)


def test_delta_on_sigma_z():
    fg = FlowGenerator(h=np.zeros((2, 2)), l=SIGMA_MINUS, W=np.eye(2))
    assert np.allclose(fg.delta(SIGMA_Z), 2.0 * SIGMA_MINUS)


def test_lindblad_hamiltonian_part():
    fg = FlowGenerator(h=SIGMA_Z, l=np.zeros((2, 2)), W=np.eye(2))
    assert np.allclose(fg.lindblad(SIGMA_X), 2.0 * SIGMA_Y)


def test_lindblad_damping_part():
    fg = FlowGenerator(h=np.zeros((2, 2)), l=SIGMA_MINUS, W=np.eye(2))
    assert np.allclose(fg.lindblad(KET1), -KET1)


def test_theta_blocks_and_components():
    rng = np.random.default_rng(20)
    fg = random_flow(rng, 2, 2)
    x = complex_randn(rng, 2, 2)
    tx = fg.theta(x)
    assert np.allclose(tx[:2, :2], fg.lindblad(x))
    assert np.allclose(tx[2:, :2], fg.delta(x))
    assert np.allclose(tx[:2, 2:], fg.delta_dag(x))
    assert np.allclose(tx[2:, 2:], fg.pi(x) - noise_ampliate(x, 2))
    lx, dx, dxd, px = theta_components(fg.as_map(), x)
    assert np.allclose(lx, fg.lindblad(x)) and np.allclose(dx, fg.delta(x))
    assert np.allclose(dxd, fg.delta_dag(x)) and np.allclose(px, fg.pi(x))


def test_theta_matches_block_by_block_assembly():
    # theta forms pi(x) once and reads delta(x*)* as l* pi(x) - x l*; the
    # reference forms each block from its own formula, pi(x*) included
    rng = np.random.default_rng(22)
    for _ in range(10):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        fg = random_flow(rng, n, d)
        ref = raw_theta_map(fg.h, fg.l, fg.W, n, d)
        x = complex_randn(rng, n, n)
        assert norm2(fg.theta(x) - ref(x)) <= 1e-14 * (1.0 + norm2(ref(x)))


def test_delta_dag_is_adjoint_of_delta_on_adjoint():
    rng = np.random.default_rng(21)
    fg = random_flow(rng, 2, 1)
    x = complex_randn(rng, 2, 2)
    assert np.allclose(fg.delta_dag(x), dag(fg.delta(dag(x))))


def test_trivial_flow_has_zero_theta():
    theta = trivial_flow(3, 2).as_map()
    rng = np.random.default_rng(22)
    assert norm2(theta(complex_randn(rng, 3, 3))) == 0.0


# --- structure relations ------------------------------------------------------

def test_structure_relations_hold_for_random_flows():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        fg = random_flow(rng, n, d)
        report = validate_structure(fg, trials=10, seed=int(rng.integers(0, 2**31)))
        assert report.passed, report.residuals


def test_structure_negative_control_non_unitary_w():
    rng = np.random.default_rng(24)
    W = np.eye(2) + 0.3 * complex_randn(rng, 2, 2)
    theta = raw_theta_map(np.zeros((2, 2)), np.zeros((2, 2)), W, n=2, d=1)
    report = validate_structure(theta, trials=10)
    assert not report.passed
    assert report.residuals["pi_multiplicative"] > 1e-3


def reference_structure_residuals(theta, trials: int, seed: int) -> dict:
    """Oracle: the structure residuals with theta evaluated 9 times per trial."""
    n, d = theta.n, theta.d
    rng = np.random.default_rng(seed)
    delta_proj = delta_projection(n, d)
    keys = ("pi_multiplicative", "delta_derivation", "lindblad_dissipation", "theta_structure", "unital", "real")
    resid = {k: 0.0 for k in keys}
    resid["unital"] = norm2(theta(np.eye(n)))
    for _ in range(trials):
        x = complex_randn(rng, n, n)
        y = complex_randn(rng, n, n)
        lx, dx, dxd, px = theta_components(theta, x)
        ly, dy, dyd, py = theta_components(theta, y)
        lxy, dxy, dxyd, pxy = theta_components(theta, dag(x) @ y)
        _, dxs, _, _ = theta_components(theta, dag(x))
        resid["pi_multiplicative"] = max(resid["pi_multiplicative"], norm2(pxy - dag(px) @ py))
        resid["delta_derivation"] = max(resid["delta_derivation"], norm2(dxy - dxs @ y - dag(px) @ dy))
        resid["lindblad_dissipation"] = max(
            resid["lindblad_dissipation"], norm2(lxy - dag(lx) @ y - dag(x) @ ly - dag(dx) @ dy)
        )
        txy = theta(dag(x) @ y)
        tx, ty = theta(x), theta(y)
        resid["theta_structure"] = max(
            resid["theta_structure"],
            norm2(txy - dag(tx) @ ampliate(y, d) - dag(ampliate(x, d)) @ ty - dag(tx) @ delta_proj @ ty),
        )
        resid["real"] = max(resid["real"], norm2(theta(dag(x)) - dag(theta(x))))
    return resid


def test_structure_residuals_equal_reference_loop():
    rng = np.random.default_rng(30)
    W = np.eye(2) + 0.3 * complex_randn(np.random.default_rng(24), 2, 2)
    thetas = [
        random_flow(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4))).as_map() for _ in range(50)
    ]
    thetas.append(raw_theta_map(np.zeros((2, 2)), np.zeros((2, 2)), W, n=2, d=1))
    for i, theta in enumerate(thetas):
        report = validate_structure(theta, trials=7, seed=i)
        assert report.residuals == reference_structure_residuals(theta, trials=7, seed=i)
    assert report.residuals["pi_multiplicative"] > 1e-3  # the non-unitary-W control


@pytest.mark.parametrize("trials", [0, 1, 20])
def test_structure_evaluates_theta_once_per_distinct_input(trials):
    # one input row per distinct input, in one call on I and one per group of trials
    theta = random_flow(np.random.default_rng(31), 2, 2).as_map()
    rows = []
    counting = OperatorMap(n=2, d=2, fn=lambda x: rows.append(x.reshape(-1, 2, 2).shape[0]) or theta(x))
    validate_structure(counting, trials=trials)
    assert sum(rows) == 4 * trials + 1
    assert len(rows) == 1 + -(-trials // _STRUCTURE_GROUP)


def test_structure_report_accessors():
    report = validate_structure(trivial_flow(1, 1), trials=3)
    assert report.max_residual == 0.0 and report.passed and report.tol == 1e-11


# --- inner flows from unitary-type coefficients --------------------------------

def test_from_hp_rejects_non_unitary_type():
    G = BlockCoefficient(K=np.eye(1), L=np.zeros((1, 1)), M=np.zeros((1, 1)), W=np.zeros((1, 1)))
    with pytest.raises(NotUnitaryGeneratorError):
        from_hp_coefficient(G)


def test_from_hp_hamiltonian_only():
    rng = np.random.default_rng(25)
    from qfk.linalg import random_hermitian

    h = random_hermitian(rng, 2)
    G = BlockCoefficient(K=1j * h, L=np.zeros((2, 2)), M=np.zeros((2, 2)), W=np.eye(2))
    theta = from_hp_coefficient(G)
    x = complex_randn(rng, 2, 2)
    tx = theta(x)
    assert np.allclose(tx[:2, :2], 1j * (x @ h - h @ x))
    assert norm2(tx[2:, :2]) <= 1e-14 and norm2(tx[:2, 2:]) <= 1e-14
    assert norm2(tx[2:, 2:]) <= 1e-14


def test_from_hp_weyl_noise_corner_vanishes():
    theta = from_hp_coefficient(weyl_coefficient(0.8 - 0.3j))
    tx = theta(np.array([[1.7]]))
    assert abs(tx[1, 1]) <= 1e-14


def test_from_hp_satisfies_structure_relations():
    rng = np.random.default_rng(26)
    theta = from_hp_coefficient(hp_coefficient_for_flow(random_flow(rng, 2, 2)))
    assert validate_structure(theta, trials=10).passed


def test_hp_coefficient_for_flow_round_trip():
    rng = np.random.default_rng(27)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        fg = random_flow(rng, n, d)
        theta = from_hp_coefficient(hp_coefficient_for_flow(fg))
        for _ in range(5):
            x = complex_randn(rng, n, n)
            assert norm2(theta(x) - fg.theta(x)) <= 1e-12 * (1.0 + norm2(x))


def test_naive_gauge_matches_only_on_noise_corner():
    # K = ih - l*l/2, L = l, M = -l*W is also unitary-type, but it induces the
    # flow of (-h, W l, W): only the pi - iota corner of theta is gauge-free.
    rng = np.random.default_rng(28)
    fg = random_flow(rng, 2, 1)
    n = 2
    G = BlockCoefficient(
        K=1j * fg.h - 0.5 * dag(fg.l) @ fg.l,
        L=fg.l,
        M=-dag(fg.l) @ fg.W,
        W=fg.W,
    )
    theta = from_hp_coefficient(G)
    x = complex_randn(rng, n, n)
    tx, ty = theta(x), fg.theta(x)
    assert norm2(tx[n:, n:] - ty[n:, n:]) <= 1e-11 * (1.0 + norm2(x))
    assert norm2(tx - ty) > 1e-6  # the other blocks are gauge-dependent


# --- JSON wire format ----------------------------------------------------------

def test_flow_json_round_trip():
    rng = np.random.default_rng(29)
    fg = random_flow(rng, 2, 2)
    gg = flow_from_json(flow_to_json(fg))
    assert np.array_equal(gg.h, fg.h) and np.array_equal(gg.l, fg.l)
    assert np.array_equal(gg.W, fg.W)


def test_flow_json_rejects_bad_dims():
    obj = flow_to_json(trivial_flow(1, 1))
    obj["d"] = 0
    with pytest.raises(DimensionMismatchError):
        flow_from_json(obj)
