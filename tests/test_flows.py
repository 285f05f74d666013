import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfk.coefficients import BlockCoefficient, classify, delta_projection
from qfk.flows import (
    FlowGenerator,
    NotUnitaryGeneratorError,
    OperatorMap,
    ampliate,
    as_theta_map,
    hp_coefficient_for_flow,
    noise_ampliate,
    require_unitary_type,
    structure_defects,
    trivial_flow,
    validate_structure,
)
from qfk.instances import flow_from_json, flow_to_json
import qfk.flows
import qfk.linalg
from qfk.linalg import CHUNK_ENTRIES, DimensionMismatchError, dag, norm2, norm2_stack
from qfk.perturbations import from_hp_coefficient

from conftest import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    complex_randn,
    inner_coefficient,
    planted_flow,
    random_flow,
    raw_theta_map,
    unchecked_flow,
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


@pytest.mark.parametrize("offset", [-1e-3, -1e-9, 0.0, 1e-9, 1e-3])
def test_flow_generator_gates_decide_as_the_exact_test_at_their_bounds(offset):
    # rank-one residuals placed at tol (1 + ||x||): h - h* = 2 i c u u* for
    # h = i c u u*, and W*W - I for W = diag(1 + e, 1); the exact test is the reference
    u = complex_randn(np.random.default_rng(31), 2, 1)
    u /= norm2(u)
    h = 1j * 0.5e-12 * (1 + offset) * (u @ dag(u))
    W = np.diag([1 + 1e-10 * (1 + offset), 1.0])
    verdicts = []
    for h_, W_, r, x, tol in ((h, np.eye(2), h - dag(h), h, 1e-12), (np.zeros((2, 2)), W, dag(W) @ W - np.eye(2), W, 1e-10)):
        rejects = norm2(r) > tol * (1.0 + norm2(x))
        try:
            FlowGenerator(h=h_, l=np.zeros((2, 2)), W=W_)
        except ValueError:
            assert rejects
        else:
            assert not rejects
        verdicts.append(rejects)
    if abs(offset) > 1e-6:
        assert verdicts == [offset > 0] * 2


def test_flow_gates_take_no_svd_where_the_frobenius_form_settles_them(monkeypatch):
    rng = np.random.default_rng(32)
    G = inner_coefficient(rng, 2, 1)
    flow = random_flow(rng, 2, 1)
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("svd called"))
    trivial_flow(2, 1)
    FlowGenerator(h=flow.h, l=flow.l, W=flow.W)
    require_unitary_type(G)


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
    lx, dx, dxd, px = qfk.flows._components(tx, x, 2, 2)
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
        lx, dx, dxd, px = qfk.flows._components(theta(x), x, n, d)
        ly, dy, dyd, py = qfk.flows._components(theta(y), y, n, d)
        lxy, dxy, dxyd, pxy = qfk.flows._components(theta(dag(x) @ y), dag(x) @ y, n, d)
        _, dxs, _, _ = qfk.flows._components(theta(dag(x)), dag(x), n, d)
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


@pytest.mark.parametrize(("n", "d", "budget"), [(1, 1, 16 * 3), (2, 1, 64 * 3), (8, 3, CHUNK_ENTRIES)])
@pytest.mark.parametrize("trials", [0, 1, "chunk", "chunk+1", 20])
def test_structure_residuals_equal_reference_loop_across_chunks(monkeypatch, n, d, budget, trials):
    # 3 trials per call at (1, 1) and (2, 1) by a small budget; 4 per call at (8, 3)
    monkeypatch.setattr(qfk.linalg, "CHUNK_ENTRIES", budget)
    chunk = budget // (4 * ((d + 1) * n) ** 2)
    trials = {"chunk": chunk, "chunk+1": chunk + 1}.get(trials, trials)
    rng = np.random.default_rng(32)
    thetas = [random_flow(rng, n, d).as_map()]
    if (n, d) == (2, 1):
        W = np.eye(2) + 0.3 * complex_randn(rng, 2, 2)
        thetas.append(raw_theta_map(np.zeros((2, 2)), np.zeros((2, 2)), W, n=2, d=1))
    for theta in thetas:
        rows = []
        counting = OperatorMap(n=n, d=d, fn=lambda x: rows.append(x.shape[:-2]) or theta(x))
        report = validate_structure(counting, trials=trials, seed=trials)
        assert report.residuals == reference_structure_residuals(theta, trials=trials, seed=trials)
        # I alone, one matrix, then a stack of 4 rows per trial of each chunk
        assert rows == [()] + [(4 * min(chunk, trials - start),) for start in range(0, trials, chunk)]
    if (n, d) == (2, 1) and trials:
        assert report.residuals["pi_multiplicative"] > 1e-3  # the non-unitary-W control


@pytest.mark.parametrize("trials", [0, 1, 20])
def test_structure_evaluates_theta_once_per_distinct_input(trials):
    # I, then one input row per distinct input; at n = 2, d = 2 every trial row fits in one call
    theta = random_flow(np.random.default_rng(31), 2, 2).as_map()
    rows = []
    counting = OperatorMap(n=2, d=2, fn=lambda x: rows.append(x.reshape(-1, 2, 2).shape[0]) or theta(x))
    validate_structure(counting, trials=trials)
    assert rows == [1] + ([4 * trials] if trials else [])


@pytest.mark.parametrize(("n", "d"), [(1, 1), (2, 2), (4, 2), (8, 3), (16, 3)])
def test_structure_calls_stay_within_entry_budget(n, d):
    # after the call on I alone, the trial rows of each call fit the budget
    theta = random_flow(np.random.default_rng(33), n, d).as_map()
    rows = []
    counting = OperatorMap(n=n, d=d, fn=lambda x: rows.append(x.shape[:-2]) or theta(x))
    validate_structure(counting, trials=40)
    m = (d + 1) * n
    assert rows[0] == ()
    stacks = [k for (k,) in rows[1:]]
    assert sum(stacks) == 4 * 40
    assert all(k * m * m <= CHUNK_ENTRIES for k in stacks)
    assert len(stacks) == -(-40 // max(1, CHUNK_ENTRIES // (4 * m * m)))


def test_structure_peak_memory_does_not_grow_with_chunks():
    # beyond the draws (2 x 2 real n x n normals and the 2 complex inputs per
    # trial, 64 n^2 bytes), the traced peak is that of trials = 20
    n, d = 8, 3
    theta = random_flow(np.random.default_rng(34), n, d).as_map()
    validate_structure(theta, trials=1)
    peaks = {}
    for trials in (20, 200):
        tracemalloc.start()
        try:
            validate_structure(theta, trials=trials)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200] <= peaks[20] + 200 * 64 * n * n


def test_structure_trials_must_be_nonnegative():
    theta = random_flow(np.random.default_rng(35), 2, 1).as_map()
    with pytest.raises(ValueError, match="trials"):
        validate_structure(theta, trials=-1)
    report = validate_structure(theta, trials=0)
    assert report.residuals["unital"] == norm2(theta(np.eye(2)))
    assert all(v == 0.0 for k, v in report.residuals.items() if k != "unital")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
@pytest.mark.parametrize("where", ["unital", "trials"])
def test_structure_refuses_a_non_finite_residual_before_any_svd(monkeypatch, bad, where):
    # a value planted in theta(I) alone, or in every trial row alone: no SVD
    # sees it, and no max over earlier finite residuals hides it
    theta = random_flow(np.random.default_rng(36), 2, 1).as_map()

    def planted(x):
        out = theta(x)
        if (x.ndim == 2) == (where == "unital"):
            out = out.copy()
            out[..., 1, 0] = bad
        return out

    svds = []
    monkeypatch.setattr(qfk.flows, "norm2", lambda x: svds.append(x) or norm2(x))
    monkeypatch.setattr(qfk.flows, "norm2_stack", lambda s: svds.append(s) or norm2_stack(s))
    name = "'unital'" if where == "unital" else "'lindblad_dissipation'"  # [1, 0] is in Ldb's block
    with pytest.raises(FloatingPointError, match=f"structure residual {name} is not finite"):
        validate_structure(OperatorMap(n=2, d=1, fn=planted), trials=3)
    assert len(svds) == (0 if where == "unital" else 3)  # theta(I), then the residuals checked before Ldb's
    assert all(np.isfinite(x).all() for x in svds)


def test_structure_refuses_an_overflowing_flow_without_a_numpy_warning():
    # theta of h = 1e300 I, l = 1e300 I and W = 1e200 I (past the gates) overflows:
    # under the suite's -W error the refusal, not numpy's RuntimeWarning, reaches the caller
    fg = FlowGenerator._unchecked(1e300 * np.eye(2, dtype=complex), 1e300 * np.eye(2, dtype=complex),
                                  1e200 * np.eye(2, dtype=complex))
    with pytest.raises(FloatingPointError, match="structure residual 'unital' is not finite"):
        validate_structure(fg, trials=3)


def test_structure_report_accessors():
    report = validate_structure(trivial_flow(1, 1), trials=3)
    assert report.max_residual == 0.0 and report.passed and report.tol == 1e-11
    assert report.scales == dict.fromkeys(report.residuals, 0.0)


# --- structure bounds in closed form --------------------------------------------

# the rounding of a sampled residual, relative to its relation's scale: at most
# 2.5 eps measured over the 100 planted flows x 20 pairs of the test below
ROUNDING = 64 * np.finfo(float).eps


def sampled_against_bounds(fg, trials: int):
    """(bounds, scales, [(residuals, sizes)]): one `validate_structure` pair per trial,
    with the size ||x|| ||y|| each residual is bilinear in (||x|| for real, 1 for unital)."""
    report = structure_defects(fg, 0.0)
    samples = []
    for seed in range(trials):
        draws = np.random.default_rng(seed)  # validate_structure's stream: x, then y
        nx, ny = (norm2(complex_randn(draws, fg.n, fg.n)) for _ in "xy")
        sizes = dict.fromkeys(report.residuals, nx * ny) | {"unital": 1.0, "real": nx}
        samples.append((validate_structure(fg, trials=1, seed=seed).residuals, sizes))
    return report.residuals, report.scales, samples


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), d=st.integers(1, 2),
       unitary=st.floats(-8, -3), hermitian=st.floats(-8, -3), coupling=st.floats(-1, 1))
def test_structure_bounds_cover_the_sampled_residuals(seed, n, d, unitary, hermitian, coupling):
    # defects from 1e-8 to 1e-3, and l scaled by 0.1 to 10
    fg = planted_flow(np.random.default_rng(seed), n, d, 10**unitary, 10**hermitian, 10**coupling)
    bounds, scales, samples = sampled_against_bounds(fg, trials=8)
    for residuals, sizes in samples:
        for key, r in residuals.items():
            assert r <= (bounds[key] + ROUNDING * (1 + scales[key])) * sizes[key], key


def test_structure_bounds_are_attained_by_the_sampled_worst_case():
    # no bound is sharp on every flow (l* E l cancels for an indefinite E), but over
    # 100 planted flows each is within a factor 1.2 of its largest sampled ratio (the
    # worst ratios: 1.0 for pi, delta, Ldb, theta and unital, 0.87 real); theta and
    # unital reach 1.0 through the factor ||[l, I]||^2 = 1 + ||l||^2, where the looser
    # (1 + ||l||)^2 read 0.82 and 0.94
    rng = np.random.default_rng(36)
    worst = {}
    for _ in range(100):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        fg = planted_flow(rng, n, d, *10 ** rng.uniform(-8, -3, 2), 10 ** rng.uniform(-1, 1))
        bounds, scales, samples = sampled_against_bounds(fg, 20)
        for residuals, sizes in samples:
            for key, r in residuals.items():
                assert r <= (bounds[key] + ROUNDING * (1 + scales[key])) * sizes[key], key
                worst[key] = max(worst.get(key, 0.0), r / sizes[key] / bounds[key])
    assert len(worst) == 6 and min(worst.values()) >= 0.85, worst
    assert worst["theta_structure"] >= 0.99 and worst["unital"] >= 0.99, worst


def test_structure_bounds_of_the_trivial_flow():
    report = structure_defects(trivial_flow(2, 1), 0.0)
    assert report.passed and report.max_residual == 0.0 and report.tol == 0.0
    assert report.scales == {"pi_multiplicative": 1.0, "delta_derivation": 0.0, "lindblad_dissipation": 0.0,
                             "theta_structure": 1.0, "unital": 1.0, "real": 0.0}


def test_structure_bounds_judge_each_relation_at_its_scale():
    # E' = diag(3, 0) e for W = diag(sqrt(1 + 3 e), 1), l = 0, h = 0: the pi bound is
    # ||W||^2 ||E'|| = 3 e (1 + 3 e) against tol (1 + ||W||^2) = tol (2 + 3 e)
    e = 1e-6
    fg = unchecked_flow(np.zeros((2, 2)), np.zeros((2, 2)), np.diag([np.sqrt(1 + 3 * e), 1.0]))
    report = structure_defects(fg, 0.0)
    assert report.residuals["pi_multiplicative"] == pytest.approx(3 * e * (1 + 3 * e), rel=1e-9)
    assert report.scales["pi_multiplicative"] == pytest.approx(1 + 3 * e, rel=1e-12)
    assert structure_defects(fg, 1.51 * e).passed and not structure_defects(fg, 1.49 * e).passed
    # h = 1e6 Z + 0.25e-6 i Z passes the Hermitian gate with S = 0.5e-6 i Z: the real
    # bound 2s = 1e-6 is judged against tol (1 + 2 ||h||), so it passes from about 5e-13
    Z = np.diag([1.0, -1.0])
    fg = FlowGenerator(h=(1e6 + 0.25e-6j) * Z, l=np.zeros((2, 2)), W=np.eye(2))
    report = structure_defects(fg, 0.0)
    assert report.residuals["real"] == pytest.approx(1e-6, rel=1e-9) and report.scales["real"] == pytest.approx(2e6)
    assert structure_defects(fg, 1e-12).passed and not structure_defects(fg, 2.5e-13).passed


def padded_norm_misses(stack: np.ndarray, norms: np.ndarray, matrices) -> tuple[list, list]:
    """(the slices whose norm is not norm2 of that padded slice bit for bit, the slices
    whose norm is farther from norm2 of the unpadded matrix than two computations of
    sigma_1 may drift apart), for the norms `structure_defects` took from its stack.

    A backward stable SVD of an m x m matrix A returns the singular values of A + dA
    with ||dA||_2 <= p(m) u ||A||_2 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002), so by Weyl's theorem the padded and the unpadded
    sigma_1 are each within p(m) u ||A||_2 of the exact one (an unpadded h or l is
    smaller, and its p no larger).  Householder bidiagonalization gives p(m) of order
    m^2; with p(m) = m^2 at the padded order m = dn (at most 12 here), they agree
    within 2 m^2 u ||A||_2 = m^2 eps ||A||_2.  Over 10 800 draws (n <= 4, d <= 3, the
    three couplings below) the largest gap was 0.15 of this bound.
    """
    m, eps = stack.shape[-1], np.finfo(float).eps
    unequal = [i for i, (got, x) in enumerate(zip(norms, stack)) if got != norm2(x)]
    unpadded = [norm2(x) for x in matrices]
    drifted = [i for i, (got, r) in enumerate(zip(norms, unpadded)) if abs(got - r) > m * m * eps * r]
    return unequal, drifted


def structure_norms(fg: FlowGenerator) -> tuple[np.ndarray, np.ndarray]:
    """The one stack `structure_defects` takes its five norms from, and those norms."""
    calls = []

    def recorded(x):
        calls.append((x, norm2_stack(x)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qfk.flows, "norm2_stack", recorded)
        structure_defects(fg, 1e-8)
    assert len(calls) == 1
    return calls[0]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), d=st.integers(1, 3),
       unitary=st.sampled_from([0.0, 1e-12, 1e-8, 1e-3]), hermitian=st.sampled_from([0.0, 1e-12, 1e-6]),
       coupling=st.sampled_from([1e-3, 0.4, 1e3]))
def test_structure_norms_from_one_padded_stack_are_each_norm2(seed, n, d, unitary, hermitian, coupling):
    # the five norms of `structure_defects` come from one batched SVD of W, E', S, h and l,
    # each zero-padded to dn x dn: each is norm2 of its padded slice bit for bit, and of its
    # own matrix within the padding bound; E' and S are those the flow's gates formed
    fg = planted_flow(np.random.default_rng(seed), n, d, unitary, hermitian, coupling)
    S, E1 = fg._defects
    stack, norms = structure_norms(fg)
    assert fg._defects[0] is S and stack.shape == (5, d * n, d * n)
    assert padded_norm_misses(stack, norms, (fg.W, E1, S, fg.h, fg.l)) == ([], [])


@pytest.mark.parametrize("n,d", [(1, 2), (2, 3), (4, 3)])
def test_padded_norm_checks_each_catch_a_planted_error(n, d):
    # 1e-13 relative on the norm of the padded h or l, past the padding bound of
    # 144 eps = 3.2e-14 relative even at the largest order, dn = 12
    fg = planted_flow(np.random.default_rng(72), n, d, 0.0, 0.0)
    S, E1 = fg._defects
    stack, norms = structure_norms(fg)
    for i in (3, 4):
        planted = norms.copy()
        planted[i] *= 1 + 1e-13
        assert padded_norm_misses(stack, planted, (fg.W, E1, S, fg.h, fg.l)) == ([i], [i])


def test_structure_bound_that_overflows_is_floating_point_error():
    # ||l||^2 = inf, and with W = I the Ldb bound ||W||^2 ||E'|| ||l||^2 is 0 * inf = NaN
    fg = FlowGenerator(h=np.zeros((1, 1)), l=np.full((1, 1), 1e300), W=np.eye(1))
    with pytest.raises(FloatingPointError, match="structure bound 'lindblad_dissipation' is not finite"):
        structure_defects(fg, 1e-8)


# --- inner flows from unitary-type coefficients --------------------------------

def test_from_hp_rejects_non_unitary_type():
    G = BlockCoefficient(K=np.eye(1), L=np.zeros((1, 1)), M=np.zeros((1, 1)), W=np.zeros((1, 1)))
    with pytest.raises(NotUnitaryGeneratorError):
        from_hp_coefficient(G)


def classify_says_unitary_type(G: BlockCoefficient, tol: float = 1e-8) -> bool:
    """The predicate read off the full classification, beta included."""
    flags = classify(G, tol=tol)
    return flags.isometric_gen and flags.coisometric_nec


def require_says_unitary_type(G: BlockCoefficient, tol: float = 1e-8) -> bool:
    try:
        require_unitary_type(G, tol)
    except NotUnitaryGeneratorError as exc:
        assert str(exc) == "coefficient must satisfy q(G) = 0 and q(G*) = 0 to drive a unitary cocycle"
        return False
    return True


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_require_unitary_type_agrees_with_classify(n, d):
    rng = np.random.default_rng(27 + 10 * n + d)
    verdicts = []
    for _ in range(25):
        G = inner_coefficient(rng, n, d)
        dn = d * n
        cases = [G]
        for eps in (1e-9, 1e-7):
            cases.append(BlockCoefficient(K=G.K + eps * complex_randn(rng, n, n), L=G.L, M=G.M, W=G.W))
            cases.append(BlockCoefficient(K=G.K, L=G.L, M=G.M, W=G.W + eps * complex_randn(rng, dn, dn)))
        # W off every contraction: classify finds no beta
        cases.append(BlockCoefficient(K=G.K, L=G.L, M=G.M, W=1.5 * G.W + 0.1 * complex_randn(rng, dn, dn)))
        for H in cases:
            expected = classify_says_unitary_type(H)
            assert require_says_unitary_type(H) == expected
            verdicts.append(expected)
    # the draws reach both verdicts
    assert any(verdicts) and not all(verdicts)


def test_from_hp_hamiltonian_only():
    rng = np.random.default_rng(25)
    from conftest import random_hermitian

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
