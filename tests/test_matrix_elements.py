import numpy as np
import pytest

from qfk.flows import OperatorMap, trivial_flow
from qfk.linalg import DimensionMismatchError, complex_randn, dag, min_eig_hermitian, norm2
from qfk.matrix_elements import (
    TICK,
    StepFunction,
    chi,
    cocycle_matrix_element,
    exponential_inner_product,
    stepfunction_from_json,
    stepfunction_to_json,
    tail_inner_product,
    tau_generator,
    to_ticks,
    verify_cocycle_identity,
)
from qfk.perturbations import (
    PerturbationSpec,
    Superoperator,
    phi_perturbed,
    psi_map,
    semigroup_at,
    vacuum_generator,
)

from conftest import random_coefficient, random_flow, random_phi, weyl_coefficient, zero_coefficient


def random_step(rng, d: int, pieces: int = 3, horizon: float = 1.0) -> StepFunction:
    """Random step function with dyadic breakpoints on a 1/64 grid."""
    cuts = np.sort(rng.choice(np.arange(1, 64), size=pieces - 1, replace=False))
    bps = [0.0] + [c / 64.0 * horizon for c in cuts] + [horizon]
    vals = complex_randn(rng, pieces, d)
    return StepFunction.from_breakpoints(bps, vals)


# --- ticks and chi -----------------------------------------------------------

def test_to_ticks_rounds_and_rejects_negative():
    assert to_ticks(1.0) == 2**20
    assert to_ticks(0.3) == round(0.3 / TICK)
    with pytest.raises(ValueError):
        to_ticks(-0.1)


def test_chi_examples():
    assert chi(np.array([1.0]), np.array([1.0j])) == pytest.approx(1.0 - 1.0j)
    assert chi(np.array([2.0, 1.0]), np.array([2.0, 1.0])) == pytest.approx(0.0)


def test_chi_conjugate_symmetry_and_dim_check():
    rng = np.random.default_rng(50)
    c, d = complex_randn(rng, 3, 1).ravel(), complex_randn(rng, 3, 1).ravel()
    assert chi(c, d) == pytest.approx(np.conj(chi(d, c)))
    with pytest.raises(DimensionMismatchError):
        chi(np.zeros(2), np.zeros(3))


# --- step functions -----------------------------------------------------------

def test_stepfunction_validation():
    with pytest.raises(ValueError):
        StepFunction(ticks=np.array([1, 2]), values=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        StepFunction(ticks=np.array([0, 2, 2]), values=np.zeros((2, 1)))
    with pytest.raises(DimensionMismatchError):
        StepFunction(ticks=np.array([0, 2]), values=np.zeros((2, 1)))
    with pytest.raises(DimensionMismatchError):
        StepFunction(ticks=np.array([0, 2]), values=np.zeros((1, 0)))


def test_stepfunction_value_lookup():
    f = StepFunction.from_breakpoints([0.0, 0.5, 1.0], [[1.0], [2.0]])
    assert f.value_at_tick(0)[0] == 1.0
    assert f.value_at_tick(to_ticks(0.5))[0] == 2.0
    assert f.value_at_tick(to_ticks(0.75))[0] == 2.0
    assert f.value_at_tick(to_ticks(1.0))[0] == 0.0  # vanishes beyond support
    with pytest.raises(ValueError):
        f.value_at_tick(-1)


def test_stepfunction_breakpoints_are_exact_dyadics():
    f = StepFunction.from_breakpoints([0.0, 0.25, 1.0], [[1.0], [2.0]])
    assert np.array_equal(f.breakpoints, np.array([0.0, 0.25, 1.0]))


def test_stepfunction_shift_semantics():
    f = StepFunction.from_breakpoints([0.0, 0.5, 1.0], [[1.0], [2.0]])
    g = f.shifted(0.25)
    assert np.array_equal(g.breakpoints, np.array([0.0, 0.25, 0.75]))
    assert g.value_at_tick(0)[0] == 1.0
    assert g.value_at_tick(to_ticks(0.5))[0] == 2.0
    assert g.value_at_tick(to_ticks(0.75))[0] == 0.0
    beyond = f.shifted(2.0)
    assert norm2(beyond.values) == 0.0


def test_stepfunction_json_round_trip():
    rng = np.random.default_rng(51)
    f = random_step(rng, 2)
    g = stepfunction_from_json(stepfunction_to_json(f))
    assert np.array_equal(g.ticks, f.ticks)
    assert np.array_equal(g.values, f.values)


# --- exponential inner products -------------------------------------------------

def test_bootstrap_identity_single_interval():
    c, d = np.array([0.4 - 0.1j]), np.array([0.2 + 0.3j])
    f = StepFunction.constant(c, 2.0)
    g = StepFunction.constant(d, 2.0)
    t = 1.25  # tick-exact
    assert exponential_inner_product(f, g, t) == pytest.approx(np.exp(-t * chi(c, d)), abs=1e-14)


def test_exponential_inner_product_multi_interval():
    rng = np.random.default_rng(52)
    f, g = random_step(rng, 2), random_step(rng, 2)
    t = 0.875
    total = 0.0 + 0.0j
    k = 0
    while k < to_ticks(t):  # brute-force tick-by-tick integral, 1/64 grid steps
        step = to_ticks(1.0 / 64.0)
        total += step * TICK * chi(f.value_at_tick(k), g.value_at_tick(k))
        k += step
    assert exponential_inner_product(f, g, t) == pytest.approx(np.exp(-total), abs=1e-12)


def test_tail_inner_product():
    c = np.array([0.6 + 0.2j])
    f = StepFunction.constant(c, 1.0)
    g = StepFunction.zero(1, 1.0)
    expected = np.exp(-0.5 * 0.5 * np.vdot(c, c).real)  # chi(c, 0) = ||c||^2/2 on [0.5, 1)
    assert tail_inner_product(f, g, 0.5) == pytest.approx(expected, abs=1e-14)
    assert tail_inner_product(f, g, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_inner_product_splits_at_any_time():
    rng = np.random.default_rng(53)
    f, g = random_step(rng, 1), random_step(rng, 1)
    t = 0.40625  # 26/64, tick-exact
    full = exponential_inner_product(f, g, 5.0)  # beyond both supports
    head = exponential_inner_product(f, g, t)
    assert head * tail_inner_product(f, g, t) == pytest.approx(full, abs=1e-12)


# --- one-interval generators ----------------------------------------------------

def test_tau_at_zero_arguments_is_vacuum_generator():
    rng = np.random.default_rng(54)
    spec = PerturbationSpec(
        theta=random_flow(rng, 2, 2),
        F1=random_coefficient(rng, 2, 2),
        F2=random_coefficient(rng, 2, 2),
    )
    phi = phi_perturbed(spec)
    tau = tau_generator(phi, np.zeros(2), np.zeros(2))
    assert norm2(tau.mat - vacuum_generator(phi).mat) <= 1e-13 * (1.0 + norm2(tau.mat))


def tau_by_units(phi, c, d) -> Superoperator:
    """Reference: the defining formula E^{c-hat} phi(x) E_{d-hat} - chi(c, d) x on matrix units."""
    n = phi.n
    left = np.kron(np.concatenate(([1.0], c)).conj().reshape(1, -1), np.eye(n))
    right = np.kron(np.concatenate(([1.0], d)).reshape(-1, 1), np.eye(n))
    shift = chi(c, d)
    return Superoperator.from_map(lambda x: left @ phi(x) @ right - shift * x, n)


def test_tau_matches_defining_formula():
    rng = np.random.default_rng(62)
    for _ in range(10):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        phi = random_phi(rng, n, d)
        c, dv = complex_randn(rng, d, 1).ravel(), complex_randn(rng, d, 1).ravel()
        ref = tau_by_units(phi, c, dv).mat
        assert norm2(tau_generator(phi, c, dv).mat - ref) <= 1e-13 * norm2(ref)


def test_tau_dimension_check():
    phi = phi_perturbed(
        PerturbationSpec(theta=trivial_flow(1, 2), F1=zero_coefficient(1, 2), F2=zero_coefficient(1, 2))
    )
    with pytest.raises(DimensionMismatchError):
        tau_generator(phi, np.zeros(1), np.zeros(2))


# --- cocycle matrix elements ------------------------------------------------------

def trivial_phi(n: int, d: int):
    return phi_perturbed(
        PerturbationSpec(theta=trivial_flow(n, d), F1=zero_coefficient(n, d), F2=zero_coefficient(n, d))
    )


def test_trivial_cocycle_reproduces_inner_product():
    rng = np.random.default_rng(55)
    f, g = random_step(rng, 2), random_step(rng, 2)
    phi = trivial_phi(1, 2)
    t = 0.78125  # 50/64
    out = cocycle_matrix_element(phi, f, g, t, np.eye(1))
    assert out[0, 0] == pytest.approx(exponential_inner_product(f, g, t), abs=1e-12)


def test_free_flow_at_identity_is_scalar_for_any_flow():
    rng = np.random.default_rng(56)
    fg = random_flow(rng, 2, 2)
    f, g = random_step(rng, 2), random_step(rng, 2)
    t = 0.9375  # 60/64
    out = cocycle_matrix_element(fg, f, g, t, np.eye(2))
    expected = exponential_inner_product(f, g, t) * np.eye(2)
    assert norm2(out - expected) <= 1e-12


def test_weyl_matrix_element():
    lam = 1.0
    phi = psi_map(trivial_flow(1, 1), weyl_coefficient(lam))
    f = StepFunction.zero(1, 1.0)
    out = cocycle_matrix_element(phi, f, f, 2.0, np.eye(1))
    assert out[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-10)
    lam = 0.7 - 0.4j
    phi = psi_map(trivial_flow(1, 1), weyl_coefficient(lam))
    for t in (0.5, 1.5):
        out = cocycle_matrix_element(phi, f, f, t, np.eye(1))
        assert out[0, 0] == pytest.approx(np.exp(-0.5 * abs(lam) ** 2 * t), abs=1e-10)


def test_partition_refinement_is_exact():
    rng = np.random.default_rng(57)
    fg = random_flow(rng, 2, 1)
    spec = PerturbationSpec(
        theta=fg, F1=random_coefficient(rng, 2, 1), F2=random_coefficient(rng, 2, 1)
    )
    phi = phi_perturbed(spec)
    v = complex_randn(rng, 1, 1).ravel()
    f_coarse = StepFunction.constant(v, 1.0)
    f_fine = StepFunction.from_breakpoints([0.0, 0.25, 0.625, 1.0], [v, v, v])
    g = StepFunction.zero(1, 1.0)
    a = complex_randn(rng, 2, 2)
    t = 0.875
    lhs = cocycle_matrix_element(phi, f_coarse, g, t, a)
    rhs = cocycle_matrix_element(phi, f_fine, g, t, a)
    assert norm2(lhs - rhs) <= 1e-11 * (1.0 + norm2(lhs))


def test_unnormalized_scale():
    rng = np.random.default_rng(58)
    f, g = random_step(rng, 1), random_step(rng, 1)
    phi = trivial_phi(1, 1)
    t = 0.5
    out, log_scale = cocycle_matrix_element(phi, f, g, t, np.eye(1), normalized=False)
    out_norm = cocycle_matrix_element(phi, f, g, t, np.eye(1))
    assert np.allclose(out, out_norm)
    # kappa e^{log_scale} is the unnormalized element e^{integral <f, g>}.
    ticks = to_ticks(t)
    step = to_ticks(1.0 / 64.0)
    total = sum(
        step * TICK * np.vdot(f.value_at_tick(k), g.value_at_tick(k))
        for k in range(0, ticks, step)
    )
    assert out[0, 0] * np.exp(log_scale) == pytest.approx(np.exp(total), abs=1e-10)


def test_matrix_element_positivity():
    rng = np.random.default_rng(59)
    fg = random_flow(rng, 2, 1)
    f = random_step(rng, 1)
    a = complex_randn(rng, 2, 2)
    out = cocycle_matrix_element(fg, f, f, 0.75, dag(a) @ a)
    assert min_eig_hermitian(out) >= -1e-9


def test_weak_cocycle_identity_exact_cases():
    rng = np.random.default_rng(60)
    fg = random_flow(rng, 2, 1)
    spec = PerturbationSpec(
        theta=fg,
        F1=random_coefficient(rng, 2, 1, scale=0.4),
        F2=random_coefficient(rng, 2, 1, scale=0.4),
    )
    phi = phi_perturbed(spec)
    f = StepFunction.from_breakpoints([0.0, 0.5, 1.0], complex_randn(rng, 2, 1))
    g = StepFunction.from_breakpoints([0.0, 0.25, 1.0], complex_randn(rng, 2, 1))
    # r = 0: the left leg is empty, identity holds to roundoff.
    rep = verify_cocycle_identity(phi, f, g, r=0.0, t=0.75, trials=5)
    assert rep["max_residual"] <= 1e-12
    # r on a common breakpoint: the partition splits exactly there.
    rep = verify_cocycle_identity(phi, f, g, r=0.5, t=0.25, trials=5)
    assert rep["max_residual"] <= 1e-11


def test_weak_cocycle_identity_interior_split():
    rng = np.random.default_rng(61)
    fg = random_flow(rng, 1, 1)
    spec = PerturbationSpec(
        theta=fg,
        F1=random_coefficient(rng, 1, 1, scale=0.4),
        F2=random_coefficient(rng, 1, 1, scale=0.4),
    )
    phi = phi_perturbed(spec)
    f = StepFunction.from_breakpoints([0.0, 0.5, 1.0], complex_randn(rng, 2, 1))
    g = StepFunction.from_breakpoints([0.0, 0.75, 1.0], complex_randn(rng, 2, 1))
    rep = verify_cocycle_identity(phi, f, g, r=0.3125, t=0.40625, trials=5)
    assert rep["max_residual"] <= 1e-9
    assert rep["r"] == 0.3125 and rep["trials"] == 5


def element_by_intervals(phi, f, g, t, a):
    """Reference: one defining-formula tau and one exponential per interval, nothing shared."""
    t_tick = to_ticks(t)
    cuts = sorted({0, t_tick} | {int(b) for sf in (f, g) for b in sf.ticks if 0 < b < t_tick})
    out = a
    for lo, hi in reversed(list(zip(cuts[:-1], cuts[1:]))):
        tau = tau_by_units(phi, f.value_at_tick(lo), g.value_at_tick(lo))
        out = semigroup_at(tau, (hi - lo) * TICK).apply(out)
    return out


def counting_map(phi):
    """phi, recording the number of input rows of each call (1 for one matrix)."""
    calls = []

    def fn(x):
        calls.append(x.reshape(-1, phi.n, phi.n).shape[0])
        return phi(x)

    return OperatorMap(n=phi.n, d=phi.d, fn=fn), calls


def dyadic_step(values) -> StepFunction:
    """Values on the equal dyadic intervals of [0, 1)."""
    k = values.shape[0]
    return StepFunction(ticks=np.arange(k + 1) * (to_ticks(1.0) // k), values=values)


@pytest.mark.parametrize("intervals", [1, 32, 256])
def test_matrix_element_evaluates_phi_n_squared_times(intervals):
    rng = np.random.default_rng(63)
    phi, calls = counting_map(random_phi(rng, 2, 1))
    f = dyadic_step(complex_randn(rng, intervals, 1))
    g = dyadic_step(complex_randn(rng, intervals, 1))
    cocycle_matrix_element(phi, f, g, 1.0, np.eye(2))
    # n^2 = 4 matrix units, stacked one column of units per call
    assert sum(calls) == 4 and len(calls) == 2


def test_cocycle_identity_evaluates_phi_n_squared_times_in_all():
    rng = np.random.default_rng(64)
    phi, calls = counting_map(random_phi(rng, 3, 2))
    f = dyadic_step(complex_randn(rng, 16, 2))
    g = dyadic_step(complex_randn(rng, 16, 2))
    rep = verify_cocycle_identity(phi, f, g, r=0.3125, t=0.40625, trials=4)
    assert sum(calls) == 9 and len(calls) == 3
    assert rep["max_residual"] <= 1e-9


def test_equal_pairs_on_intervals_of_different_length_do_not_share_an_exponential():
    rng = np.random.default_rng(65)
    phi = random_phi(rng, 2, 1)
    c, dv = complex_randn(rng, 1, 1), complex_randn(rng, 1, 1)
    # the same (c, d) on [0, 1/4) and on [1/4, 1)
    f = StepFunction.from_breakpoints([0.0, 0.25, 1.0], np.vstack([c, c]))
    g = StepFunction.from_breakpoints([0.0, 0.25, 1.0], np.vstack([dv, dv]))
    a = complex_randn(rng, 2, 2)
    ref = element_by_intervals(phi, f, g, 1.0, a)
    assert norm2(cocycle_matrix_element(phi, f, g, 1.0, a) - ref) <= 1e-13 * norm2(ref)


def test_repeated_pairs_equal_the_unshared_composition():
    rng = np.random.default_rng(66)
    phi = random_phi(rng, 2, 2)
    palette = complex_randn(rng, 3, 4)  # three (c, d) pairs, d = 2
    picks = palette[rng.integers(0, 3, size=32)]
    f, g = dyadic_step(picks[:, :2]), dyadic_step(picks[:, 2:])
    a = complex_randn(rng, 2, 2)
    ref = element_by_intervals(phi, f, g, 1.0, a)
    assert norm2(cocycle_matrix_element(phi, f, g, 1.0, a) - ref) <= 1e-14 * norm2(ref)


def test_cocycle_dimension_check():
    phi = trivial_phi(1, 2)
    f = StepFunction.zero(1, 1.0)
    with pytest.raises(DimensionMismatchError):
        cocycle_matrix_element(phi, f, f, 1.0, np.eye(1))
