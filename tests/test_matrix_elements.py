import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfk.cli
import qfk.matrix_elements
import qfk.perturbations
from qfk.coefficients import compose
from qfk.flows import OperatorMap, trivial_flow
from qfk.instances import default_observable, load_instance, stepfunction_from_json, stepfunction_to_json
from qfk.linalg import CHUNK_ENTRIES, DimensionMismatchError, dag, expm_stack, min_eig_hermitian, norm2
from qfk.matrix_elements import (
    TICK,
    TIME_LIMIT,
    StepFunction,
    chi,
    cocycle_matrix_element,
    exponential_inner_product,
    stack_size,
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
    unvec,
    vacuum_generator,
    vec,
)

from conftest import complex_randn, random_coefficient, random_flow, random_phi, weyl_coefficient, zero_coefficient


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


def stepfunction_per_item(obj: dict) -> StepFunction:
    """The per-item parse of the wire format: the reference for the array path."""
    values = [[complex(p[0], p[1]) for p in row] for row in obj["values"]]
    ticks = np.array([to_ticks(t) for t in obj["breakpoints"]], dtype=np.int64)
    return StepFunction(ticks=ticks, values=np.asarray(values, dtype=complex))


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# plain numbers as JSON carries them: floats (signed zeros, subnormals, huge), ints
# (past int64 and uint64 too, which numpy holds as objects), bools
wire_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.integers(-(2**53), 2**53),
    st.integers(-(2**65), 2**65),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(
    gaps=st.lists(st.integers(3, 2**30), min_size=1, max_size=10),
    nudges=st.lists(st.sampled_from([0.0, 0.5, -0.5, 0.25, -0.25, 0.4999]), min_size=10, max_size=10),
    start=st.sampled_from([0.0, -0.0, 0, 0.5 * TICK, 0.25 * TICK, False]),
    scale=st.sampled_from([1, 2**12, 2**29]),
    d=st.integers(1, 3),
    data=st.data(),
)
def test_stepfunction_array_path_equals_the_per_item_parse(gaps, nudges, start, scale, d, data):
    # breakpoints a half or a quarter tick off increasing tick counts (ties round
    # half to even, as round() does), up to 2^62 ticks, just inside the 2^63 range
    ticks = np.cumsum([0] + [g * scale for g in gaps])
    breakpoints = [start] + [(int(k) + nudge) * TICK for k, nudge in zip(ticks[1:], nudges)]
    pair = st.lists(wire_numbers, min_size=2, max_size=2)
    values = data.draw(st.lists(st.lists(pair, min_size=d, max_size=d), min_size=len(gaps), max_size=len(gaps)))
    obj = json.loads(json.dumps({"breakpoints": breakpoints, "values": values}))
    ref = stepfunction_per_item(obj)
    got = stepfunction_from_json(obj)
    assert same_bits(got.ticks, ref.ticks) and same_bits(got.values, ref.values)


def test_stepfunction_half_tick_ties_round_to_even():
    values = [[[1.0, 0.0]]] * 4
    f = stepfunction_from_json({"breakpoints": [0.0, 1.5 * TICK, 4.5 * TICK, 6.5 * TICK, 7.5 * TICK], "values": values})
    assert f.ticks.tolist() == [0, 2, 4, 6, 8]
    with pytest.raises(ValueError, match="start at 0 and increase strictly"):
        # half a tick rounds to 0, onto the first breakpoint
        stepfunction_from_json({"breakpoints": [0.0, 0.5 * TICK, 2.0 * TICK, 3.0 * TICK, 4.0 * TICK], "values": values})


def test_from_breakpoints_rounds_as_to_ticks_and_names_the_breakpoint_out_of_range():
    # half-tick ties round to even, in one pass, as to_ticks rounds each
    breakpoints = [0.0, 1.5 * TICK, 4.5 * TICK, 6.5 * TICK, 7.5 * TICK, (2**40 + 0.5) * TICK]
    f = StepFunction.from_breakpoints(breakpoints, np.ones((5, 1)))
    assert f.ticks.tolist() == [to_ticks(t) for t in breakpoints] == [0, 2, 4, 6, 8, 2**40]
    for k, bad in ((2, -0.5), (1, math.inf), (3, math.nan), (1, TIME_LIMIT)):
        times = [0.0, 1.0, 2.0, 3.0]
        times[k] = bad
        with pytest.raises(ValueError, match=rf"below 2\^63 ticks, got {bad} at breakpoint {k}$"):
            StepFunction.from_breakpoints(times, np.ones((3, 1)))


GOOD_STEP = {"breakpoints": [0.0, 0.5, 1.0], "values": [[[0.5, -0.0]], [[-1.0, 2.0]]]}


@pytest.mark.parametrize(
    "key,bad",
    [
        ("breakpoints", [0.0, 0.5, 1e13]),
        ("breakpoints", [0.0, -0.5, 1.0]),
        ("breakpoints", [0.25, 0.5, 1.0]),
        ("breakpoints", [0.0, 1.0, 0.5]),
        ("breakpoints", [0, 10**13, 10**14]),
        ("breakpoints", ["0", "0.5", "1"]),
        ("breakpoints", [0.0, None, 1.0]),
        ("breakpoints", [0.0, [0.5], 1.0]),
        ("breakpoints", [0.0, 1.0]),
        ("breakpoints", 1.0),
        ("values", [[[0.5, 0.0]], [[1.0, 0.0], [2.0, 0.0]]]),
        ("values", [[[0.5]], [[1.0]]]),
        ("values", [[[0.5, 0.0, 1.0]], [[1.0, 0.0, 1.0]]]),
        ("values", [[["0.5", "0"]], [["1", "0"]]]),
        ("values", [[[0.5, "0"]], [[1.0, 0.0]]]),
        ("values", [[0.5, 0.0], [1.0, 0.0]]),
        ("values", [[], []]),
        ("values", []),
        ("values", [[[10**400, 0.0]], [[1.0, 0.0]]]),
        ("values", [[[2**70, 0.0]], [[1.0, 0.0]]]),
    ],
)
def test_malformed_stepfunction_keeps_the_per_item_error(key, bad):
    # what the per-item parse refuses is refused, by an error the loader exits 2 on,
    # whose message names the field at fault
    obj = {**GOOD_STEP, key: bad}
    names_the_field = rf"\b{key[:-1]}s?\b"
    try:
        ref = stepfunction_per_item(obj)
    except Exception:  # noqa: BLE001 - a refusal, not handled
        with pytest.raises((TypeError, ValueError, OverflowError), match=names_the_field):
            stepfunction_from_json(obj)
    else:  # the reference reads a pair's first two entries, and any integer in float range
        if bad == [[[0.5, 0.0, 1.0]], [[1.0, 0.0, 1.0]]]:  # a pair has exactly two entries
            with pytest.raises(ValueError, match=names_the_field):
                stepfunction_from_json(obj)
            return
        assert bad == [[[2**70, 0.0]], [[1.0, 0.0]]]
        got = stepfunction_from_json(obj)
        assert same_bits(got.ticks, ref.ticks) and same_bits(got.values, ref.values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_stepfunction_refuses_non_finite_values(bad):
    with pytest.raises(ValueError, match="^step function values must be finite$"):
        StepFunction.from_breakpoints([0.0, 1.0], [[complex(0.5, bad)]])
    # the array path, and the per-item parse that an integer past int64 takes
    for values in ([[[0.5, bad]]], [[[2**70, 0.0]], [[bad, 0.0]]]):
        with pytest.raises(ValueError, match="^step function values must be finite$"):
            stepfunction_from_json({"breakpoints": [0.0, 1.0, 2.0][: len(values) + 1], "values": values})


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


def test_inner_product_splits_at_any_time():
    rng = np.random.default_rng(53)
    f, g = random_step(rng, 1), random_step(rng, 1)
    t = 0.40625  # 26/64, tick-exact
    full = exponential_inner_product(f, g, 5.0)  # beyond both supports
    head = exponential_inner_product(f, g, t)
    tail = exponential_inner_product(f.shifted(t), g.shifted(t), 5.0 - t)
    assert head * tail == pytest.approx(full, abs=1e-12)


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


def weyl_leg(rng, n: int, d: int, scale: float, law=compose):
    """(tau_{c,e} of phi(theta, F1, F2), Phi^{00} of phi(theta, F1 (+) E_c, F2 (+) E_e))
    for a random flow theta, coefficients F_i and c, e in C^d, with (+) read as law."""
    theta = random_flow(rng, n, d)
    F1, F2 = random_coefficient(rng, n, d, scale), random_coefficient(rng, n, d, scale)
    c, e = complex_randn(rng, d, 1).ravel(), complex_randn(rng, d, 1).ravel()
    tau = tau_generator(phi_perturbed(PerturbationSpec(theta=theta, F1=F1, F2=F2)), c, e).mat
    spec = PerturbationSpec(theta=theta, F1=law(F1, weyl_coefficient(c, n)), F2=law(F2, weyl_coefficient(e, n)))
    return tau, vacuum_generator(phi_perturbed(spec)).mat


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), d=st.integers(1, 3))
def test_tau_is_the_vacuum_generator_of_the_weyl_composed_perturbation(seed, n, d):
    # the compression by exponential vectors of c and e is a perturbation by the
    # Weyl coefficients E_c, E_e, chi included
    tau, ref = weyl_leg(np.random.default_rng(seed), n, d, scale=0.5)
    assert norm2(tau - ref) <= 1e-13 * norm2(ref)


def test_weyl_leg_fails_in_the_reversed_order():
    # planted: E (+) F in place of F (+) E; measured: at least 0.50 relative over
    # these draws (0.17 over 300 seeds).  Seeded, not under hypothesis: a zero
    # coefficient commutes with every other under (+).
    rng = np.random.default_rng(71)
    for _ in range(20):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        tau, ref = weyl_leg(rng, n, d, scale=1.0, law=lambda F, E: compose(E, F))
        assert norm2(tau - ref) >= 1e-2 * norm2(ref)


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
    f = StepFunction.zero(1)
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
    g = StepFunction.zero(1)
    a = complex_randn(rng, 2, 2)
    t = 0.875
    lhs = cocycle_matrix_element(phi, f_coarse, g, t, a)
    rhs = cocycle_matrix_element(phi, f_fine, g, t, a)
    assert norm2(lhs - rhs) <= 1e-11 * (1.0 + norm2(lhs))


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
    rep = verify_cocycle_identity(phi, f, g, r=0.0, t=0.75)
    assert rep["max_residual"] <= 1e-12
    # r on a common breakpoint: the partition splits exactly there.
    rep = verify_cocycle_identity(phi, f, g, r=0.5, t=0.25)
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
    rep = verify_cocycle_identity(phi, f, g, r=0.3125, t=0.40625)
    assert rep["max_residual"] <= 1e-9
    assert rep == {"max_residual": rep["max_residual"], "scale": rep["scale"], "r": 0.3125, "t": 0.40625}


@pytest.mark.parametrize(("n", "d"), [(1, 1), (2, 1), (3, 2), (4, 1)])
def test_cocycle_identity_residual_equals_a_norm2_loop(monkeypatch, n, d):
    rng = np.random.default_rng(62 + n)
    phi = random_phi(rng, n, d)
    f, g = random_step(rng, d, pieces=4), random_step(rng, d, pieces=3)
    rep = verify_cocycle_identity(phi, f, g, r=0.3125, t=0.40625)
    # norm2 of the difference and of each side in a loop, in place of the batched SVD
    monkeypatch.setattr(qfk.matrix_elements, "norm2_stack", lambda s: np.array([norm2(x) for x in s]))
    assert verify_cocycle_identity(phi, f, g, r=0.3125, t=0.40625) == rep
    assert rep["max_residual"] > 0.0


def cocycle_sides(monkeypatch, phi, f, g, r, t):
    """(report, W, H T): the superoperators of the two sides, as verify_cocycle_identity
    hands them to its SVD."""
    stacks = []
    norm2_stack = qfk.matrix_elements.norm2_stack
    with monkeypatch.context() as m:
        m.setattr(qfk.matrix_elements, "norm2_stack", lambda s: stacks.append(s) or norm2_stack(s))
        rep = verify_cocycle_identity(phi, f, g, r=r, t=t)
    (stack,) = stacks
    return rep, stack[1], stack[2]


@pytest.mark.parametrize(("n", "d"), [(1, 1), (2, 2), (3, 1)])
def test_cocycle_identity_sides_are_the_elements_on_every_matrix_unit(monkeypatch, n, d):
    # column k of W is vec(kappa_{r+t}(E_k)), and of H T vec(kappa_r(kappa_t(E_k))),
    # each element composed matrix-vector by cocycle_matrix_element
    rng = np.random.default_rng(69 + n)
    phi = random_phi(rng, n, d)
    f, g = random_step(rng, d, pieces=4), random_step(rng, d, pieces=3)
    r, t = 0.3125, 0.40625
    rep, whole, split = cocycle_sides(monkeypatch, phi, f, g, r, t)
    fs, gs = f.shifted(r), g.shifted(r)
    for k in range(n * n):
        unit = np.zeros(n * n, dtype=complex)
        unit[k] = 1.0
        a = unvec(unit, n)
        lhs = vec(cocycle_matrix_element(phi, f, g, r + t, a))
        rhs = vec(cocycle_matrix_element(phi, f, g, r, cocycle_matrix_element(phi, fs, gs, t, a)))
        assert np.abs(whole[:, k] - lhs).max() <= 1e-13 * rep["scale"]
        assert np.abs(split[:, k] - rhs).max() <= 1e-13 * rep["scale"]
    assert rep["scale"] == max(norm2(whole), norm2(split))


def test_cocycle_identity_residual_bounds_every_sampled_observable(monkeypatch):
    # a defect planted in the first interval of [0, r + t), which the head and the
    # tail split at r: for each a, ||kappa_{r+t}(a) - kappa_r(kappa_t(a))||_F is at
    # most the residual times ||a||_F, the residual being the worst case over all a
    rng = np.random.default_rng(70)
    n, d = 3, 2
    phi = random_phi(rng, n, d)
    f = StepFunction.from_breakpoints([0.0, 0.5, 0.75, 1.0], complex_randn(rng, 3, d))
    g = StepFunction.from_breakpoints([0.0, 0.625, 1.0], complex_randn(rng, 2, d))
    r, t = 0.3125, 0.40625
    semigroups = qfk.matrix_elements._semigroups

    def planted(*args):
        stack, index = semigroups(*args)
        stack[0] *= 1 + 1e-6  # the first slice is the whole's first interval, [0, 0.5)
        return stack, index

    assert verify_cocycle_identity(phi, f, g, r, t)["max_residual"] <= 1e-13
    monkeypatch.setattr(qfk.matrix_elements, "_semigroups", planted)
    residual = verify_cocycle_identity(phi, f, g, r, t)["max_residual"]
    assert residual >= 1e-7
    parts = qfk.matrix_elements._cocycle_parts(f, g, r, t)
    c, dd, length = (np.concatenate(rows) for rows in zip(*parts))
    stack, index = planted(n, qfk.matrix_elements._assemble(phi, d)[1], c, dd, length)
    whole, head, tail = np.split(index, np.cumsum([p[2].size for p in parts[:2]]))
    compose = qfk.matrix_elements._compose
    ratios = []
    for _ in range(20):
        a = complex_randn(rng, n, n)
        defect = compose(n, stack, whole, a) - compose(n, stack, head, compose(n, stack, tail, a))
        ratios.append(np.linalg.norm(defect) / (residual * np.linalg.norm(a)))
    assert max(ratios) <= 1 + 1e-12
    assert min(ratios) > 0.0


def test_cocycle_identity_with_empty_partitions_reads_the_identity():
    # r = t = 0: the three partitions are empty, and each side is the identity superoperator
    rng = np.random.default_rng(63)
    phi = random_phi(rng, 2, 1)
    f, g = random_step(rng, 1), random_step(rng, 1)
    assert verify_cocycle_identity(phi, f, g, r=0.0, t=0.0) == {"max_residual": 0.0, "scale": 1.0, "r": 0.0, "t": 0.0}


def element_by_intervals(phi, f, g, t, a):
    """Reference: one defining-formula tau and one exponential per interval, nothing shared."""
    t_tick = to_ticks(t)
    cuts = sorted({0, t_tick} | {int(b) for sf in (f, g) for b in sf.ticks if 0 < b < t_tick})
    out = a
    for lo, hi in reversed(list(zip(cuts[:-1], cuts[1:]))):
        tau = tau_by_units(phi, f.value_at_tick(lo), g.value_at_tick(lo))
        out = semigroup_at(tau, (hi - lo) * TICK).apply(out)
    return out


def test_the_matelem_workload_jobs_pass_their_own_checks(workloads, tmp_path):
    # the benchmark's matelem jobs at seed 0 pass its own check, and each printed
    # element is the per-interval oracle's to 1e-13 of its largest entry; a break
    # in a signature or an output the benchmark reads fails here, not only there
    jobs = workloads.build("matelem", 0, str(tmp_path))
    failures = {}
    for i, job in enumerate(jobs):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = qfk.cli.main(job.argv)
        bad = job.check((rc, stdout.getvalue(), stderr.getvalue()))
        inst = load_instance(job.argv[job.argv.index("--instance") + 1])
        phi = phi_perturbed(inst.perturbation)
        f, g, a = inst.stepfunctions["f"], inst.stepfunctions["g"], default_observable(inst)
        ref = element_by_intervals(phi, f, g, float(job.argv[job.argv.index("--t") + 1]), a)
        rows = [line.split(",") for line in stdout.getvalue().splitlines()[1:] if not line.startswith("#")]
        got = np.array([complex(float(re), float(im)) for _, _, re, im in rows]).reshape(a.shape)
        if not np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max():
            bad.append(f"element off the per-interval oracle by {np.abs(got - ref).max() / np.abs(ref).max():.2e}")
        if bad:
            failures[f"{i}: {job.shape}"] = bad
    assert failures == {}
    shapes = sorted(job.shape for job in jobs)
    assert len(jobs) == 20 and sum(s.endswith(" residual") for s in shapes) == 2


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


def assert_units_within_entry_budget(calls, n, d):
    """n^2 evaluations of phi, in calls of as many matrix units as the entry
    budget holds (at least one), as validate_structure stacks its trials."""
    m = (d + 1) * n
    per_call = max(1, CHUNK_ENTRIES // (m * m))
    assert sum(calls) == n * n
    assert all(k <= per_call for k in calls)
    assert len(calls) == -(-n * n // per_call)


@pytest.mark.parametrize("intervals", [1, 32, 256])
def test_matrix_element_evaluates_phi_n_squared_times(intervals):
    rng = np.random.default_rng(63)
    phi, calls = counting_map(random_phi(rng, 2, 1))
    f = dyadic_step(complex_randn(rng, intervals, 1))
    g = dyadic_step(complex_randn(rng, intervals, 1))
    cocycle_matrix_element(phi, f, g, 1.0, np.eye(2))
    assert_units_within_entry_budget(calls, 2, 1)


def test_cocycle_identity_evaluates_phi_n_squared_times_in_all():
    rng = np.random.default_rng(64)
    phi, calls = counting_map(random_phi(rng, 3, 2))
    f = dyadic_step(complex_randn(rng, 16, 2))
    g = dyadic_step(complex_randn(rng, 16, 2))
    rep = verify_cocycle_identity(phi, f, g, r=0.3125, t=0.40625)
    assert_units_within_entry_budget(calls, 3, 2)
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


def test_blocks_entry_equals_the_phi_entry():
    # the blocks themselves in place of phi: the same element and residual, and
    # blocks of any other shape, or of another noise dimension, are refused
    rng = np.random.default_rng(70)
    phi = random_phi(rng, 2, 2)
    blocks = qfk.perturbations.block_superoperators(phi)
    f, g, a = random_step(rng, 2, pieces=5), random_step(rng, 2, pieces=3), complex_randn(rng, 2, 2)
    assert np.array_equal(cocycle_matrix_element(blocks, f, g, 0.75, a), cocycle_matrix_element(phi, f, g, 0.75, a))
    assert verify_cocycle_identity(blocks, f, g, 0.25, 0.5) == verify_cocycle_identity(phi, f, g, 0.25, 0.5)
    for bad in (blocks[0], blocks[:, :2], blocks[..., :3, :3], blocks[:1, :1], np.zeros(3)):
        with pytest.raises(DimensionMismatchError):
            cocycle_matrix_element(bad, f, g, 0.75, a)
    with pytest.raises(DimensionMismatchError):
        cocycle_matrix_element(blocks, random_step(rng, 1), random_step(rng, 1), 0.75, a)


def test_cocycle_dimension_check():
    phi = trivial_phi(1, 2)
    f = StepFunction.zero(1)
    with pytest.raises(DimensionMismatchError):
        cocycle_matrix_element(phi, f, f, 1.0, np.eye(1))


@pytest.mark.parametrize("t", [0.0, 1.0])
@pytest.mark.parametrize("shape", [(1, 4), (4, 1), (2, 2, 1), (4,)])
def test_observable_must_be_n_by_n(t, shape):
    phi = trivial_phi(2, 1)
    f = StepFunction.zero(1)
    with pytest.raises(DimensionMismatchError):
        cocycle_matrix_element(phi, f, f, t, np.ones(shape))


# --- the stacked pass against the per-interval oracle ---------------------------------

def signed_zero_steps(rng, d: int, palette: bool):
    """f on the 1/16 grid of [0, 1) and g cut at 5/32 and 17/32, so the common
    partition has intervals of 1/16 and of 1/32, with +-0.0 parts.

    g draws from two values, and a palette f from three, two of them equal as
    numbers but not as bits (0.0 and -0.0): equal pairs recur on intervals of both
    lengths.  A smooth f varies with time, every third real part -0.0.
    """
    f_rows = np.array([0.0, -0.0, complex(-0.0, 0.5)])
    g_rows = np.array([complex(0.5, -0.0), complex(-0.0, -0.0)])
    g = StepFunction.from_breakpoints(
        [0.0, 5 / 32, 3 / 16, 17 / 32, 1.0], np.repeat(g_rows[rng.integers(0, 2, size=4)][:, None], d, axis=1)
    )
    if palette:
        return dyadic_step(np.repeat(f_rows[rng.integers(0, 3, size=16)][:, None], d, axis=1)), g
    t = np.arange(16)[:, None] / 16.0 + np.arange(d)[None, :]
    fv = np.cos(3 * t) + 1j * np.sin(2 * t)
    fv.real[::3] = -0.0
    return dyadic_step(fv), g


def oracle_case(name):
    """(phi, f, g, t, a) for one named case of the stacked-pass comparison."""
    rng = np.random.default_rng(sum(map(ord, name)))
    n, d = {"n1 d1": (1, 1), "n4 d3": (4, 3)}.get(name, (2, 2))
    phi = random_phi(rng, n, d)
    a = complex_randn(rng, n, n)
    f = dyadic_step(complex_randn(rng, 16, d))
    g = StepFunction.from_breakpoints(np.arange(9) / 16.0, complex_randn(rng, 8, d))
    t = 1.0
    if name == "palette repeats":
        picks = complex_randn(rng, 3, 2 * d)[rng.integers(0, 3, size=32)]
        f, g = dyadic_step(picks[:, :d]), dyadic_step(picks[:, d:])
    elif name == "equal pairs, different lengths":
        c, dv = complex_randn(rng, 1, d), complex_randn(rng, 1, d)
        f = StepFunction.from_breakpoints([0.0, 0.125, 0.375, 1.0], np.vstack([c, c, c]))
        g = StepFunction.from_breakpoints([0.0, 0.375, 1.0], np.vstack([dv, dv]))
    elif name == "signed zeros":
        fv = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.5, -0.0), complex(-0.0, 0.5)]
        gv = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(0.0, 0.0)]
        f, g = (dyadic_step(np.repeat(np.array(v)[:, None], d, axis=1)) for v in (fv, gv))
    elif name in ("signed-zero palette", "signed-zero smooth"):
        f, g = signed_zero_steps(rng, d, name.endswith("palette"))
    elif name == "past both supports":
        t = 2.5
    elif name == "t = 0":
        t = 0.0
    elif name == "below one tick":
        t = 0.4 * TICK
    return phi, f, g, t, a


@pytest.mark.parametrize(
    "name",
    [
        "all distinct", "palette repeats", "equal pairs, different lengths", "signed zeros",
        "past both supports", "t = 0", "below one tick", "n1 d1", "n4 d3",
    ],
)
def test_stacked_pass_equals_per_interval_oracle(name):
    phi, f, g, t, a = oracle_case(name)
    ref = element_by_intervals(phi, f, g, t, a)
    out = cocycle_matrix_element(phi, f, g, t, a)
    assert out.shape == a.shape
    assert norm2(out - ref) <= 1e-14 * norm2(ref)
    if to_ticks(t) == 0:
        assert np.array_equal(out, a)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    d=st.integers(1, 2),
    pieces=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    palette=st.integers(1, 4),
    t64=st.integers(0, 96),
)
def test_stacked_pass_equals_per_interval_oracle_on_random_dyadic_steps(seed, n, d, pieces, palette, t64):
    rng = np.random.default_rng(seed)
    phi = random_phi(rng, n, d)
    a = complex_randn(rng, n, n)
    values = complex_randn(rng, palette, d)
    f, g = (
        StepFunction.from_breakpoints(
            [0.0, *np.sort(rng.choice(np.arange(1, 64), size=k - 1, replace=False)) / 64.0, 1.0],
            values[rng.integers(0, palette, size=k)],
        )
        for k in pieces
    )
    t = t64 / 64.0
    ref = element_by_intervals(phi, f, g, t, a)
    assert norm2(cocycle_matrix_element(phi, f, g, t, a) - ref) <= 1e-14 * norm2(ref)


def distinct_triples(f, g, t) -> set:
    """Distinct (c, d, length) of the partition of [0, t) by f and g, by the per-interval walk."""
    t_tick = to_ticks(t)
    cuts = sorted({0, t_tick} | {int(b) for sf in (f, g) for b in sf.ticks if 0 < b < t_tick})
    return {
        (f.value_at_tick(lo).tobytes(), g.value_at_tick(lo).tobytes(), hi - lo)
        for lo, hi in zip(cuts[:-1], cuts[1:])
    }


def counting_expm(monkeypatch):
    """Record the shape of each expm_stack call made by matrix_elements."""
    shapes = []

    def fn(x):
        shapes.append(np.shape(x))
        return expm_stack(x)

    monkeypatch.setattr(qfk.matrix_elements, "expm_stack", fn)
    return shapes


@pytest.mark.parametrize(
    "name",
    [
        "all distinct", "palette repeats", "equal pairs, different lengths", "signed zeros",
        "signed-zero palette", "signed-zero smooth", "t = 0",
    ],
)
def test_matrix_element_makes_one_expm_call_with_a_slice_per_distinct_interval(monkeypatch, name):
    phi, f, g, t, a = oracle_case(name)
    shapes = counting_expm(monkeypatch)
    cocycle_matrix_element(phi, f, g, t, a)
    m = phi.n ** 2
    assert shapes == [(len(distinct_triples(f, g, t)), m, m)]


def test_cocycle_identity_makes_one_expm_call_across_its_three_partitions(monkeypatch):
    rng = np.random.default_rng(67)
    phi = random_phi(rng, 2, 1)
    palette = complex_randn(rng, 2, 2)
    picks = palette[rng.integers(0, 2, size=16)]
    f, g = dyadic_step(picks[:, :1]), dyadic_step(picks[:, 1:])
    r, t = 0.3125, 0.40625
    shapes = counting_expm(monkeypatch)
    rep = verify_cocycle_identity(phi, f, g, r=r, t=t)
    distinct = (
        distinct_triples(f, g, r + t)
        | distinct_triples(f, g, r)
        | distinct_triples(f.shifted(r), g.shifted(r), t)
    )
    assert shapes == [(len(distinct), 4, 4)]
    assert rep["max_residual"] <= 1e-9


@pytest.mark.parametrize("name", ["all distinct", "palette repeats", "signed-zero palette", "t = 0"])
def test_stack_size_counts_the_exponentiated_slices(monkeypatch, name):
    phi, f, g, t, a = oracle_case(name)
    r = t / 3
    shapes = counting_expm(monkeypatch)
    cocycle_matrix_element(phi, f, g, t, a)
    verify_cocycle_identity(phi, f, g, r=r, t=t - r)
    assert [shape[0] for shape in shapes] == [stack_size(f, g, t), stack_size(f, g, t - r, r)]


def semigroups_by_np_unique(n, blocks, c, d, length):
    """The distinct-triple pass as np.unique forms it (slices in sorted key order):
    the reference for the dict pass."""
    keys = np.hstack((c.view(np.int64), d.view(np.int64), length[:, None]))
    _, first, index = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    taus = qfk.matrix_elements._taus(n, blocks, c[first], d[first])
    taus *= (length[first] * TICK)[:, None, None]
    return expm_stack(taus), index.reshape(-1)


@pytest.mark.parametrize("name", ["signed-zero palette", "signed-zero smooth", "palette repeats", "n4 d3"])
def test_dict_pass_equals_the_np_unique_pass_bit_for_bit(monkeypatch, name):
    phi, f, g, t, a = oracle_case(name)
    r = 0.3125

    def outputs():
        kappa = cocycle_matrix_element(phi, f, g, t, a)
        rep = verify_cocycle_identity(phi, f, g, r=r, t=t - r)
        return kappa.tobytes(), rep["max_residual"]

    got = outputs()
    monkeypatch.setattr(qfk.matrix_elements, "_semigroups", semigroups_by_np_unique)
    assert got == outputs()


def test_stacked_pass_peak_memory_is_two_stacks_plus_blocks():
    rng = np.random.default_rng(68)
    n, k = 8, 64
    phi = random_phi(rng, n, 1)
    f, g = dyadic_step(complex_randn(rng, k, 1)), dyadic_step(complex_randn(rng, k, 1))
    a = complex_randn(rng, n, n)
    cocycle_matrix_element(phi, f, g, 1.0, a)  # warm caches outside the measurement
    matrix = n**4 * 16  # bytes of one n^2 x n^2 complex matrix
    tracemalloc.start()
    try:
        cocycle_matrix_element(phi, f, g, 1.0, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (k, n^2, n^2) generators and their exponentials, phi's (d + 1)^2
    # blocks, and scipy's expm scratch: five matrices of Pade workspace and
    # the squarings of one slice, whatever k
    assert peak <= (2 * k + 4 + 8) * matrix
