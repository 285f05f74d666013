"""Acceptance gate: twelve pinned criteria, one report line each.

Every test prints a single line

    [ k] PASS|FAIL  <criterion>: <measured detail>  (<elapsed> / <budget>)

visible under ``pytest tests/test_acceptance.py -v -s``, then asserts both the
criterion and its runtime budget.  Tolerances and budgets are pinned; the
random instances are seeded so the gate is reproducible.
"""

import time

import numpy as np
from scipy.linalg import expm

from qfk.coefficients import (
    BlockCoefficient,
    delta_perp,
    delta_projection,
    min_quasicontractivity_beta,
    q_form,
    q_form_adjoint,
    transform_double_prime,
    transform_prime,
)
from qfk.flows import hp_coefficient_for_flow, structure_defects, trivial_flow, validate_structure
from qfk.linalg import (
    dag,
    min_eig_hermitian,
    norm2,
    norm2_stack,
)
from qfk.matrix_elements import (
    StepFunction,
    chi,
    cocycle_matrix_element,
    exponential_inner_product,
    verify_cocycle_identity,
)
from qfk.perturbations import (
    PerturbationSpec,
    block_superoperators,
    choi_matrix,
    composed_blocks,
    composed_vacuum_generator,
    phi_perturbed,
    psi_map,
    semigroup_at,
    vacuum_generator,
)
from qfk.toy_fock import (
    ToyFockModel,
    fk_expectation_channel,
    hp_vacuum_compression,
    isometry_defect_channel,
    ladder_verdict,
    multiplier_cocycle_residual,
    simulate_hp_unitary,
    simulate_perturbation,
    stochastic_derivative_estimate,
)

from conftest import (
    SIGMA_MINUS,
    complex_randn,
    contraction_coefficient,
    damping_coefficient,
    gauge_free,
    inner_coefficient,
    random_coefficient,
    random_dyadic,
    random_flow,
    random_hermitian,
    raw_theta_map,
    unchecked_flow,
    weyl_coefficient,
    zero_coefficient,
)

KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
LADDER = (4, 8, 16, 32)  # the contraction evaluators never materialize C^D,
# so the full ladder is available at every criterion-10 instance.


def _report(num: int, name: str, ok: bool, detail: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    line = (
        f"[{num:2d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}"
        f"  ({elapsed:.2f}s / {budget:g}s budget)"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s >= {budget:g}s"


def _random_dims(rng, hi: int = 3) -> tuple[int, int]:
    return int(rng.integers(1, hi + 1)), int(rng.integers(1, hi + 1))


def test_criterion_01_q_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n, d = _random_dims(rng)
        F = random_coefficient(rng, n, d)
        full = F.as_full()
        delta = delta_projection(n, d)
        direct = dag(full) + full + dag(full) @ delta @ full
        direct_adj = full + dag(full) + full @ delta @ dag(full)
        worst = max(worst, norm2(q_form(F) - direct))
        worst = max(worst, norm2(q_form_adjoint(F) - direct_adj))
    _report(
        1,
        "q(F), q(F*) blockform vs direct",
        worst <= 1e-12,
        f"max deviation {worst:.2e} <= 1e-12 over 100 draws (n, d <= 3)",
        t0,
        1.0,
    )


def test_criterion_02_shift_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        n, d = _random_dims(rng)
        F = random_coefficient(rng, n, d)
        beta = float(rng.normal()) * 2.0
        shifted = BlockCoefficient(K=F.K - 0.5 * beta * np.eye(n), L=F.L, M=F.M, W=F.W)
        worst = max(worst, norm2(q_form(shifted) - (q_form(F) - beta * delta_perp(n, d))))
    _report(
        2,
        "q(F - beta/2 Delta_perp) = q(F) - beta Delta_perp",
        worst <= 1e-12,
        f"max deviation {worst:.2e} <= 1e-12 over 100 random (F, beta)",
        t0,
        1.0,
    )


def test_criterion_03_min_beta():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_at = -np.inf  # most negative min-eig at beta_min (want >= -1e-8)
    worst_below = np.inf  # largest min-eig at beta_min - 1e-2 (want < -1e-3)
    count = 0
    while count < 50:
        n, d = _random_dims(rng)
        F = contraction_coefficient(rng, n, d)
        beta = min_quasicontractivity_beta(F)
        if beta is None:
            continue
        count += 1
        dp = delta_perp(n, d)
        at = min_eig_hermitian(beta * dp - q_form(F))
        below = min_eig_hermitian((beta - 1e-2) * dp - q_form(F))
        worst_at = max(worst_at, -at)
        worst_below = min(worst_below, -below)
    analytic = min_quasicontractivity_beta(
        BlockCoefficient(K=np.eye(1), L=np.zeros((1, 1)), M=np.zeros((1, 1)), W=np.zeros((1, 1)))
    )
    ok = (
        worst_at <= 1e-8
        and worst_below > 1e-3
        and analytic is not None
        and abs(analytic - 2.0) <= 1e-6
    )
    _report(
        3,
        "min-beta PSD at beta_min, not PSD below",
        ok,
        f"min eig >= -{worst_at:.2e} at beta_min, <= -{worst_below:.2e} at beta_min - 1e-2 "
        f"(50 feasible), analytic K=1 gives {analytic:.8f}",
        t0,
        5.0,
    )


def test_criterion_04_structure_relations():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    # the closed-form leg: each bound times ||x|| ||y|| (||x|| for real, 1 for unital)
    # covers the residual sampled on those x and y, within a rounding of 64 eps (1 + scale)
    uncovered, bound = -np.inf, 0.0
    for i in range(50):
        n, d = _random_dims(rng)
        fg = random_flow(rng, n, d)
        rep = validate_structure(fg, trials=20, tol=1e-11, seed=i)
        worst = max(worst, rep.max_residual)
        draws = np.random.default_rng(i)  # validate_structure's stream: x, then y, per pair
        pairs = [(norm2(complex_randn(draws, n, n)), norm2(complex_randn(draws, n, n))) for _ in range(20)]
        sizes = {"unital": 1.0, "real": max(nx for nx, _ in pairs)}
        closed = structure_defects(fg, 1e-11)
        for key, r in rep.residuals.items():
            size = sizes.get(key, max(nx * ny for nx, ny in pairs))
            uncovered = max(uncovered, (r / size - closed.residuals[key]) / (1 + closed.scales[key]))
        bound = max(bound, closed.max_residual)
    W = np.eye(2) + 0.3 * complex_randn(rng, 2, 2)
    zero = np.zeros((2, 2))
    control = validate_structure(raw_theta_map(zero, zero, W, n=2, d=1), trials=20, tol=1e-11, seed=0)
    closed_control = structure_defects(unchecked_flow(zero, zero, W), 1e-11)
    rounding = 64 * np.finfo(float).eps
    _report(
        4,
        "flow structure relations + negative control",
        worst <= 1e-11 and not control.passed and uncovered <= rounding and not closed_control.passed,
        f"max residual {worst:.2e} <= 1e-11 over 50 flows x 20 pairs; closed-form bounds <= {bound:.2e} "
        f"cover them ({uncovered / np.finfo(float).eps:.2f} eps past at most, of 64); "
        f"non-unitary W control residual {control.max_residual:.2e}, bound {closed_control.max_residual:.2e}, "
        f"fails both as required",
        t0,
        10.0,
    )


def test_criterion_05_phi_dual_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        n, d = _random_dims(rng)
        fg = random_flow(rng, n, d)
        F1 = random_coefficient(rng, n, d, scale=0.4)
        F2 = random_coefficient(rng, n, d, scale=0.4)
        # 20 inputs x follow each spec in this stream; skipping them keeps the 50 specs of seed 105
        rng.standard_normal(40 * n * n)
        by_formula = block_superoperators(phi_perturbed(PerturbationSpec(theta=fg, F1=F1, F2=F2)))
        closed = composed_blocks(hp_coefficient_for_flow(fg), F1, F2)
        worst = max(worst, float(norm2_stack((by_formula - closed).reshape(-1, n * n, n * n)).max()))
    _report(
        5,
        "phi defining formula vs closed form",
        worst <= 1e-11,
        f"max block deviation {worst:.2e} <= 1e-11 over 50 specs x (d+1)^2 blocks",
        t0,
        10.0,
    )


def test_criterion_06_vacuum_generator_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        n, d = _random_dims(rng)
        fg = random_flow(rng, n, d)
        F1 = random_coefficient(rng, n, d, scale=0.4)
        F2 = random_coefficient(rng, n, d, scale=0.4)
        base = vacuum_generator(phi_perturbed(PerturbationSpec(theta=fg, F1=F1, F2=F2))).mat
        for tf in (transform_prime, transform_double_prime):
            other = vacuum_generator(
                phi_perturbed(PerturbationSpec(theta=fg, F1=tf(F1), F2=tf(F2)))
            ).mat
            worst = max(worst, norm2(base - other))
    _report(
        6,
        "vacuum generator invariant under F', F''",
        worst <= 1e-12,
        f"max deviation {worst:.2e} <= 1e-12 over 50 specs, both transforms",
        t0,
        5.0,
    )


def test_criterion_07_semigroup_property_flags():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    times = (0.1, 1.0, 5.0)
    worst_unital = 0.0
    worst_choi = 0.0
    worst_contr = 0.0
    for _ in range(25):
        n, d = _random_dims(rng, hi=2)
        fg = random_flow(rng, n, d, scale=0.3)
        dn = d * n
        l1 = complex_randn(rng, dn, n) * 0.3
        l2 = complex_randn(rng, dn, n) * 0.3
        k2 = complex_randn(rng, n, n) * 0.3
        k1 = -dag(k2 + dag(l1) @ l2)  # forces G(1) = 0
        drive = hp_coefficient_for_flow(fg)
        G = composed_vacuum_generator(drive, gauge_free(k1, l1), gauge_free(k2, l2))
        for t in times:
            P = semigroup_at(G, t)
            worst_unital = max(worst_unital, norm2(P.apply(np.eye(n)) - np.eye(n)))
        l = complex_randn(rng, dn, n) * 0.3
        k = complex_randn(rng, n, n) * 0.3
        G_cp = composed_vacuum_generator(drive, gauge_free(k, l), gauge_free(k, l))
        for t in times:
            worst_choi = max(worst_choi, -min_eig_hermitian(choi_matrix(semigroup_at(G_cp, t))))
        c = 0.05 + float(rng.uniform(0.0, 0.3))
        k_contr = 1j * random_hermitian(rng, n, 0.3) - 0.5 * dag(l) @ l - c * np.eye(n)
        G_contr = composed_vacuum_generator(drive, gauge_free(k_contr, l), gauge_free(k_contr, l))
        for t in times:
            worst_contr = max(worst_contr, norm2(semigroup_at(G_contr, t).apply(np.eye(n))) - 1.0)
    ok = worst_unital <= 1e-10 and worst_choi <= 1e-8 and worst_contr <= 1e-10
    _report(
        7,
        "semigroup flags per class",
        ok,
        f"unital ||P_t(1)-1|| <= {worst_unital:.2e}; Choi min-eig >= -{worst_choi:.2e}; "
        f"contractive ||P_t(1)||-1 <= {worst_contr:.2e} (25/class, t in {{0.1, 1, 5}})",
        t0,
        30.0,
    )


def test_criterion_08_damping_semigroup():
    t0 = time.perf_counter()
    l = SIGMA_MINUS
    F = gauge_free(-0.5 * dag(l) @ l, l)
    G = composed_vacuum_generator(hp_coefficient_for_flow(trivial_flow(2, 1)), F, F)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        worst = max(worst, norm2(semigroup_at(G, t).apply(KET1) - np.exp(-t) * KET1))
    _report(
        8,
        "damping P_t(|1><1|) = e^{-t}|1><1|",
        worst <= 1e-10,
        f"max deviation {worst:.2e} <= 1e-10 at t in {{0.5, 1, 2}}",
        t0,
        1.0,
    )


def test_criterion_09_cocycle_matrix_elements():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    worst_boot = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        c = complex_randn(rng, d, 1).ravel()
        e = complex_randn(rng, d, 1).ravel()
        t = random_dyadic(rng, 1, 128)  # up to 2.0, tick-exact
        f = StepFunction.constant(c, 2.0)
        g = StepFunction.constant(e, 2.0)
        worst_boot = max(
            worst_boot, abs(exponential_inner_product(f, g, t) - np.exp(-t * chi(c, e)))
        )

    def dyadic_step(d: int, pieces: int = 3) -> StepFunction:
        cuts = np.sort(rng.choice(np.arange(1, 64), size=pieces - 1, replace=False))
        bps = [0.0] + [c / 64.0 for c in cuts] + [1.0]
        return StepFunction.from_breakpoints(bps, complex_randn(rng, pieces, d))

    worst_wc = 0.0
    for _ in range(20):
        n, d = _random_dims(rng, hi=2)
        spec = PerturbationSpec(
            theta=random_flow(rng, n, d),
            F1=random_coefficient(rng, n, d, scale=0.4),
            F2=random_coefficient(rng, n, d, scale=0.4),
        )
        phi = phi_perturbed(spec)
        f, g = dyadic_step(d), dyadic_step(d)
        r = random_dyadic(rng, 0, 32)
        t = random_dyadic(rng, 1, 32)
        rep = verify_cocycle_identity(phi, f, g, r=r, t=t)
        worst_wc = max(worst_wc, rep["max_residual"])

    worst_weyl = 0.0
    vac = StepFunction.zero(1)
    for lam in (1.0, 0.7 - 0.4j, 0.3 + 0.5j):
        phi = psi_map(trivial_flow(1, 1), weyl_coefficient(lam))
        for t in (0.5, 1.0, 2.0):
            out = cocycle_matrix_element(phi, vac, vac, t, np.eye(1))
            worst_weyl = max(worst_weyl, abs(out[0, 0] - np.exp(-0.5 * abs(lam) ** 2 * t)))
    ok = worst_boot <= 1e-10 and worst_wc <= 1e-9 and worst_weyl <= 1e-10
    _report(
        9,
        "matrix elements: bootstrap, weak cocycle, Weyl",
        ok,
        f"bootstrap {worst_boot:.2e} <= 1e-10; weak-cocycle {worst_wc:.2e} <= 1e-9 "
        f"(20 draws); Weyl {worst_weyl:.2e} <= 1e-10",
        t0,
        10.0,
    )


def test_criterion_10_simulator_ladders():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    verdicts = {}

    G = inner_coefficient(rng, 2, 1)
    target = expm(1.0 * G.K)
    verdicts["hp"] = ladder_verdict(
        [norm2(hp_vacuum_compression(2, 1, N, 1.0, G) - target) for N in LADDER]
    )

    Fd = damping_coefficient()
    fk_target = np.exp(-0.5) * KET1
    verdicts["fk"] = ladder_verdict(
        [
            norm2(fk_expectation_channel(2, 1, N, 0.5, None, Fd, Fd, KET1) - fk_target)
            for N in LADDER
        ]
    )

    rng_m = np.random.default_rng(111)
    G_m = inner_coefficient(rng_m, 1, 1)
    F_m = random_coefficient(rng_m, 1, 1, scale=0.5)
    verdicts["multiplier"] = ladder_verdict(
        [
            multiplier_cocycle_residual(1, 1, N, 1.0, G_m, F_m, split=max(1, N // 4))
            for N in LADDER
        ]
    )

    verdicts["isometry"] = ladder_verdict(
        [isometry_defect_channel(1, 1, N, 1.0, weyl_coefficient(1.0)) for N in LADDER]
    )

    ok = all(v["passed"] for v in verdicts.values())
    detail = "; ".join(
        f"{k} {v['errors'][0]:.2e}->{v['errors'][-1]:.2e} ({'ok' if v['passed'] else 'BAD'})"
        for k, v in verdicts.items()
    )
    _report(10, f"simulator ladders N in {LADDER}", ok, detail, t0, 300.0)


def test_criterion_11_exact_discrete_identities():
    t0 = time.perf_counter()

    model = ToyFockModel(n=2, d=1, N=5, T=0.8)
    V = simulate_hp_unitary(model, zero_coefficient(2, 1))
    F_proj = BlockCoefficient(
        K=np.zeros((2, 2)), L=np.zeros((2, 2)), M=np.zeros((2, 2)), W=np.zeros((2, 2))
    )
    Y = simulate_perturbation(model, V, F_proj)
    stride = model.slot_dim**model.N
    cols = np.zeros((model.D, model.n), dtype=complex)
    for u in range(model.n):
        cols[u * stride, u] = 1.0
    err_proj = norm2(Y.ops[-1] - cols @ dag(cols))

    rng = np.random.default_rng(112)
    model2 = ToyFockModel(n=2, d=1, N=4, T=0.7)
    V2 = simulate_hp_unitary(model2, inner_coefficient(rng, 2, 1))
    F = random_coefficient(rng, 2, 1, scale=0.6)
    Y_full = simulate_perturbation(model2, V2, F)
    Y_prime = simulate_perturbation(model2, V2, transform_prime(F))
    stride2 = model2.slot_dim**model2.N
    cols2 = np.zeros((model2.D, model2.n), dtype=complex)
    for u in range(model2.n):
        cols2[u * stride2, u] = 1.0
    err_shred = norm2((Y_full.ops[-1] - Y_prime.ops[-1]) @ cols2)

    _report(
        11,
        "exact discrete identities",
        err_proj <= 1e-13 and err_shred <= 1e-12,
        f"vacuum projection {err_proj:.2e} <= 1e-13; shredding columns {err_shred:.2e} <= 1e-12",
        t0,
        30.0,
    )


def test_criterion_12_stochastic_derivative():
    t0 = time.perf_counter()

    F = weyl_coefficient(1.0)
    errs = []
    for T in (0.4, 0.2, 0.1):  # N fixed, so h/T = 1/N is fixed
        model = ToyFockModel(n=1, d=1, N=8, T=T)
        V = simulate_hp_unitary(model, zero_coefficient(1, 1))
        Y = simulate_perturbation(model, V, F)
        errs.append(norm2(stochastic_derivative_estimate(model, Y) - F.as_full()))

    model = ToyFockModel(n=2, d=1, N=4, T=0.8)
    V = simulate_hp_unitary(model, zero_coefficient(2, 1))
    F_proj = BlockCoefficient(
        K=np.zeros((2, 2)), L=np.zeros((2, 2)), M=np.zeros((2, 2)), W=np.zeros((2, 2))
    )
    Y = simulate_perturbation(model, V, F_proj)
    exact_err = norm2(stochastic_derivative_estimate(model, Y) - F_proj.as_full())

    ok = errs[2] < errs[1] < errs[0] and exact_err <= 1e-12
    _report(
        12,
        "stochastic-derivative estimator",
        ok,
        f"Weyl errors {errs[0]:.3f} > {errs[1]:.3f} > {errs[2]:.3f} decreasing "
        f"over T in {{0.4, 0.2, 0.1}}; F = -Delta exact to {exact_err:.2e}",
        t0,
        60.0,
    )
