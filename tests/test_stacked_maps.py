"""Operator maps on (k, n, n) stacks: each item's image is the image of the item."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfk.flows import OperatorMap, from_hp_coefficient
from qfk.linalg import DimensionMismatchError, complex_randn, random_unitary
from qfk.perturbations import PerturbationSpec, phi_perturbed, phi_perturbed_blockform, psi_map

from conftest import inner_coefficient, random_coefficient, random_flow, raw_theta_map


def all_maps(rng: np.random.Generator, n: int, d: int) -> dict:
    fg = random_flow(rng, n, d)
    spec = PerturbationSpec(theta=fg, F1=random_coefficient(rng, n, d), F2=random_coefficient(rng, n, d))
    return {
        "theta": fg.as_map(),
        "from_hp_coefficient": from_hp_coefficient(inner_coefficient(rng, n, d)),
        "psi_map": psi_map(fg, random_coefficient(rng, n, d)),
        "phi_perturbed": phi_perturbed(spec),
        "phi_perturbed_blockform": phi_perturbed_blockform(spec),
        "raw_theta_map": raw_theta_map(
            complex_randn(rng, n, n), complex_randn(rng, d * n, n), random_unitary(rng, d * n), n, d
        ),
    }


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 4),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_stack_equals_loop_bit_for_bit(n, d, seed, data):
    k = data.draw(st.sampled_from([1, n, 7]), label="k")
    rng = np.random.default_rng(seed)
    stack = np.stack([complex_randn(rng, n, n) for _ in range(k)])
    for name, m in all_maps(rng, n, d).items():
        out = m(stack)
        assert out.shape == (k, (d + 1) * n, (d + 1) * n), name
        assert np.array_equal(out, np.stack([m(x) for x in stack])), name


def test_map_that_ignores_the_stack_is_rejected():
    single = OperatorMap(n=2, d=1, fn=lambda x: np.zeros((4, 4), dtype=complex))
    assert single(np.eye(2)).shape == (4, 4)
    with pytest.raises(DimensionMismatchError):
        single(np.zeros((3, 2, 2)))

