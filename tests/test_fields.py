"""Test-field families against their scalar-loop oracles."""

import numpy as np
import pytest
from fields_oracle import haar_polynomial_per_field, standard_field_mode_loop, trig_band_cos_loop

from haarriesz.fields import (
    haar_polynomial,
    haar_polynomials,
    standard_random_field,
    trig_band_field,
)


@pytest.mark.parametrize("n,J", [(1, 5), (1, 7), (2, 5), (2, 6), (3, 4), (3, 5)])
def test_trig_band_field_matches_cos_loop(n, J):
    # the separable evaluation reorders the rounding of the cosine sum only
    for seed in range(3):
        for i0 in range(1, n + 1):
            expect = trig_band_cos_loop(n, J, seed, index=seed + 2, i0=i0)
            got = trig_band_field(n, J, seed, index=seed + 2, i0=i0).values
            assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


@pytest.mark.parametrize("n,J", [(1, 7), (2, 4), (2, 8), (3, 6)])
def test_standard_random_field_matches_mode_loop(n, J):
    for seed in (0, 5):
        assert np.array_equal(standard_random_field(n, J, seed).values,
                              standard_field_mode_loop(n, J, seed))


@pytest.mark.parametrize("n,J,top", [(1, 6, 5), (2, 4, 3), (2, 5, 2), (3, 4, 3)])
def test_haar_polynomials_stack_equals_per_field_synthesis(n, J, top):
    # one stacked synthesis, bit for bit the per-field one, for indices in
    # any order and with repeats
    indices = [7, 0, 3, 7, 1000]
    stack = haar_polynomials(n, J, 11, indices, max_level=top)
    assert stack.shape == (len(indices),) + (2**J,) * n
    for index, values in zip(indices, stack):
        want = haar_polynomial_per_field(n, J, 11, index, top)
        assert values.tobytes() == want.tobytes()
        assert haar_polynomial(n, J, 11, index, top).values.tobytes() == want.tobytes()
