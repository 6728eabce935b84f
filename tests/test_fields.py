"""Test-field families against their scalar-loop oracles."""

import numpy as np
import pytest
from fields_oracle import standard_field_mode_loop, trig_band_cos_loop

from haarriesz.fields import standard_random_field, trig_band_field


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
