"""The shared point sets: scipy's scrambled Halton in numpy, cached read-only."""

import numpy as np
import pytest

from klflow.sampling import SAMPLER_SEED, _halton, unit_ball_points, unit_directions


@pytest.mark.parametrize("dim", range(1, 13))
def test_halton_equals_scipy_bit_for_bit(dim):
    from scipy.stats import qmc

    for seed in (SAMPLER_SEED, 0):
        for n in (1, 24, 72, 1033):
            expected = qmc.Halton(d=dim, scramble=True, seed=seed).random(n)
            assert np.array_equal(_halton(dim, n, seed), expected), (dim, seed, n)


def test_halton_first_rows_are_pinned():
    # literal values, so that a scipy release that changes its Halton
    # cannot change klflow's samples along with the comparison above
    rows_2 = [
        [0.8426540228958418, 0.21573320568623233],
        [0.3426540228958418, 0.5490665390195656],
        [0.5926540228958418, 0.8823998723528989],
    ]
    rows_4 = [
        [0.8426540228958418, 0.21573320568623233, 0.23313945291739868, 0.9857979845052105],
        [0.3426540228958418, 0.5490665390195656, 0.8331394529173988, 0.8429408416480676],
        [0.5926540228958418, 0.8823998723528989, 0.4331394529173987, 0.5572265559337819],
    ]
    assert _halton(2, 3, SAMPLER_SEED).tolist() == rows_2
    assert _halton(4, 3, SAMPLER_SEED).tolist() == rows_4


@pytest.mark.parametrize("sampler", [unit_directions, unit_ball_points])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cached_point_sets_are_read_only(sampler, dim):
    pts = sampler(dim, 16)
    with pytest.raises(ValueError, match="read-only"):
        pts[0, 0] = 7.0
    assert sampler(dim, 16) is pts
