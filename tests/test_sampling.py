"""The shared point sets: scipy's scrambled Halton and normal quantile in numpy, cached
read-only."""

import numpy as np
import pytest

from klflow.sampling import (
    _EXP_M2, SAMPLER_SEED, _halton, _ndtri, unit_ball_points, unit_directions,
)


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


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("dim", range(2, 7))
def test_ndtri_equals_scipy_on_the_halton_sets(dim):
    from scipy.special import ndtri

    for seed in (SAMPLER_SEED, 0):
        raw = np.clip(_halton(dim + 1, 1033, seed), 1e-12, 1.0 - 1e-12)
        assert _same_bits(_ndtri(raw), ndtri(raw)), (dim, seed)


def test_ndtri_equals_scipy_in_each_branch_and_at_its_edges():
    from scipy.special import ndtri

    rng = np.random.default_rng(7)
    central = rng.uniform(_EXP_M2, 1.0 - _EXP_M2, 10**5)
    lower = 10.0 ** rng.uniform(-12.0, np.log10(_EXP_M2), 10**5)
    edges = [1e-12, 1.0 - 1e-12, 0.5]
    for b in (_EXP_M2, 1.0 - _EXP_M2):
        edges += [np.nextafter(b, 0.0), b, np.nextafter(b, 1.0)]
    for p in (central, lower, 1.0 - lower, np.array(edges)):
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        assert _same_bits(_ndtri(p), ndtri(p))


def test_sampler_first_rows_are_pinned():
    # literal values, as for the Halton rows above, for the normal quantile
    dirs_2 = [
        [0.7875696410759436, -0.6162256570896],
        [-0.9566921152155882, 0.29110169474656766],
        [0.19370259738614037, 0.9810602956831261],
        [-0.9471460453027444, -0.32080269460740485],
    ]
    ball_3 = [
        [0.6807673014443513, -0.5326592796092898, -0.4932944448858697],
        [-0.36271075006837816, 0.11036540635009848, 0.8652181913994726],
        [0.15787528815474414, 0.7996029943232668, -0.11342443779144645],
    ]
    assert unit_directions(2, 4).tolist() == dirs_2
    assert unit_ball_points(3, 3).tolist() == ball_3


@pytest.mark.parametrize("sampler", [unit_directions, unit_ball_points])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cached_point_sets_are_read_only(sampler, dim):
    pts = sampler(dim, 16)
    with pytest.raises(ValueError, match="read-only"):
        pts[0, 0] = 7.0
    assert sampler(dim, 16) is pts
