"""The stdlib PCG64 sampler against numpy.random, a test-only reference."""

import math

import numpy as np
import pytest

from harnacklab.sampling import Sampler

#: 0, small seeds, one and three 32-bit words, and five words, which take
#: SeedSequence's loop over the entropy beyond its pool of four
SEEDS = [0, 1, 7, 101, 2**32 + 5, 2**70 + 3, 2**130 + 17, 3**100]


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_words_match_numpy(seed):
    ref = np.random.default_rng(seed).bit_generator.random_raw(64)
    rng = Sampler(seed)
    assert [rng.next64() for _ in range(64)] == ref.tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [1, 20, 100])
def test_corollary_layout_matches_numpy(seed, count):
    # cli._sample_triples: uniform(size=(count, 2)) radii, then uniform(size=count)
    lo, hi = math.log(0.5), math.log(3.0)
    ref = np.random.default_rng(seed)
    pairs = ref.uniform(lo, hi, size=(count, 2))
    phi = ref.uniform(0.0, math.pi, size=count)
    rng = Sampler(seed)
    assert [rng.uniform(lo, hi) for _ in range(2 * count)] == pairs.ravel().tolist()
    assert [rng.uniform(0.0, math.pi) for _ in range(count)] == phi.tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_oracle_layout_matches_numpy(seed, dim):
    # cmd_oracle: one uniform(-0.05, 0.05, size=dim) per probe
    ref = np.random.default_rng(seed)
    rng = Sampler(seed)
    for _ in range(10):
        want = ref.uniform(-0.05, 0.05, size=dim).tolist()
        assert [rng.uniform(-0.05, 0.05) for _ in range(dim)] == want


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, 2.0, "7", True, None])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed must be"):
        Sampler(seed)
