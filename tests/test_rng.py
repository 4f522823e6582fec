"""Seed derivation and bit draws: the preconditions on seeds and lengths."""

import random

import pytest

from starqkd.rng import MAX_SEED, StreamRegistry, derive_seed, random_bits


def test_seeds_and_lengths_out_of_range_are_rejected():
    for seed in (-1, MAX_SEED + 1):
        with pytest.raises(ValueError, match="root_seed: must be"):
            derive_seed(seed, "x")
        with pytest.raises(ValueError, match="root_seed: must be"):
            StreamRegistry(seed)
    with pytest.raises(ValueError, match="n_bits: must be >= 1"):
        random_bits(random.Random(0), 0)
    StreamRegistry(MAX_SEED).stream("x")  # the largest seed is accepted
