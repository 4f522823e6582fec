"""Seed derivation and bit draws: the preconditions on seeds and lengths."""

import random

import pytest

from starqkd.errors import RangeError
from starqkd.rng import MAX_RANDOM_BITS, MAX_SEED, StreamRegistry, derive_seed, random_bits


def test_seeds_and_lengths_out_of_range_are_rejected():
    for seed in (-1, MAX_SEED + 1):
        with pytest.raises(ValueError, match="root_seed: must be"):
            derive_seed(seed, "x")
        with pytest.raises(ValueError, match="root_seed: must be"):
            StreamRegistry(seed)
    StreamRegistry(MAX_SEED).stream("x")  # the largest seed is accepted
    # getrandbits takes a C int, so 2**31 bits used to raise a bare
    # OverflowError. Each length is rejected before the stream moves, and
    # no key past the limit is ever made here.
    assert MAX_RANDOM_BITS == 2**31 - 1
    rng = random.Random(0)
    state = rng.getstate()
    for n_bits, message in (
        (0, "n_bits: must be >= 1, got 0"),
        (MAX_RANDOM_BITS + 1, f"n_bits: must be <= {MAX_RANDOM_BITS}, got {MAX_RANDOM_BITS + 1}"),
        (2**40, f"n_bits: must be <= {MAX_RANDOM_BITS}, got {2**40}"),
    ):
        with pytest.raises(RangeError, match=message):
            random_bits(rng, n_bits)
        assert rng.getstate() == state
