"""Secret sharing: split, reconstruct, proactive refresh, secrecy oracle."""

import random

import pytest

from starqkd.errors import (
    BadField,
    RangeError,
    DuplicateX,
    FieldTooLarge,
    InsufficientKey,
    MissingShares,
    MixedRounds,
    NotEnoughShares,
)
from starqkd.keycore import KeyPool
from starqkd.sharing import (
    DEFAULT_FIELD_PRIME,
    Share,
    ShareConfig,
    _is_prime,
    reconstruct,
    refresh,
    secrecy_oracle,
    split,
)


class FixedRng:
    """Feeds predetermined polynomial coefficients to split/refresh."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, _p):
        return self.values.pop(0)


def budget(bits: int, link_id="budget") -> KeyPool:
    pool = KeyPool(link_id=link_id, target_bits=max(bits, 1), rng=random.Random(0))
    if bits:
        pool.deposit(bits)
    return pool


def test_split_known_polynomial():
    # p = 7, secret 3, coefficient 2: P(x) = 3 + 2x
    cfg = ShareConfig(n_locations=2, threshold_k=2, field_prime=7)
    shares = split(3, cfg, FixedRng([2]))
    assert [(s.x, s.y) for s in shares] == [(1, 5), (2, 0)]
    assert reconstruct(shares, cfg) == 3


def test_split_k1_replicates_secret():
    cfg = ShareConfig(n_locations=4, threshold_k=1, field_prime=13)
    shares = split(9, cfg, random.Random(0))
    assert [s.y for s in shares] == [9, 9, 9, 9]
    assert reconstruct(shares[2:3], cfg) == 9


def test_round_trip_random_secrets():
    cfg = ShareConfig(n_locations=5, threshold_k=3)
    rng = random.Random(2026)
    for _ in range(1000):
        secret = rng.randrange(cfg.field_prime)
        shares = split(secret, cfg, rng)
        chosen = rng.sample(shares, 3)
        assert reconstruct(chosen, cfg) == secret


def test_reconstruct_accepts_more_than_k():
    cfg = ShareConfig(n_locations=6, threshold_k=3, field_prime=101)
    shares = split(42, cfg, random.Random(8))
    assert reconstruct(shares, cfg) == 42


def test_reconstruct_preconditions():
    cfg = ShareConfig(n_locations=4, threshold_k=3, field_prime=13)
    shares = split(5, cfg, random.Random(1))
    with pytest.raises(NotEnoughShares):
        reconstruct(shares[:2], cfg)
    with pytest.raises(DuplicateX):
        reconstruct([shares[0], shares[0], shares[1]], cfg)
    bumped = [Share(s.x, s.y, round=1) for s in shares[:2]]
    with pytest.raises(MixedRounds):
        reconstruct(bumped + [shares[2]], cfg)
    with pytest.raises(ValueError):
        split(13, cfg, random.Random(0))
    with pytest.raises(ValueError, match="x: must be >= 1, got 0"):
        reconstruct([Share(0, 1)] + shares[1:3], cfg)
    with pytest.raises(ValueError, match="y: must be <= 12, got 13"):
        reconstruct([Share(1, 13)] + shares[1:3], cfg)


def test_share_checks_its_kinds():
    cfg = ShareConfig(n_locations=3, threshold_k=2, field_prime=13)
    with pytest.raises(RangeError, match="y: expected an integer, got 2.5"):
        reconstruct([Share(1, 2.5), Share(2, 9)], cfg)
    with pytest.raises(RangeError, match="x: expected an integer, got 1.5"):
        reconstruct([Share(1.5, 7), Share(2, 9)], cfg)
    with pytest.raises(RangeError, match="x: expected an integer, got True"):
        Share(True, 7)
    with pytest.raises(RangeError, match="round: must be >= 0, got -1"):
        Share(1, 7, round=-1)


def test_refresh_known_zero_polynomial():
    # p = 7, shares of P(x) = 3 + 2x, refresh with Z(x) = 3x
    cfg = ShareConfig(n_locations=2, threshold_k=2, field_prime=7)
    shares = split(3, cfg, FixedRng([2]))
    new = refresh(shares, cfg, FixedRng([3]), budget(cfg.refresh_cost_bits))
    assert [(s.x, s.y, s.round) for s in new] == [(1, 1, 1), (2, 6, 1)]
    assert reconstruct(new, cfg) == 3


def test_refresh_rejects_anything_but_one_share_per_location():
    cfg = ShareConfig(n_locations=3, threshold_k=2, field_prime=13)
    s1, s2, _ = split(5, cfg, random.Random(2))
    pool = budget(cfg.refresh_cost_bits)
    with pytest.raises(DuplicateX):
        refresh([s1, s2, s2], cfg, random.Random(0), pool)
    with pytest.raises(ValueError, match="x: must be <= 3, got 4"):
        refresh([s1, s2, Share(4, 1)], cfg, random.Random(0), pool)
    with pytest.raises(MissingShares, match="refresh needs all 3 shares"):
        refresh([s1, s2], cfg, random.Random(0), pool)
    assert pool.total_consumed_bits == 0  # nothing spent on a rejected refresh


def test_refresh_preserves_secret_across_rounds():
    rng = random.Random(77)
    for prime in (13, 101, 257, DEFAULT_FIELD_PRIME):
        cfg = ShareConfig(n_locations=5, threshold_k=3, field_prime=prime)
        secret = rng.randrange(prime)
        shares = split(secret, cfg, rng)
        for round_no in range(1, 6):
            shares = refresh(shares, cfg, rng, budget(cfg.refresh_cost_bits))
            assert all(s.round == round_no for s in shares)
            assert reconstruct(rng.sample(shares, 3), cfg) == secret


def test_refresh_changes_share_values():
    cfg = ShareConfig(n_locations=4, threshold_k=3, field_prime=DEFAULT_FIELD_PRIME)
    shares = split(123456, cfg, random.Random(5))
    new = refresh(shares, cfg, random.Random(6), budget(cfg.refresh_cost_bits))
    assert [s.y for s in new] != [s.y for s in shares]


def test_refresh_cost_accounting():
    cfg = ShareConfig(n_locations=5, threshold_k=3, field_prime=DEFAULT_FIELD_PRIME)
    assert cfg.share_encoding_bits == 61
    assert cfg.refresh_cost_bits == 5 * 4 * 61
    pool = budget(2000)
    refresh(split(1, cfg, random.Random(0)), cfg, random.Random(1), pool)
    assert pool.total_consumed_bits == 1220
    assert pool.available_bits == 780


def test_refresh_atomic_on_short_budget():
    cfg = ShareConfig(n_locations=5, threshold_k=3, field_prime=DEFAULT_FIELD_PRIME)
    shares = split(9, cfg, random.Random(3))
    pool = budget(cfg.refresh_cost_bits - 1)
    with pytest.raises(InsufficientKey):
        refresh(shares, cfg, random.Random(4), pool)
    assert pool.available_bits == cfg.refresh_cost_bits - 1
    assert all(s.round == 0 for s in shares)


def test_refresh_needs_full_share_set():
    cfg = ShareConfig(n_locations=4, threshold_k=2, field_prime=13)
    shares = split(5, cfg, random.Random(1))
    with pytest.raises(MissingShares):
        refresh(shares[:3], cfg, random.Random(2), budget(10**4))
    doubled = shares[:3] + [shares[2]]
    with pytest.raises(DuplicateX):
        refresh(doubled, cfg, random.Random(2), budget(10**4))


def test_mixed_round_shares_do_not_combine():
    cfg = ShareConfig(n_locations=4, threshold_k=2, field_prime=101)
    old = split(60, cfg, random.Random(11))
    new = refresh(old, cfg, random.Random(12), budget(cfg.refresh_cost_bits))
    with pytest.raises(MixedRounds):
        reconstruct([old[0], new[1]], cfg)


def test_secrecy_oracle_below_threshold():
    cfg = ShareConfig(n_locations=4, threshold_k=3, field_prime=13)
    shares = split(7, cfg, random.Random(9))
    assert secrecy_oracle(shares[:2], cfg)
    assert secrecy_oracle(shares[1:3], cfg)
    assert secrecy_oracle([], cfg)


def test_secrecy_oracle_at_threshold_fails():
    cfg = ShareConfig(n_locations=4, threshold_k=3, field_prime=13)
    shares = split(7, cfg, random.Random(9))
    assert not secrecy_oracle(shares[:3], cfg)


def test_secrecy_oracle_k1():
    cfg = ShareConfig(n_locations=3, threshold_k=1, field_prime=13)
    shares = split(4, cfg, random.Random(0))
    assert secrecy_oracle([], cfg)
    assert not secrecy_oracle(shares[:1], cfg)


def test_secrecy_oracle_field_cap():
    cfg = ShareConfig(n_locations=3, threshold_k=2, field_prime=DEFAULT_FIELD_PRIME)
    shares = split(4, cfg, random.Random(0))
    with pytest.raises(FieldTooLarge):
        secrecy_oracle(shares[:1], cfg)
    # 257 is the largest field the oracle accepts
    small = ShareConfig(n_locations=3, threshold_k=2, field_prime=257)
    assert secrecy_oracle(split(4, small, random.Random(0))[:1], small)


def test_share_encoding_bits():
    assert ShareConfig(2, 2, 13).share_encoding_bits == 4
    assert ShareConfig(2, 2, 257).share_encoding_bits == 9
    assert ShareConfig(2, 2, DEFAULT_FIELD_PRIME).share_encoding_bits == 61


def test_bad_fields_rejected():
    with pytest.raises(BadField):
        ShareConfig(n_locations=6, threshold_k=2, field_prime=5)
    with pytest.raises(BadField):
        ShareConfig(n_locations=2, threshold_k=2, field_prime=9)
    with pytest.raises(BadField, match="not prime"):
        ShareConfig(2, 1, field_prime=1763)  # 41 * 43: no trial witness divides it
    with pytest.raises(ValueError):
        ShareConfig(n_locations=3, threshold_k=4, field_prime=13)
    with pytest.raises(ValueError):
        ShareConfig(n_locations=1, threshold_k=1, field_prime=13)


# Each a strong pseudoprime to the twelve Miller-Rabin bases 2..37, which
# _is_prime called prime: 399165290221 * 798330580441 and
# 1287836182261 * 2575672364521.
PSEUDOPRIMES = (318665857834031151167461, 3317044064679887385961981)


def test_field_prime_lies_below_the_primality_bound():
    for composite in PSEUDOPRIMES:
        with pytest.raises(RangeError) as caught:
            ShareConfig(3, 2, composite)
        bound = 318665857834031151167460
        assert str(caught.value) == f"field_prime: must be <= {bound}, got {composite}"
    for prime in (7, 13, 257, 2**61 - 1):
        assert ShareConfig(3, 2, prime).field_prime == prime


def test_is_prime_below_two():
    # ShareConfig never asks below 3, since field_prime must exceed
    # n_locations >= 2. Without its n < 2 check, _is_prime(1) loops on d = 0.
    assert [_is_prime(n) for n in (-7, 0, 1, 2, 3)] == [False, False, False, True, True]
