"""Threshold secret sharing over a prime field, with proactive refresh.

A secret is split into n shares so that any k reconstruct it and any
k-1 reveal nothing. Refresh adds a fresh random polynomial with zero
constant term to every share: the secret is untouched, but shares from
different rounds become useless together, which is what defeats an
adversary who compromises locations slowly. Refresh costs key material,
because the n(n-1) pairwise share updates travel under one-time pads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import (
    BadField,
    check_int,
    DuplicateX,
    FieldTooLarge,
    MissingShares,
    MixedRounds,
    NotEnoughShares,
)
from .keycore import KeyPool

DEFAULT_FIELD_PRIME = (1 << 61) - 1
# Exhaustive secrecy checking enumerates every candidate secret.
MAX_ORACLE_PRIME = 257

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin on those twelve bases is proven exact only below this
# number, itself a strong pseudoprime to all of them, so a field prime
# must lie below it.
MAX_FIELD_PRIME = 318665857834031151167461 - 1


# Every ShareConfig checks its prime; scenarios reuse a handful of primes.
@lru_cache(maxsize=64)
def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for n <= MAX_FIELD_PRIME; plenty for 61-bit fields.
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ShareConfig:
    """Parameters of one sharing instance: n locations, threshold k, field."""

    n_locations: int
    threshold_k: int
    field_prime: int = DEFAULT_FIELD_PRIME

    def __post_init__(self) -> None:
        check_int("n_locations", self.n_locations, 2)
        check_int("threshold_k", self.threshold_k, 1, self.n_locations)
        check_int("field_prime", self.field_prime, high=MAX_FIELD_PRIME)
        if self.field_prime <= self.n_locations:
            raise BadField(
                f"field_prime {self.field_prime} must exceed n_locations {self.n_locations}"
            )
        if not _is_prime(self.field_prime):
            raise BadField(f"field_prime {self.field_prime} is not prime")

    @property
    def share_encoding_bits(self) -> int:
        """Bits needed to encode one field element."""
        return (self.field_prime - 1).bit_length()

    @property
    def refresh_cost_bits(self) -> int:
        """Pad bits one refresh burns: n(n-1) pairwise share messages."""
        return self.n_locations * (self.n_locations - 1) * self.share_encoding_bits


@dataclass(frozen=True)
class Share:
    """One point (x, y) of the sharing polynomial, tagged with its round."""

    x: int
    y: int
    round: int = 0

    def __post_init__(self) -> None:
        check_int("x", self.x, 1)
        check_int("y", self.y, 0)
        check_int("round", self.round, 0)


def _eval_poly(coeffs: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def split(secret: int, config: ShareConfig, rng: random.Random) -> list[Share]:
    """Split a secret into n round-0 shares at x = 1..n."""
    p = config.field_prime
    check_int("secret", secret, 0, p - 1)
    coeffs = [secret] + [rng.randrange(p) for _ in range(config.threshold_k - 1)]
    return [
        Share(x=x, y=_eval_poly(coeffs, x, p), round=0)
        for x in range(1, config.n_locations + 1)
    ]


def _check_combinable(shares: Sequence[Share], config: ShareConfig) -> None:
    rounds = {s.round for s in shares}
    if len(rounds) > 1:
        raise MixedRounds(f"shares span rounds {sorted(rounds)}")
    xs = [s.x for s in shares]
    if len(set(xs)) != len(xs):
        raise DuplicateX(f"duplicate evaluation points in {sorted(xs)}")
    for s in shares:
        check_int("x", s.x, 1, config.n_locations)
        check_int("y", s.y, 0, config.field_prime - 1)


def _lagrange_at(points: Sequence[tuple[int, int]], x_target: int, p: int) -> int:
    total = 0
    for i, (xi, yi) in enumerate(points):
        num = 1
        den = 1
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            num = num * ((x_target - xj) % p) % p
            den = den * ((xi - xj) % p) % p
        total = (total + yi * num * pow(den, -1, p)) % p
    return total


def reconstruct(shares: Sequence[Share], config: ShareConfig) -> int:
    """Interpolate the secret at x = 0 from at least k shares."""
    if len(shares) < config.threshold_k:
        raise NotEnoughShares(
            f"need {config.threshold_k} shares, got {len(shares)}"
        )
    _check_combinable(shares, config)
    points = [(s.x, s.y) for s in shares]
    return _lagrange_at(points, 0, config.field_prime)


def refresh(
    shares: Sequence[Share],
    config: ShareConfig,
    rng: random.Random,
    key_budget: KeyPool,
) -> list[Share]:
    """Re-randomize all n shares without moving the secret.

    Adds a random degree k-1 polynomial with zero constant term to every
    share and bumps the round. Spends refresh_cost_bits from key_budget
    first; a short budget fails the whole round atomically.
    """
    if len(shares) != config.n_locations:
        raise MissingShares(
            f"refresh needs all {config.n_locations} shares, got {len(shares)}"
        )
    _check_combinable(shares, config)
    key_budget.spend(config.refresh_cost_bits)  # spent as pairwise one-time pads
    p = config.field_prime
    zero_coeffs = [0] + [rng.randrange(p) for _ in range(config.threshold_k - 1)]
    return [
        Share(x=s.x, y=(s.y + _eval_poly(zero_coeffs, s.x, p)) % p, round=s.round + 1)
        for s in sorted(shares, key=lambda s: s.x)
    ]


def secrecy_oracle(shares: Sequence[Share], config: ShareConfig) -> bool:
    """Exhaustively test whether a share subset pins down the secret.

    Returns True when every candidate secret in the field is consistent
    with the subset, i.e. the subset reveals nothing. Any k-1 honest
    shares must pass; any k must fail. Only feasible over small fields.
    """
    p = config.field_prime
    if p > MAX_ORACLE_PRIME:
        raise FieldTooLarge(
            f"exhaustive check only runs for p <= {MAX_ORACLE_PRIME}, got {p}"
        )
    _check_combinable(shares, config)
    k = config.threshold_k
    subset = [(s.x, s.y) for s in shares]
    for candidate in range(p):
        points = [(0, candidate)] + subset
        # A polynomial of degree < k exists through any k points with
        # distinct x; with more, the first k determine it and the rest
        # must agree.
        base = points[:k]
        if any(_lagrange_at(base, x, p) != y for x, y in points[k:]):
            return False
    return True
