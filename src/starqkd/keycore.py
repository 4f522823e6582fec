"""Consumable key material, bit-exact pools, and XOR primitives.

Key bits in this model are a strictly conserved resource: every bit a
link generates either sits in a pool or was consumed by exactly one
operation. Pools are integer ledgers: spending key debits a counter and
makes no bits. Bit values exist only where something reads them, as
single-use key material returned by KeyPool.draw, and a pool makes its
random stream only at its first draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    InsufficientAuthKey,
    InsufficientKey,
    KeyAlreadyConsumed,
    LengthMismatch,
    WrongProvenance,
    check_enum,
    check_int,
)
from .rng import derive_seed, random_bits

DEFAULT_POOL_TARGET_BITS = 1_000_000
DEFAULT_AUTH_RESERVED_BITS = 65536
DEFAULT_TAG_COST_BITS = 128


class Provenance(Enum):
    """Where a piece of key material came from."""

    QUANTUM = "quantum"
    SESSION = "session"
    MASTER = "master"
    RELAYED = "relayed"
    DERIVED = "derived"


def bytes_for_bits(n_bits: int) -> int:
    return (n_bits + 7) // 8


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise LengthMismatch(f"xor over {len(a)} vs {len(b)} bytes")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


@dataclass
class KeyMaterial:
    """A block of secret bits with an explicit length and origin.

    provenance never changes after creation; consumed flips once from
    False to True and every consuming operation checks it first.
    """

    id: str
    bits: bytes
    bit_length: int
    provenance: Provenance
    created_at: float = 0.0
    consumed: bool = False

    def __post_init__(self) -> None:
        check_int("bit_length", self.bit_length, 1)
        check_enum("provenance", self.provenance, Provenance)
        if len(self.bits) != bytes_for_bits(self.bit_length):
            raise ValueError(
                f"key {self.id}: {len(self.bits)} bytes cannot hold exactly "
                f"{self.bit_length} bits"
            )

    def require_usable(self) -> None:
        if self.consumed:
            raise KeyAlreadyConsumed(f"key {self.id} was already consumed")

    def mark_consumed(self) -> None:
        self.consumed = True


def otp_encrypt(key: KeyMaterial, message: bytes) -> bytes:
    """One-time-pad a message with the leading bytes of key.

    Consumes the whole key even when the message is shorter; pads are
    never split. A failed precondition leaves the key untouched.
    """
    key.require_usable()
    if key.bit_length < 8 * len(message):
        raise InsufficientKey(
            f"key {key.id} holds {key.bit_length} bits, message needs {8 * len(message)}"
        )
    out = xor_bytes(message, key.bits[: len(message)])
    key.mark_consumed()
    return out


def otp_decrypt(key: KeyMaterial, ciphertext: bytes) -> bytes:
    """Inverse of otp_encrypt; the receiver spends its own copy of the pad."""
    return otp_encrypt(key, ciphertext)


def mix_keys(
    k_m: KeyMaterial,
    k_q: KeyMaterial,
    new_id: str | None = None,
    created_at: float | None = None,
) -> KeyMaterial:
    """Combine a master key with fresh quantum material by XOR.

    The result is as strong as the stronger input, so a predictable
    master still yields a secret mixed key. k_q is consumed; k_m is a
    long-lived key and is not.
    """
    if k_m.bit_length != k_q.bit_length:
        raise LengthMismatch(
            f"mix over {k_m.bit_length} vs {k_q.bit_length} bits"
        )
    if k_q.provenance not in (Provenance.QUANTUM, Provenance.RELAYED):
        raise WrongProvenance(
            f"mix_keys needs quantum or relayed material, got {k_q.provenance.value}"
        )
    k_q.require_usable()
    mixed = xor_bytes(k_m.bits, k_q.bits)
    k_q.mark_consumed()
    return KeyMaterial(
        id=new_id if new_id is not None else f"mix:{k_q.id}",
        bits=mixed,
        bit_length=k_m.bit_length,
        provenance=Provenance.DERIVED,
        created_at=k_q.created_at if created_at is None else created_at,
    )


@dataclass
class KeyPool:
    """Integer ledger of the secret bits one link holds.

    Invariant: total_generated_bits == available_bits + total_consumed_bits
    at every step. spend() only moves counters. draw() is spend() plus
    bit values from the pool's own deterministic stream, for callers
    that read the key. A pool built without a stream (rng None) makes
    random.Random(derive_seed(0, f"pool/{link_id}")) at its first draw.
    """

    link_id: str
    target_bits: int = DEFAULT_POOL_TARGET_BITS
    available_bits: int = 0
    total_generated_bits: int = 0
    total_consumed_bits: int = 0
    rng: random.Random | None = field(default=None, repr=False)
    _draw_count: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        check_int("target_bits", self.target_bits, 1)
        for name in ("available_bits", "total_generated_bits", "total_consumed_bits"):
            check_int(name, getattr(self, name), 0)
        self.assert_conservation()

    @property
    def fill_ratio(self) -> float:
        try:
            return self.available_bits / self.target_bits
        except OverflowError:  # the quotient leaves float range
            return math.inf

    def assert_conservation(self) -> None:
        if self.total_generated_bits != self.available_bits + self.total_consumed_bits:
            raise AssertionError(
                f"pool {self.link_id} leaked bits: generated "
                f"{self.total_generated_bits} != {self.available_bits} available "
                f"+ {self.total_consumed_bits} consumed"
            )

    def deposit(self, n_bits: int) -> None:
        """Credit freshly distilled bits to the pool; n_bits is an int >= 1."""
        if type(n_bits) is not int or n_bits < 1:  # check_int only on a miss: a per-tick call
            check_int("n_bits", n_bits, 1)
        self.available_bits += n_bits
        self.total_generated_bits += n_bits

    def spend(self, n_bits: int) -> None:
        """Debit n_bits, an int >= 1, from the pool; fails without side effects."""
        if type(n_bits) is not int or n_bits < 1:
            check_int("n_bits", n_bits, 1)
        if self.available_bits < n_bits:
            raise InsufficientKey(
                f"pool {self.link_id}: requested {n_bits} bits, "
                f"only {self.available_bits} available"
            )
        self.available_bits -= n_bits
        self.total_consumed_bits += n_bits

    def draw(self, n_bits: int, provenance: Provenance, created_at: float = 0.0) -> KeyMaterial:
        """Spend n_bits and return them as a fresh KeyMaterial; fails without side effects."""
        check_enum("provenance", provenance, Provenance)
        self.spend(n_bits)
        if self.rng is None:
            self.rng = random.Random(derive_seed(0, f"pool/{self.link_id}"))
        self._draw_count += 1
        return KeyMaterial(
            id=f"{self.link_id}/k{self._draw_count}",
            bits=random_bits(self.rng, n_bits),
            bit_length=n_bits,
            provenance=provenance,
            created_at=created_at,
        )


@dataclass
class AuthBudget:
    """Pre-shared key reserved for authenticating post-processing traffic.

    Wegman-Carter style tags burn key: each authenticated message costs
    tag_cost_bits, unconditionally.
    """

    reserved_bits: int
    tag_cost_bits: int = DEFAULT_TAG_COST_BITS
    total_consumed_bits: int = 0

    def __post_init__(self) -> None:
        check_int("reserved_bits", self.reserved_bits, 0)
        check_int("tag_cost_bits", self.tag_cost_bits, 1)
        check_int("total_consumed_bits", self.total_consumed_bits, 0)

    def consume(self, n_messages: int) -> int:
        """Pay for n_messages tags, an int >= 1; returns the bits spent."""
        check_int("n_messages", n_messages, 1)
        return self.spend(n_messages * self.tag_cost_bits)

    def spend(self, n_bits: int) -> int:
        """Pay n_bits of tag key, an int >= 0 (0 pays nothing); returns the bits spent."""
        if type(n_bits) is not int or n_bits < 0:  # check_int only on a miss: a per-tick call
            check_int("n_bits", n_bits, 0)
        if self.reserved_bits < n_bits:
            raise InsufficientAuthKey(
                f"auth budget holds {self.reserved_bits} bits, tags need {n_bits}"
            )
        self.reserved_bits -= n_bits
        self.total_consumed_bits += n_bits
        return n_bits

    def deposit(self, n_bits: int) -> None:
        """Top the budget up, e.g. from a link's key pool; n_bits is an int >= 1."""
        if type(n_bits) is not int or n_bits < 1:
            check_int("n_bits", n_bits, 1)
        self.reserved_bits += n_bits
