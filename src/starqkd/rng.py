"""Deterministic randomness: one root seed, independent labeled streams.

Every random draw in a simulation comes from a stream derived as
SHA-256(root_seed || label). Adding a new entity adds a new label and
never perturbs the bits any existing stream produces, which is what
keeps reports byte-identical across runs and stable under scenario
growth. A run makes only the streams it reads: sharing/<id> and relay/hub.
"""

from __future__ import annotations

import hashlib
import random

from .errors import check_int

MAX_SEED = 2**64 - 1
MAX_RANDOM_BITS = 2**31 - 1  # getrandbits takes a C int


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a 64-bit stream seed from the root seed and a label."""
    check_int("root_seed", root_seed, 0, MAX_SEED)
    digest = hashlib.sha256(root_seed.to_bytes(8, "big") + label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def random_bits(rng: random.Random, n_bits: int) -> bytes:
    """Draw n_bits uniform bits as a big-endian byte string.

    The byte string has ceil(n_bits / 8) bytes; unused high bits of the
    first byte are zero. n_bits is an int in [1, MAX_RANDOM_BITS], checked
    before rng moves.
    """
    if type(n_bits) is not int or not 0 < n_bits <= MAX_RANDOM_BITS:  # check_int only on a miss
        check_int("n_bits", n_bits, 1, MAX_RANDOM_BITS)
    n_bytes = (n_bits + 7) // 8
    return rng.getrandbits(n_bits).to_bytes(n_bytes, "big")


class StreamRegistry:
    """Cache of named random streams derived from one root seed."""

    def __init__(self, root_seed: int) -> None:
        self.root_seed = check_int("root_seed", root_seed, 0, MAX_SEED)
        self._streams: dict[str, random.Random] = {}

    def stream(self, label: str) -> random.Random:
        """Return the stream for label, creating it on first use."""
        got = self._streams.get(label)
        if got is None:
            got = random.Random(derive_seed(self.root_seed, label))
            self._streams[label] = got
        return got
