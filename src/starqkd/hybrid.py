"""Hybrid classical-quantum cipher state and security-horizon estimates.

A long-lived master key is periodically XOR-mixed with fresh quantum
material; a session key encrypts traffic between rotations. The horizon
model asks two questions: how long until brute force breaks one session
key (t_s), and how much longer does rotating the master at frequency f
protect an asset recorded today (t_sq).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

from .errors import (
    ClockRegression, MissingKey, RangeError, check_flag, check_float, check_int, store_float
)
from .keycore import KeyMaterial, mix_keys, xor_bytes

YEAR_SECONDS = 31_557_600.0  # Julian year
# Horizons longer than this are reported as this sentinel: the model has
# nothing meaningful to say past 1e15 years.
PRACTICALLY_INFINITE_SECONDS = 1e15 * YEAR_SECONDS
HORIZON_MODEL_ID = "additive-coverage-v1"
EPOCH_ID = "%s@e%d"  # epoch n's master key id is EPOCH_ID % (base id, n)
_TOLERANCE = 1e-9  # `whole_ticks`: one part in 1e9

_KEYSTREAM_DOMAIN = b"starqkd/keystream/v1"


@dataclass(frozen=True)
class AttackerModel:
    """Computational reach of the adversary."""

    classical_ops_per_sec: float
    has_quantum: bool = False
    records_traffic: bool = False

    def __post_init__(self) -> None:
        store_float(self, "classical_ops_per_sec", positive=True)
        check_flag("has_quantum", self.has_quantum)
        check_flag("records_traffic", self.records_traffic)


@dataclass(frozen=True)
class MigrationTimeline:
    """Shelf life x, migration time y, and collapse horizon z, in years."""

    x_years: float
    y_years: float
    z_years: float

    def __post_init__(self) -> None:
        for name in ("x_years", "y_years", "z_years"):
            store_float(self, name, 0.0)


@dataclass(frozen=True)
class SecurityHorizon:
    """How long data protected now stays secret, in seconds."""

    t_s_seconds: float
    t_sq_seconds: float
    model_id: str = HORIZON_MODEL_ID

    def __post_init__(self) -> None:
        store_float(self, "t_s_seconds", 0.0)
        store_float(self, "t_sq_seconds", self.t_s_seconds)


@dataclass
class HybridCipherState:
    """Mutable cipher state for one branch: master, session, rotation clock."""

    master: KeyMaterial | None
    session: KeyMaterial | None
    rotation_frequency_hz: float = 0.0
    last_rotation_time: float = 0.0
    rotation_count: int = 0
    epoch_log: list[tuple[float, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        store_float(self, "rotation_frequency_hz", 0.0)


def _keystream(master: bytes, session: bytes, epoch: int, length: int) -> bytes:
    # Length-framed header so (master, session) pairs never collide.
    header = (
        _KEYSTREAM_DOMAIN
        + struct.pack(">I", len(master))
        + master
        + struct.pack(">I", len(session))
        + session
        + struct.pack(">Q", epoch)
    )
    out = bytearray()
    block = 0
    while len(out) < length:
        out += hashlib.sha256(header + struct.pack(">Q", block)).digest()
        block += 1
    return bytes(out[:length])


def encrypt_hybrid(state: HybridCipherState, message: bytes) -> bytes:
    """Encrypt under the current epoch's keystream.

    The keystream is a deterministic function of (master, session,
    rotation_count), so both ends stay in sync as long as they rotate
    together. Master and session keys are long-lived here: hybrid
    encryption does not consume them.
    """
    if state.master is None or state.session is None:
        raise MissingKey("hybrid state needs both a master and a session key")
    ks = _keystream(state.master.bits, state.session.bits, state.rotation_count, len(message))
    return xor_bytes(message, ks)


def decrypt_hybrid(state: HybridCipherState, ciphertext: bytes) -> bytes:
    """Inverse of encrypt_hybrid (the keystream cipher is an involution)."""
    return encrypt_hybrid(state, ciphertext)


def whole_ticks(ratio: float) -> int | None:
    """The integer nearest ratio if within one part in 1e9 of it, else None.

    A duration must be a whole number of ticks by this rule, and the engine
    and `due_rotations` count a periodic time as on a tick by it.
    """
    k = round(ratio)
    return k if abs(ratio - k) <= _TOLERANCE * max(1.0, abs(ratio)) else None


def _check_clock(state: HybridCipherState, now: float) -> None:
    check_float("now", now)
    if now < state.last_rotation_time:
        raise ClockRegression(f"now={now} precedes last rotation at {state.last_rotation_time}")


def due_rotations(state: HybridCipherState, now: float) -> int:
    """How many rotations the schedule owes at time now, never below 0.

    The engine's rule: rotation m >= 1 falls at m * (1 / f), from time 0,
    and is due when its time is at or before now or now / time is 1 by
    `whole_ticks`. The count due less `rotation_count` is owed. It is not
    exact from 2**53 periods on, so such a now is a RangeError.
    """
    _check_clock(state, now)
    f = state.rotation_frequency_hz
    period = 1.0 / f if f > 0 else math.inf
    periods = now / period
    if not periods < 2**53:
        raise RangeError("now", f"must be under 2**53 rotation periods, got {now} at {f} Hz")
    # Times up to now / (1 - _TOLERANCE) are due; the floor is one off at most.
    m = math.floor(periods / (1.0 - _TOLERANCE)) + 1
    for _ in range(2):
        if m <= 0 or m * period <= now or whole_ticks(now / (m * period)) == 1:
            break
        m -= 1
    return max(0, m - state.rotation_count)


def rotate_master(state: HybridCipherState, k_q: KeyMaterial, now: float) -> HybridCipherState:
    """Mix fresh quantum material into the master key.

    Consumes k_q, bumps the epoch, and logs it. Time may not run
    backwards. State is updated in place and returned.
    """
    if state.master is None:
        raise MissingKey("cannot rotate a state with no master key")
    _check_clock(state, now)
    new_id = EPOCH_ID % (state.master.id.split("@", 1)[0], state.rotation_count + 1)
    new_master = mix_keys(state.master, k_q, new_id=new_id, created_at=now)
    state.master = new_master
    state.rotation_count += 1
    state.last_rotation_time = now
    state.epoch_log.append((now, new_master.id))
    return state


def estimate_t_s(session_key_bits: int, attacker: AttackerModel) -> float:
    """Expected time to exhaust a session key's space, in seconds.

    A quantum attacker gets the Grover square-root speedup (effective
    bits halve). Saturates at the practically-infinite sentinel.
    """
    check_int("session_key_bits", session_key_bits, 1)
    effective = session_key_bits / 2.0 if attacker.has_quantum else float(session_key_bits)
    try:
        t = 2.0**effective / attacker.classical_ops_per_sec
    except OverflowError:
        return PRACTICALLY_INFINITE_SECONDS
    return min(t, PRACTICALLY_INFINITE_SECONDS)


def _coverage_seconds(rotation_frequency_hz: float, lifetime_seconds: float) -> float:
    # Extra protected time that rotation buys over an asset lifetime L.
    # High-frequency regime (f*L > 2): L - 1/f, approaching L as f grows.
    # Low-frequency regime (f*L <= 2): the tangent extension f*L^2/4,
    # which keeps coverage positive and strictly increasing for every
    # f > 0 and joins the other branch smoothly at f*L = 2.
    if rotation_frequency_hz <= 0 or lifetime_seconds <= 0:
        return 0.0
    fl = rotation_frequency_hz * lifetime_seconds
    if fl <= 2.0:
        return rotation_frequency_hz * lifetime_seconds * lifetime_seconds / 4.0
    return lifetime_seconds - 1.0 / rotation_frequency_hz


def horizon_for(
    session_key_bits: int,
    rotation_frequency_hz: float,
    attacker: AttackerModel,
    asset_lifetime_seconds: float,
) -> SecurityHorizon:
    """Security horizon for a keying discipline, not a whole state."""
    check_float("rotation_frequency_hz", rotation_frequency_hz, 0.0)
    check_float("asset_lifetime_seconds", asset_lifetime_seconds, 0.0)
    t_s = estimate_t_s(session_key_bits, attacker)
    cover = min(
        asset_lifetime_seconds,
        _coverage_seconds(rotation_frequency_hz, asset_lifetime_seconds),
    )
    # Both horizons saturate at the sentinel; below it, any f > 0 buys a
    # strictly positive margin over t_s.
    t_sq = min(t_s + cover, PRACTICALLY_INFINITE_SECONDS)
    return SecurityHorizon(t_s_seconds=t_s, t_sq_seconds=t_sq)


def estimate_t_sq(
    state: HybridCipherState,
    attacker: AttackerModel,
    asset_lifetime_seconds: float,
) -> SecurityHorizon:
    """Security horizon of a hybrid cipher state under rotation.

    t_sq grows strictly with the rotation frequency: each rotation
    re-keys the stream, so a recorded ciphertext archive ages out of a
    single brute-force target. With no rotation t_sq collapses to t_s.
    """
    if state.session is None:
        raise MissingKey("horizon estimate needs a session key")
    return horizon_for(
        state.session.bit_length,
        state.rotation_frequency_hz,
        attacker,
        asset_lifetime_seconds,
    )


def mosca_at_risk(timeline: MigrationTimeline) -> bool:
    """True when shelf life plus migration time overruns the collapse horizon.

    The boundary x + y == z counts as not at risk.
    """
    return timeline.x_years + timeline.y_years > timeline.z_years
