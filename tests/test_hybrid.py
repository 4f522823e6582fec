"""Hybrid cipher state, rotation bookkeeping, and horizon estimates."""

import math
import random

import pytest

from starqkd.errors import ClockRegression, KeyAlreadyConsumed, MissingKey
from starqkd.hybrid import (
    PRACTICALLY_INFINITE_SECONDS,
    AttackerModel,
    HybridCipherState,
    MigrationTimeline,
    SecurityHorizon,
    decrypt_hybrid,
    due_rotations,
    encrypt_hybrid,
    estimate_t_s,
    estimate_t_sq,
    horizon_for,
    mosca_at_risk,
    rotate_master,
)
from starqkd.keycore import KeyMaterial, Provenance

QUANTUM_GHZ = AttackerModel(classical_ops_per_sec=1e9, has_quantum=True)
CLASSICAL_GHZ = AttackerModel(classical_ops_per_sec=1e9, has_quantum=False)


def key(n_bytes: int, seed: int, key_id: str, provenance=Provenance.QUANTUM) -> KeyMaterial:
    return KeyMaterial(
        id=key_id,
        bits=random.Random(seed).randbytes(n_bytes),
        bit_length=8 * n_bytes,
        provenance=provenance,
    )


def make_state(freq=0.0, master_seed=1, session_seed=2) -> HybridCipherState:
    return HybridCipherState(
        master=key(32, master_seed, "m", Provenance.MASTER),
        session=key(16, session_seed, "s", Provenance.SESSION),
        rotation_frequency_hz=freq,
    )


def test_encrypt_decrypt_round_trip():
    rng = random.Random(4)
    st = make_state()
    for n in (0, 1, 2, 15, 16, 17, 31, 32, 33, 100, 4096):
        msg = rng.randbytes(n)
        assert decrypt_hybrid(st, encrypt_hybrid(st, msg)) == msg


def test_encrypt_is_deterministic_per_epoch():
    a = make_state()
    b = make_state()
    msg = b"the same plaintext"
    assert encrypt_hybrid(a, msg) == encrypt_hybrid(b, msg)


def test_keystream_changes_with_epoch_and_keys():
    msg = bytes(64)
    st = make_state()
    ct0 = encrypt_hybrid(st, msg)
    rotate_master(st, key(32, 9, "q1"), now=1.0)
    ct1 = encrypt_hybrid(st, msg)
    assert ct0 != ct1
    other_session = make_state(session_seed=3)
    assert encrypt_hybrid(other_session, msg) != ct0


def test_single_bit_session_change_diffuses():
    msg = bytes(1024)
    base = make_state()
    flipped = make_state()
    bits = bytearray(flipped.session.bits)
    bits[0] ^= 0x01
    flipped.session = KeyMaterial(
        id="s'", bits=bytes(bits), bit_length=128, provenance=Provenance.SESSION
    )
    a = encrypt_hybrid(base, msg)
    b = encrypt_hybrid(flipped, msg)
    differing = sum((x ^ y).bit_count() for x, y in zip(a, b))
    assert differing >= 0.30 * 8 * len(msg)


def test_missing_keys_rejected():
    st = make_state()
    st.session = None
    with pytest.raises(MissingKey):
        encrypt_hybrid(st, b"x")
    with pytest.raises(MissingKey):
        estimate_t_sq(st, QUANTUM_GHZ, 1.0)
    st.master = None
    with pytest.raises(MissingKey):
        rotate_master(st, key(32, 9, "q1"), now=1.0)
    with pytest.raises(ValueError):
        HybridCipherState(None, None, rotation_frequency_hz=-1)
    with pytest.raises(ValueError):
        estimate_t_s(0, QUANTUM_GHZ)
    with pytest.raises(ValueError):
        horizon_for(128, -1.0, QUANTUM_GHZ, 1.0)
    with pytest.raises(ValueError):
        horizon_for(128, 1.0, QUANTUM_GHZ, -1.0)


def test_rotate_with_zero_material_keeps_bits_but_advances_epoch():
    st = make_state()
    before = st.master.bits
    zero = KeyMaterial(id="z", bits=bytes(32), bit_length=256, provenance=Provenance.QUANTUM)
    rotate_master(st, zero, now=5.0)
    assert st.master.bits == before
    assert st.rotation_count == 1
    assert st.epoch_log == [(5.0, st.master.id)]


def test_double_rotation_with_same_material_restores_master():
    st = make_state()
    before = st.master.bits
    rotate_master(st, key(32, 11, "q1"), now=1.0)
    assert st.master.bits != before
    rotate_master(st, key(32, 11, "q2"), now=2.0)
    assert st.master.bits == before
    assert st.rotation_count == 2


def test_rotation_log_and_consumption():
    st = make_state(freq=0.1)
    for i, now in enumerate((10.0, 20.0, 30.0), start=1):
        kq = key(32, 100 + i, f"q{i}")
        rotate_master(st, kq, now=now)
        assert kq.consumed
    assert [t for t, _ in st.epoch_log] == [10.0, 20.0, 30.0]
    assert st.rotation_count == 3
    assert st.session.bits == make_state().session.bits  # session untouched
    spent = key(32, 101, "spent")
    spent.mark_consumed()
    with pytest.raises(KeyAlreadyConsumed):
        rotate_master(st, spent, now=31.0)
    with pytest.raises(ClockRegression):
        rotate_master(st, key(32, 200, "q9"), now=29.0)


def test_due_rotations():
    st = make_state(freq=0.0)
    assert due_rotations(st, 1e9) == 0
    # 1 / 5e-324 overflows to an infinite period, as in the engine
    assert due_rotations(make_state(freq=5e-324), 1e300) == 0
    st = make_state(freq=1.0)
    assert due_rotations(st, 2.5) == 2
    st = make_state(freq=1.0 / 86400.0)
    assert due_rotations(st, 7 * 86400.0) == 7
    assert due_rotations(st, 7 * 86400.0 - 1.0) == 6
    st.last_rotation_time = 10.0
    with pytest.raises(ClockRegression):
        due_rotations(st, 9.0)
    # The engine's schedule: at 0.3 Hz, stepped at 1 s, rotation m runs on
    # the first tick at or after m / 0.3 s, and 3 / 0.3 is tick 10 by
    # whole_ticks; a caller who jumps to 10 s owes the same three at once.
    st = make_state(freq=0.3)
    for now in range(1, 31):
        for _ in range(due_rotations(st, float(now))):
            rotate_master(st, key(32, now, f"q{now}"), now=float(now))
    assert [t for t, _ in st.epoch_log] == [4.0, 7.0, 10.0, 14.0, 17.0, 20.0, 24.0, 27.0, 30.0]
    assert st.master.id == "m@e9"
    assert due_rotations(make_state(freq=0.3), 10.0) == 3


@pytest.mark.parametrize("freq", [math.nan, math.inf, -math.inf])
def test_non_finite_rotation_frequency_is_rejected(freq):
    with pytest.raises(ValueError, match="rotation_frequency_hz"):
        make_state(freq=freq)


@pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf])
def test_non_finite_now_is_rejected_before_any_change(now):
    st = make_state(freq=1.0)
    kq = key(32, 9, "q1")
    with pytest.raises(ValueError, match="finite"):
        due_rotations(st, now)
    with pytest.raises(ValueError, match="finite"):
        rotate_master(st, kq, now=now)
    assert (st.master.id, st.rotation_count, st.last_rotation_time, st.epoch_log) == ("m", 0, 0.0, [])
    assert not kq.consumed
    rotate_master(st, kq, now=5.0)
    with pytest.raises(ClockRegression):
        rotate_master(st, key(32, 10, "q2"), now=-5.0)


def test_estimate_t_s_anchor_values():
    # 2^(64/2) / 1e9 = 4.294967296 s
    assert estimate_t_s(64, QUANTUM_GHZ) == pytest.approx(4.294967296, abs=1e-3)
    assert estimate_t_s(1, AttackerModel(1.0)) == 2.0
    assert estimate_t_s(256, CLASSICAL_GHZ) == PRACTICALLY_INFINITE_SECONDS
    assert estimate_t_s(20000, CLASSICAL_GHZ) == PRACTICALLY_INFINITE_SECONDS


def test_estimate_t_s_monotonicity_below_saturation():
    for bits in range(8, 120, 8):
        assert estimate_t_s(bits + 8, QUANTUM_GHZ) > estimate_t_s(bits, QUANTUM_GHZ)
    assert estimate_t_s(64, AttackerModel(1e12, has_quantum=True)) < estimate_t_s(
        64, QUANTUM_GHZ
    )
    assert estimate_t_s(64, CLASSICAL_GHZ) > estimate_t_s(64, QUANTUM_GHZ)


def test_t_sq_zero_frequency_collapses_to_t_s():
    st = make_state(freq=0.0)
    h = estimate_t_sq(st, QUANTUM_GHZ, 1e6)
    assert h.t_sq_seconds == h.t_s_seconds


def test_t_sq_half_life_point_exact():
    # L a power of two makes f = 2/L and the products exact in floats
    lifetime = float(2**20)
    f = 2.0 / lifetime
    h = horizon_for(64, f, QUANTUM_GHZ, lifetime)
    assert h.t_sq_seconds == h.t_s_seconds + lifetime / 2.0


def test_t_sq_high_frequency_limit():
    lifetime = 10.0
    h = horizon_for(64, 1e12, QUANTUM_GHZ, lifetime)
    assert h.t_sq_seconds == pytest.approx(h.t_s_seconds + lifetime, rel=1e-9)
    assert h.t_sq_seconds < h.t_s_seconds + lifetime  # never exceeds t_s + L


def test_t_sq_monotone_and_strict():
    rng = random.Random(31)
    for _ in range(100):
        bits = rng.randint(16, 64)
        attacker = AttackerModel(
            classical_ops_per_sec=10.0 ** rng.uniform(6, 12),
            has_quantum=rng.random() < 0.5,
        )
        lifetime = 10.0 ** rng.uniform(4, 9)
        t_s = estimate_t_s(bits, attacker)
        prev = None
        for exp in range(-9, 1):
            h = horizon_for(bits, 10.0**exp, attacker, lifetime)
            assert h.t_s_seconds == t_s
            assert h.t_sq_seconds > t_s
            if prev is not None:
                assert h.t_sq_seconds >= prev
            prev = h.t_sq_seconds


def test_horizon_model_id_and_order():
    h = horizon_for(64, 0.5, QUANTUM_GHZ, 100.0)
    assert h.model_id == "additive-coverage-v1"
    assert h.t_sq_seconds >= h.t_s_seconds
    with pytest.raises(ValueError):
        SecurityHorizon(t_s_seconds=5.0, t_sq_seconds=4.0)


def test_mosca_inequality():
    assert not mosca_at_risk(MigrationTimeline(1.0, 1.0, 3.0))
    assert mosca_at_risk(MigrationTimeline(2.0, 2.0, 3.0))
    # the boundary is explicitly not at risk
    assert not mosca_at_risk(MigrationTimeline(1.5, 1.5, 3.0))
    assert not mosca_at_risk(MigrationTimeline(0.0, 0.0, 0.0))


def test_attacker_validation():
    with pytest.raises(ValueError):
        AttackerModel(classical_ops_per_sec=0.0)
    with pytest.raises(ValueError):
        MigrationTimeline(-1.0, 0.0, 0.0)
