"""Key material, pools, and XOR primitives."""

import random
import re

import pytest

from starqkd.errors import (
    InsufficientAuthKey,
    InsufficientKey,
    KeyAlreadyConsumed,
    LengthMismatch,
    RangeError,
    WrongProvenance,
)
from starqkd.keycore import (
    AuthBudget,
    KeyMaterial,
    KeyPool,
    Provenance,
    mix_keys,
    otp_decrypt,
    otp_encrypt,
    xor_bytes,
)
from starqkd.rng import MAX_RANDOM_BITS, derive_seed, random_bits


def make_key(bits: bytes, provenance=Provenance.QUANTUM, key_id="k") -> KeyMaterial:
    return KeyMaterial(id=key_id, bits=bits, bit_length=8 * len(bits), provenance=provenance)


# The two ways to debit a pool: draw() makes the bits, spend() does not.
DEBITS = (
    lambda pool, n: pool.draw(n, Provenance.QUANTUM),
    lambda pool, n: pool.spend(n),
)


def counters(pool: KeyPool) -> tuple[int, int, int]:
    return pool.available_bits, pool.total_generated_bits, pool.total_consumed_bits


def test_xor_bytes_known_values():
    assert xor_bytes(b"\xff", b"\x0f") == b"\xf0"
    assert xor_bytes(b"\x00\x00", b"\xab\xcd") == b"\xab\xcd"
    with pytest.raises(LengthMismatch):
        xor_bytes(b"\x00", b"\x00\x00")


def test_otp_zero_key_is_identity():
    key = make_key(bytes(4))
    assert otp_encrypt(key, b"\xde\xad\xbe\xef") == b"\xde\xad\xbe\xef"


def test_otp_known_byte():
    key = make_key(b"\x0f")
    assert otp_encrypt(key, b"\xff") == b"\xf0"


def test_otp_round_trip_with_receiver_copy():
    rng = random.Random(101)
    for _ in range(50):
        n = rng.randint(1, 64)
        pad = rng.randbytes(n)
        msg = rng.randbytes(n)
        sender = make_key(pad, key_id="s")
        receiver = make_key(pad, key_id="r")
        ct = otp_encrypt(sender, msg)
        assert otp_decrypt(receiver, ct) == msg
        assert sender.consumed and receiver.consumed


def test_otp_consumes_and_rejects_reuse():
    key = make_key(bytes(8))
    otp_encrypt(key, b"hi")
    with pytest.raises(KeyAlreadyConsumed):
        otp_encrypt(key, b"hi")


def test_otp_short_key_fails_without_consuming():
    key = make_key(bytes(2))
    with pytest.raises(InsufficientKey):
        otp_encrypt(key, b"abc")
    assert not key.consumed
    # still usable for a message it can cover
    assert otp_encrypt(key, b"ab") == b"ab"


def test_key_material_validates_shape():
    with pytest.raises(ValueError):
        KeyMaterial(id="bad", bits=b"\x00", bit_length=0, provenance=Provenance.QUANTUM)
    with pytest.raises(ValueError):
        KeyMaterial(id="bad", bits=b"\x00", bit_length=16, provenance=Provenance.QUANTUM)
    # 12 bits fit in 2 bytes
    KeyMaterial(id="ok", bits=b"\x0f\xff", bit_length=12, provenance=Provenance.QUANTUM)


def test_mix_keys_zero_quantum_returns_master_bits():
    k_m = make_key(b"\xaa\xbb", provenance=Provenance.MASTER, key_id="m")
    k_q = make_key(bytes(2), key_id="q")
    mixed = mix_keys(k_m, k_q)
    assert mixed.bits == k_m.bits
    assert mixed.provenance is Provenance.DERIVED
    assert k_q.consumed
    assert not k_m.consumed


def test_mix_keys_known_value_and_involution():
    k_m = make_key(b"\xaa", provenance=Provenance.MASTER, key_id="m")
    mixed = mix_keys(k_m, make_key(b"\x0f", key_id="q1"))
    assert mixed.bits == b"\xa5"
    again = mix_keys(mixed, make_key(b"\x0f", key_id="q2"))
    assert again.bits == k_m.bits


def test_mix_keys_differs_from_master_iff_quantum_nonzero():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 16)
        master = make_key(rng.randbytes(n), provenance=Provenance.MASTER)
        qbits = rng.randbytes(n)
        mixed = mix_keys(master, make_key(qbits))
        if any(qbits):
            assert mixed.bits != master.bits
        else:
            assert mixed.bits == master.bits


def test_mix_keys_preconditions():
    k_m = make_key(bytes(2), provenance=Provenance.MASTER)
    with pytest.raises(LengthMismatch):
        mix_keys(k_m, make_key(bytes(3)))
    with pytest.raises(WrongProvenance):
        mix_keys(k_m, make_key(bytes(2), provenance=Provenance.SESSION))
    spent = make_key(bytes(2))
    spent.mark_consumed()
    with pytest.raises(KeyAlreadyConsumed):
        mix_keys(k_m, spent)
    # relayed material is acceptable
    mix_keys(k_m, make_key(bytes(2), provenance=Provenance.RELAYED))


def test_pool_deposit_and_draw_accounting():
    pool = KeyPool(link_id="a")
    pool.deposit(10)
    assert pool.available_bits == 10
    assert pool.total_generated_bits == 10
    km = pool.draw(4, Provenance.QUANTUM)
    assert km.bit_length == 4
    assert pool.available_bits == 6
    assert pool.total_consumed_bits == 4
    assert pool.total_generated_bits == pool.available_bits + pool.total_consumed_bits
    # spend() is the same debit without making bits: the stream stays put.
    stream = pool.rng.getstate()
    assert pool.spend(5) is None
    assert counters(pool) == (1, 10, 9)
    assert pool.rng.getstate() == stream
    pool.assert_conservation()


def test_pool_draw_failure_changes_nothing():
    for debit in DEBITS:
        pool = KeyPool(link_id="a")
        pool.deposit(50)
        with pytest.raises(InsufficientKey):
            debit(pool, 51)
        assert counters(pool) == (50, 50, 0)
        assert pool.rng is None  # a failed debit makes no stream
        debit(pool, 30)
        debit(pool, 20)
        assert pool.available_bits == 0
        assert pool.total_consumed_bits == 50
        # A draw has made the stream by now; a plain debit makes none.
        assert (pool.rng is None) == (debit is DEBITS[1])
        stream = None if pool.rng is None else pool.rng.getstate()
        with pytest.raises(InsufficientKey):
            debit(pool, 1)
        assert counters(pool) == (0, 50, 50)
        assert (None if pool.rng is None else pool.rng.getstate()) == stream


def test_pool_bit_counts_are_ints_checked_before_anything_moves():
    # A float or bool count used to be spent or banked before a later
    # check failed, and a text provenance was rejected only after the
    # draw had spent its bits, stepped the draw count and drawn from the
    # stream. Now each is rejected with every counter, the stream and the
    # draw count as they were, before a draw has made the stream and after.
    cases = (
        (8.0, "n_bits: expected an integer, got 8.0"),
        (True, "n_bits: expected an integer, got True"),
        (0, "n_bits: must be >= 1, got 0"),
        (-3, "n_bits: must be >= 1, got -3"),
    )
    bad_debits = [(debit, n, message) for n, message in cases for debit in DEBITS]
    bad_debits.append(
        (
            lambda pool, n: pool.draw(n, "quantum"),
            8,
            "provenance: expected a Provenance, got 'quantum'",
        )
    )
    for n, message in cases:
        pool = KeyPool(link_id="a")
        with pytest.raises(RangeError, match=re.escape(message)):
            pool.deposit(n)
        assert counters(pool) == (0, 0, 0)
    for debit, n, message in bad_debits:
        pool = KeyPool(link_id="a")
        pool.deposit(100)
        with pytest.raises(RangeError, match=re.escape(message)):
            debit(pool, n)
        assert counters(pool) == (100, 100, 0)
        assert type(pool.available_bits) is int
        assert pool.rng is None
        assert pool._draw_count == 0
        pool.draw(8, Provenance.QUANTUM)
        stream = pool.rng.getstate()
        with pytest.raises(RangeError, match=re.escape(message)):
            debit(pool, n)
        assert counters(pool) == (92, 100, 8)
        assert pool.rng.getstate() == stream
        assert pool._draw_count == 1


def test_a_draw_past_one_random_bits_draw_is_rejected_before_anything_moves():
    # The pool could pay it, but its key would be one random_bits draw of
    # more than MAX_RANDOM_BITS bits, which used to raise after the spend.
    pool = KeyPool(link_id="a")
    pool.deposit(2**32)
    message = f"n_bits: must be <= {MAX_RANDOM_BITS}, got {MAX_RANDOM_BITS + 1}"
    with pytest.raises(RangeError, match=message):
        pool.draw(MAX_RANDOM_BITS + 1, Provenance.QUANTUM)
    assert counters(pool) == (2**32, 2**32, 0)
    assert pool.rng is None and pool._draw_count == 0


def test_default_pool_makes_its_stream_at_its_first_draw():
    pool = KeyPool("a")
    assert pool.rng is None
    assert pool == KeyPool("a")
    pool.deposit(256)
    pool.spend(8)
    assert pool.rng is None
    # The seed-0 stream of the pool's label, made once and then read on.
    expected = random.Random(derive_seed(0, "pool/a"))
    assert pool.draw(64, Provenance.QUANTUM).bits == random_bits(expected, 64)
    assert pool.draw(64, Provenance.QUANTUM).bits == random_bits(expected, 64)


@pytest.mark.parametrize(
    "make, field",
    [
        # Each balanced the ledger, so each was accepted: a negative pool,
        # a fractional one that spend(1) left at 2.5, and two budgets.
        (lambda: KeyPool("a", available_bits=-5, total_consumed_bits=5), "available_bits"),
        (lambda: KeyPool("a", available_bits=3.5, total_generated_bits=3.5), "available_bits"),
        (lambda: KeyPool("a", total_generated_bits=-1, total_consumed_bits=-1),
         "total_generated_bits"),
        (lambda: AuthBudget(10, total_consumed_bits=-3), "total_consumed_bits"),
        (lambda: AuthBudget(10, total_consumed_bits=2.5), "total_consumed_bits"),
    ],
    ids=["negative-pool", "fractional-pool", "negative-ledger", "negative-tags", "fractional-tags"],
)
def test_pool_and_budget_counters_are_checked_when_built(make, field):
    with pytest.raises(RangeError) as caught:
        make()
    assert caught.value.field == field


def test_pool_rejects_zero_quantities():
    pool = KeyPool(link_id="a")
    with pytest.raises(ValueError):
        pool.deposit(0)
    with pytest.raises(ValueError):
        pool.deposit(-3)
    pool.deposit(8)
    for debit in DEBITS:
        with pytest.raises(ValueError):
            debit(pool, 0)
        with pytest.raises(ValueError):
            debit(pool, -1)
    assert counters(pool) == (8, 8, 0)
    with pytest.raises(ValueError):
        KeyPool(link_id="a", target_bits=0)
    with pytest.raises(ValueError):
        AuthBudget(reserved_bits=-1)
    with pytest.raises(ValueError):
        AuthBudget(0, tag_cost_bits=0)
    with pytest.raises(ValueError):
        AuthBudget(10).consume(0)
    pool.available_bits = 5  # set by hand, past the ledger
    with pytest.raises(AssertionError, match="leaked bits"):
        pool.assert_conservation()


def test_pool_draws_are_deterministic_per_seed():
    a = KeyPool(link_id="x", rng=random.Random(5))
    b = KeyPool(link_id="x", rng=random.Random(5))
    a.deposit(256)
    b.deposit(256)
    ka = a.draw(64, Provenance.QUANTUM)
    kb = b.draw(64, Provenance.QUANTUM)
    assert ka.bits == kb.bits
    assert ka.id == kb.id


def test_pool_conservation_over_random_sequences():
    rng = random.Random(20260822)
    pool = KeyPool(link_id="p", rng=random.Random(1))
    drawn = []
    for _ in range(2000):
        op = rng.random()
        if op < 0.5:
            pool.deposit(rng.randint(1, 500))
        elif op < 0.9:
            n = rng.randint(1, 400)
            debit = rng.choice(DEBITS)
            if pool.available_bits >= n:
                got = debit(pool, n)
                if got is not None:
                    drawn.append(got)
            else:
                before = counters(pool)
                with pytest.raises(InsufficientKey):
                    debit(pool, n)
                assert counters(pool) == before
        elif drawn:
            km = drawn.pop()
            if not km.consumed:
                km.mark_consumed()
        pool.assert_conservation()
    assert pool.total_generated_bits == pool.available_bits + pool.total_consumed_bits


def test_fill_ratio():
    pool = KeyPool(link_id="a", target_bits=1000)
    assert pool.fill_ratio == 0.0
    pool.deposit(250)
    assert pool.fill_ratio == 0.25


def test_auth_budget_exact_costs():
    budget = AuthBudget(reserved_bits=128, tag_cost_bits=128)
    assert budget.consume(1) == 128
    assert budget.reserved_bits == 0
    budget = AuthBudget(reserved_bits=1000, tag_cost_bits=128)
    budget.consume(3)
    assert budget.reserved_bits == 616
    with pytest.raises(InsufficientAuthKey):
        budget.consume(5)
    assert budget.reserved_bits == 616
    # spend pays a bit count, as produce pays a round's auth bits; 0 pays nothing.
    assert budget.spend(0) == 0 and budget.spend(616) == 616
    assert budget.reserved_bits == 0 and budget.total_consumed_bits == 1000
    with pytest.raises(InsufficientAuthKey):
        budget.spend(1)
    with pytest.raises(ValueError):
        budget.spend(-1)
    assert budget.total_consumed_bits == 1000


def test_auth_budget_two_messages_on_one_tag_of_reserve():
    budget = AuthBudget(reserved_bits=128, tag_cost_bits=128)
    with pytest.raises(InsufficientAuthKey):
        budget.consume(2)
    assert budget.reserved_bits == 128


def test_auth_budget_deposit():
    budget = AuthBudget(reserved_bits=0, tag_cost_bits=64)
    budget.deposit(128)
    budget.consume(2)
    assert budget.reserved_bits == 0
    with pytest.raises(ValueError):
        budget.deposit(0)


@pytest.mark.parametrize(
    "call, message",
    [
        # Each used to move the counters: to 92.0, to 102.5, by one bit
        # and by 192.0 bits.
        (lambda b: b.spend(8.0), "n_bits: expected an integer, got 8.0"),
        (lambda b: b.deposit(2.5), "n_bits: expected an integer, got 2.5"),
        (lambda b: b.spend(True), "n_bits: expected an integer, got True"),
        (lambda b: b.consume(1.5), "n_messages: expected an integer, got 1.5"),
        (lambda b: b.spend(-1), "n_bits: must be >= 0, got -1"),
        (lambda b: b.deposit(0), "n_bits: must be >= 1, got 0"),
        (lambda b: b.deposit(True), "n_bits: expected an integer, got True"),
        (lambda b: b.consume(0), "n_messages: must be >= 1, got 0"),
        (lambda b: b.consume(True), "n_messages: expected an integer, got True"),
    ],
)
def test_auth_budget_counts_are_ints_checked_before_anything_moves(call, message):
    budget = AuthBudget(100)
    with pytest.raises(RangeError, match=re.escape(message)):
        call(budget)
    assert (budget.reserved_bits, budget.total_consumed_bits) == (100, 0)
    assert type(budget.reserved_bits) is int
