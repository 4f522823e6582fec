"""Link rate model, the round that produce pays, and the deposits of LinkState.carry."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starqkd.errors import DomainError
from starqkd.keycore import AuthBudget, KeyPool
from starqkd.qkdlink import (
    ONE,
    LinkParams,
    LinkState,
    TickOutcome,
    binary_entropy,
    produce,
    raw_rate,
    scaled,
    secret_fraction,
    secret_rate,
    tick,
)

# h(0.11); the BB84 cliff sits just above q = 0.11
H_011 = 0.4999160
BB84_CLIFF = 0.110028


def params(d=0.0, rate=1e6, eta=0.5, qber=0.0, **kw) -> LinkParams:
    return LinkParams(
        distance_km=d, source_rate_hz=rate, detector_efficiency=eta, qber=qber, **kw
    )


def make_state(p: LinkParams, reserved=10**9, tag=128, pool_bits=0) -> LinkState:
    pool = KeyPool(link_id="l", rng=random.Random(3))
    if pool_bits:
        pool.deposit(pool_bits)
    return LinkState(params=p, pool=pool, auth=AuthBudget(reserved_bits=reserved, tag_cost_bits=tag))


def test_raw_rate_at_zero_distance():
    assert raw_rate(params()) == 1e6 * 0.5 * 0.5


def test_raw_rate_attenuation_decades():
    base = raw_rate(params(d=0.0))
    assert raw_rate(params(d=50.0)) == pytest.approx(0.1 * base, rel=1e-12)
    assert raw_rate(params(d=100.0)) == pytest.approx(0.01 * base, rel=1e-12)


def test_raw_rate_monotone_in_distance_linear_in_hardware():
    rates = [raw_rate(params(d=d)) for d in range(0, 200, 10)]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert raw_rate(params(rate=2e6)) == pytest.approx(2 * raw_rate(params(rate=1e6)))
    assert raw_rate(params(eta=0.2)) == pytest.approx(2 * raw_rate(params(eta=0.1)))


def test_binary_entropy_anchors():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == pytest.approx(H_011, abs=1e-4)
    assert binary_entropy(0.3) == binary_entropy(0.7)
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy(1.01)


def test_secret_fraction_cliff():
    assert secret_fraction(0.0) == 1.0
    assert secret_fraction(0.11) <= 0.001
    assert secret_fraction(0.1099) > 0.0
    for q in (0.1101, 0.12, 0.25, 0.5):
        assert secret_fraction(q) == 0.0
    with pytest.raises(DomainError):
        secret_fraction(0.6)


def test_secret_rate_composition():
    assert secret_rate(params(qber=0.0)) == raw_rate(params())
    assert secret_rate(params(qber=0.2)) == 0.0
    expected = raw_rate(params()) * (1 - 2 * binary_entropy(0.02))
    assert secret_rate(params(qber=0.02)) == pytest.approx(expected, rel=1e-12)


def test_tick_deposits_floor_of_exact_rate():
    # rate 4000 * 0.5 * 0.5 = 1000 bits/s exactly
    st = make_state(params(rate=4000.0))
    out = tick(st, 1.0)
    assert out.deposited_bits == 1000
    assert st.pool.available_bits == 1000

    # fractional rate floors, carry kept
    st = make_state(LinkParams(0.0, 999.7, 1.0, 0.0, sifting_factor=1.0))
    out = tick(st, 1.0)
    assert out.deposited_bits == 999
    assert st.pending_bits == out.produced_bits - 999


def test_tick_partition_invariance():
    # splitting an interval into ragged pieces lands the same bits
    rng = random.Random(9)
    for _ in range(30):
        rate = rng.uniform(10.0, 5000.0)
        p = LinkParams(0.0, rate, 1.0, 0.0, sifting_factor=1.0)
        whole = make_state(p)
        split = make_state(p)
        tick(whole, 8.0)
        remaining = Fraction(8)
        while remaining > 0:
            piece = min(Fraction(rng.randint(1, 4), 4), remaining)
            tick(split, float(piece))
            remaining -= piece
        assert whole.pool.available_bits == split.pool.available_bits


def test_round_is_the_exact_rate_times_dt():
    p = params(d=37.0, eta=0.3, qber=0.02, cpu_cost_per_raw_bit=2.5)
    st = make_state(p, tag=96)
    for dt in (1.0, 0.7, 0.3, 0.1):
        rnd = st.round(dt)
        assert Fraction(rnd.bits_scaled, ONE) == Fraction(secret_rate(p)) * Fraction(dt)
        assert Fraction(rnd.cpu_scaled, ONE) == Fraction(p.cpu_cost_per_sec) * Fraction(dt)
        # The float cost is the exact one correctly rounded.
        assert rnd.cpu == p.cpu_cost_per_sec * dt == float(Fraction(rnd.cpu_scaled, ONE))
        assert rnd.auth_bits == 4 * 96
        assert st.round(dt) is rnd  # worked out once per dt
        reserved, cpu = st.auth.reserved_bits, st.cumulative_cpu_cost
        assert produce(st, rnd) == 0  # the whole round's auth from the reserve
        assert st.auth.reserved_bits == reserved - 4 * 96
        assert st.cumulative_cpu_cost == cpu + rnd.cpu
        assert st.pool.total_generated_bits == 0  # produce deposits nothing


def test_a_link_stepped_at_changing_dt_deposits_each_round():
    p = LinkParams(0.0, 999.7, 1.0, 0.0, sifting_factor=1.0)
    st = make_state(p)
    rate = Fraction(secret_rate(p))
    steps = (0.5, 0.25, 0.5)
    produced = Fraction(0)
    for dt in steps:
        tick(st, dt)
        produced += rate * Fraction(dt)
        assert st.pool.available_bits == math.floor(produced)
    assert st.pending_bits == produced - math.floor(produced)
    assert st.cumulative_cpu_cost == sum(p.cpu_cost_per_sec * dt for dt in steps)


def test_cumulative_cpu_cost_tracks_raw_bits():
    p = params(qber=0.02)
    st = make_state(p)
    for _ in range(100):
        tick(st, 1.0)
    assert st.cumulative_cpu_cost == pytest.approx(
        p.cpu_cost_per_raw_bit * raw_rate(p) * 100.0, rel=1e-9
    )


def test_auth_paid_from_budget_then_pool():
    p = params(rate=4000.0)
    st = make_state(p, reserved=512, tag=128)
    out = tick(st, 1.0)  # 4 messages * 128 = 512 from budget
    assert (out.auth_bits_from_budget, out.auth_bits_from_pool) == (512, 0)
    assert st.auth.reserved_bits == 0
    out = tick(st, 1.0)  # budget empty, pool holds tick-1 bits
    assert (out.auth_bits_from_budget, out.auth_bits_from_pool) == (0, 512)
    assert st.pool.total_consumed_bits == 512
    st.pool.assert_conservation()


def test_auth_split_payment():
    p = params(rate=4000.0)
    st = make_state(p, reserved=200, tag=128, pool_bits=1000)
    out = tick(st, 1.0)
    assert (out.auth_bits_from_budget, out.auth_bits_from_pool) == (200, 312)
    assert st.auth.reserved_bits == 0


def test_auth_starvation_halts_link():
    p = params(rate=4000.0)
    st = make_state(p, reserved=0, tag=128, pool_bits=100)
    out = tick(st, 1.0)
    assert out.halted
    assert out.deposited_bits == 0 and out.produced_bits == 0
    assert st.pool.available_bits == 100  # nothing drawn
    assert st.halted_ticks == 1
    assert st.cumulative_cpu_cost == 0.0


def test_zero_messages_needs_no_auth():
    p = params(rate=4000.0, post_processing_messages_per_round=0)
    st = make_state(p, reserved=0)
    out = tick(st, 1.0)
    assert not out.halted
    assert out.deposited_bits == 1000


def test_defaults():
    p = params()
    assert p.attenuation_db_per_km == 0.2
    assert p.sifting_factor == 0.5
    assert p.post_processing_messages_per_round == 4


def test_param_validation():
    for bad in (
        {"d": -1.0},
        {"eta": 1.5},
        {"qber": 0.6},
        {"rate": -1},
        {"sifting_factor": 1.5},
        {"attenuation_db_per_km": -0.1},
        {"cpu_cost_per_raw_bit": -1},
        {"post_processing_messages_per_round": -1},
    ):
        with pytest.raises(ValueError):
            params(**bad)
    state = make_state(params())
    for dt in (0.0, -1.0):
        with pytest.raises(ValueError, match="dt: must be positive"):
            state.round(dt)
        with pytest.raises(ValueError, match="dt: must be positive"):
            tick(state, dt)
    # A rejected dt changes nothing.
    assert state.halted_ticks == 0 and state.cumulative_cpu_cost == 0.0
    assert state.auth.reserved_bits == 10**9 and state.pool.total_generated_bits == 0


# A round of each dt, a share of a round (b odd, so not dyadic unless a
# cancels it), or a round deposited in two shares whose sum is dyadic again.
CARRY_STEPS = st.one_of(
    st.tuples(st.just("round"), st.sampled_from([1.0, 0.5, 0.1, 0.3, 2.0**-40, 1e-7])),
    st.tuples(
        st.sampled_from(["share", "split"]),
        st.sampled_from([1.0, 0.1, 0.3]),
        st.integers(0, 45),
        st.sampled_from([3, 5, 7, 9, 15, 45]),
    ),
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(rate=st.floats(0.5, 5000.0), steps=st.lists(CARRY_STEPS, min_size=1, max_size=40))
def test_carry_matches_a_plain_fraction_model(rate, steps):
    p = LinkParams(0.0, rate, 1.0, 0.0, sifting_factor=1.0)
    state = make_state(p)
    pending = Fraction(0)  # the model: the exact sum, floored at each deposit
    total = 0

    def check(bits: Fraction, deposited: int) -> None:
        nonlocal pending, total
        pending += bits
        whole = math.floor(pending)
        pending -= whole
        total += whole
        assert deposited == whole
        assert state.pool.total_generated_bits == total
        assert state.pending_bits == pending
        # The carry is an int exactly while pending * 2**SCALE is whole.
        assert isinstance(state._carry, int) == ((pending * ONE).denominator == 1)

    for kind, dt, *share in steps:
        bits = Fraction(state.round(dt).bits_scaled, ONE)
        if kind == "round":
            check(bits, tick(state, dt).deposited_bits)
            continue
        a, b = share
        part = bits * Fraction(min(a, b), b)
        check(part, state.carry(scaled(part)))
        if kind == "split":
            check(bits - part, state.carry(scaled(bits - part)))


def test_carry_at_a_scale_past_two_to_the_thousand():
    state = make_state(LinkParams(0.0, 999.7, 1.0, 0.0, sifting_factor=1.0))
    tiny = Fraction(state.round(1e-300).bits_scaled, ONE)
    assert 0 < tiny < 1 and tiny.denominator > 2**1000
    produced = Fraction(0)

    def check(bits: Fraction, deposited: int) -> None:
        nonlocal produced
        before = math.floor(produced)
        produced += bits
        assert deposited == math.floor(produced) - before
        assert state.pool.total_generated_bits == math.floor(produced)
        assert state.pending_bits == produced - math.floor(produced)

    # Two tiny rounds short of a whole bit, then one round onto it exactly.
    check(1 - 2 * tiny, state.carry(scaled(1 - 2 * tiny)))
    check(tiny, tick(state, 1e-300).deposited_bits)
    assert state.pool.total_generated_bits == 0
    check(tiny, tick(state, 1e-300).deposited_bits)
    assert state.pool.total_generated_bits == 1
    for dt in (1.0, 1e-300, 0.1, 1e-300, 1.0):
        check(Fraction(state.round(dt).bits_scaled, ONE), tick(state, dt).deposited_bits)
        third = Fraction(state.round(dt).bits_scaled, ONE) / 3
        check(third, state.carry(scaled(third)))
        check(2 * third, state.carry(scaled(2 * third)))
    assert state.pool.total_generated_bits > 1000
