"""Point-to-point QKD link model.

Rates follow the standard fiber budget: an attenuation of a dB/km over
d km passes a fraction 10^(-a*d/10) of the photons, and the sifted
stream distills secret bits at the asymptotic BB84 fraction
max(0, 1 - 2*h(qber)). Post-processing costs classical CPU per raw bit
and burns authentication key per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import InsufficientKey, check_float, check_int, store_float
from .keycore import AuthBudget, KeyPool


@dataclass(frozen=True)
class LinkParams:
    """Static hardware and protocol parameters of one link."""

    distance_km: float
    source_rate_hz: float
    detector_efficiency: float
    qber: float
    attenuation_db_per_km: float = 0.2
    sifting_factor: float = 0.5
    cpu_cost_per_raw_bit: float = 1.0
    post_processing_messages_per_round: int = 4

    def __post_init__(self) -> None:
        store_float(self, "distance_km", 0.0)
        store_float(self, "source_rate_hz", 0.0)
        store_float(self, "detector_efficiency", 0.0, 1.0)
        store_float(self, "sifting_factor", 0.0, 1.0)
        store_float(self, "qber", 0.0, 0.5)
        store_float(self, "attenuation_db_per_km", 0.0)
        store_float(self, "cpu_cost_per_raw_bit", 0.0)
        messages = self.post_processing_messages_per_round
        check_int("post_processing_messages_per_round", messages, 0)

    @cached_property
    def cpu_cost_per_sec(self) -> float:
        """cpu_cost_per_raw_bit * raw_rate(self), in cost units per second."""
        return self.cpu_cost_per_raw_bit * raw_rate(self)


def raw_rate(params: LinkParams) -> float:
    """Sifted detection rate in bits per second."""
    loss = 10.0 ** (-params.attenuation_db_per_km * params.distance_km / 10.0)
    return params.source_rate_hz * params.sifting_factor * params.detector_efficiency * loss


def binary_entropy(q: float) -> float:
    """Shannon entropy of a bit with error probability q."""
    q = check_float("q", q, 0.0, 1.0)
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def secret_fraction(q: float) -> float:
    """Asymptotic BB84 secret fraction, zero at and past the ~11% QBER cliff."""
    return max(0.0, 1.0 - 2.0 * binary_entropy(check_float("q", q, 0.0, 0.5)))


def secret_rate(params: LinkParams) -> float:
    """Distilled secret-key rate in bits per second."""
    return raw_rate(params) * secret_fraction(params.qber)


# Every exact per-tick amount x is held as x * 2**SCALE: an int when that
# is whole, a Fraction otherwise, by `exact`. That holds for each round's
# bits and cost, a link's carry, and the hub's budget, drain costs and
# processed and deferred totals. A product of two floats that is not
# whole at this scale is below 2**-22 (two 53-bit mantissas multiply to
# under 2**106), so only a near-dead link's amounts take the Fraction form.
SCALE = 128
ONE = 1 << SCALE


def exact(y: int | Fraction) -> int | Fraction:
    """y as an int when it is whole, else y: the one number form of exact amounts."""
    return y.numerator if y.denominator == 1 else y


def scaled(x: Fraction) -> int | Fraction:
    """x * 2**SCALE, as an int when it is whole."""
    return exact(x * ONE)


def unscaled(y: int | Fraction) -> float:
    """y / 2**SCALE correctly rounded, as float() of the exact amount is."""
    return y.numerator / (y.denominator << SCALE)


@dataclass(frozen=True)
class Round:
    """A link's round of dt seconds: its auth cost, its CPU cost as a float, and exact amounts.

    bits_scaled and cpu_scaled are secret_rate and cpu_cost_per_sec times dt * 2**SCALE.
    """

    dt: float
    auth_bits: int
    cpu: float
    bits_scaled: int | Fraction
    cpu_scaled: int | Fraction


@dataclass
class LinkState:
    """Mutable per-link runtime state: pool, auth budget, carry.

    Bits produced but not yet deposited are carried, so long runs are
    partition-invariant (two half ticks land the same bits as one).
    _carry is pending_bits * 2**SCALE, always in [0, 2**SCALE): an int,
    or a Fraction until the sum is whole again.
    """

    params: LinkParams
    pool: KeyPool
    auth: AuthBudget
    cumulative_cpu_cost: float = 0.0
    halted_ticks: int = 0
    _carry: int | Fraction = field(default=0, init=False, repr=False, compare=False)
    _round: Round | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def pending_bits(self) -> Fraction:
        """The bits carried to the next deposit, exactly."""
        return Fraction(self._carry, ONE)

    def round(self, dt: float) -> Round:
        """The round of dt > 0 seconds, redone only for a new dt: params and tag cost are fixed."""
        if self._round is None or self._round.dt != dt:
            check_float("dt", dt, positive=True)
            exact_dt = Fraction(dt)
            self._round = Round(
                dt=dt,
                auth_bits=self.params.post_processing_messages_per_round * self.auth.tag_cost_bits,
                cpu=self.params.cpu_cost_per_sec * dt,
                bits_scaled=scaled(Fraction(secret_rate(self.params)) * exact_dt),
                cpu_scaled=scaled(Fraction(self.params.cpu_cost_per_sec) * exact_dt),
            )
        return self._round

    def carry(self, amount: int | Fraction) -> int:
        """Add amount / 2**SCALE bits to the carry; deposit its whole part and return it."""
        carry = self._carry + amount
        whole = carry // ONE
        if whole:
            carry -= whole << SCALE
            self.pool.deposit(whole)
        self._carry = exact(carry)
        return whole


@dataclass(frozen=True)
class TickOutcome:
    """What one production interval did to a link."""

    produced_bits: Fraction
    deposited_bits: int
    cpu_cost: float
    auth_bits_from_budget: int
    auth_bits_from_pool: int
    halted: bool


def produce(state: LinkState, rnd: Round) -> int | None:
    """Pay the round's auth and charge its CPU; return the auth bits taken from the pool.

    Auth is paid from the reserved budget first and then from the link's
    own pool. If neither covers the round, the link halts for this
    interval, pays nothing and None is returned. The round's bits are not
    deposited here: callers deposit rnd.bits_scaled, whole or in part,
    through LinkState.carry, as tick and starnet.hub_step do.
    """
    shortfall = max(0, rnd.auth_bits - state.auth.reserved_bits)
    if shortfall > 0:
        try:
            state.pool.spend(shortfall)  # spent as authentication tags
        except InsufficientKey:
            state.halted_ticks += 1
            return None
        state.auth.deposit(shortfall)
    state.auth.spend(rnd.auth_bits)
    state.cumulative_cpu_cost += rnd.cpu
    return shortfall


def tick(state: LinkState, dt: float, now: float = 0.0) -> TickOutcome:
    """One unthrottled round: produce(), then deposit all its bits through LinkState.carry.

    A halted round deposits nothing. now is accepted for symmetry with
    the other stepping calls; pool debits carry no time.
    """
    rnd = state.round(dt)
    from_pool = produce(state, rnd)
    if from_pool is None:
        return TickOutcome(Fraction(0), 0, 0.0, 0, 0, True)
    produced = Fraction(rnd.bits_scaled, ONE)
    deposited = state.carry(rnd.bits_scaled)
    return TickOutcome(produced, deposited, rnd.cpu, rnd.auth_bits - from_pool, from_pool, False)
