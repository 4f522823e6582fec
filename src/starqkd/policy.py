"""Class-based protection policy: who gets which cipher, and does it hold.

Assets are classified on a sensitivity axis (1..M_C) and a time axis
(1..K_T). A policy matrix maps every class pair to a technique; the
default matrix interpolates from classical public-key crypto at the
benign corner to QKD-backed one-time pads at the hostile corner.
recommend() then checks the chosen technique against an attacker model
and the asset's lifetime, escalating when the numbers do not close.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from fractions import Fraction
from typing import Sequence

from .errors import BadDimensions, IndexOutOfBounds, check_enum, check_int, check_text, store_float
from .hybrid import (
    PRACTICALLY_INFINITE_SECONDS,
    AttackerModel,
    SecurityHorizon,
    estimate_t_s,
    horizon_for,
)

# Strength-equivalent key sizes for the horizon model: a ~112-bit
# work-factor for classical public keys of the current deployment era,
# 256-bit for post-quantum suites.
CLASSICAL_PK_EFFECTIVE_BITS = 112
POST_QUANTUM_EFFECTIVE_BITS = 256

# Candidate rotation frequencies recommend() scans, slowest first.
ROTATION_FREQUENCY_GRID_HZ = tuple(10.0**e for e in range(-9, 1))


class TechniqueKind(IntEnum):
    """Protection techniques, ordered weakest to strongest."""

    CLASSICAL_PUBLIC_KEY = 0
    POST_QUANTUM = 1
    HYBRID = 2
    QKD_OTP = 3

    @property
    def label(self) -> str:
        return self.name.lower()


# Work factors of the techniques whose horizon recommend() gives as
# t_sq = t_s: post-quantum, and classical against a classical attacker.
_EFFECTIVE_BITS = {
    TechniqueKind.CLASSICAL_PUBLIC_KEY: CLASSICAL_PK_EFFECTIVE_BITS,
    TechniqueKind.POST_QUANTUM: POST_QUANTUM_EFFECTIVE_BITS,
}


class DataState(Enum):
    AT_REST = "at_rest"
    IN_MOTION = "in_motion"
    IN_USE = "in_use"


@dataclass(frozen=True)
class HybridParams:
    """Key sizing for the hybrid technique."""

    master_bits: int = 256
    session_bits: int = 128
    quantum_bits: int = 256
    rotation_frequency_hz: float = 1.0 / 86400.0

    def __post_init__(self) -> None:
        for name in ("master_bits", "session_bits", "quantum_bits"):
            check_int(name, getattr(self, name), 1)
        store_float(self, "rotation_frequency_hz", 0.0)


@dataclass(frozen=True)
class Technique:
    """A technique kind plus, for hybrid, its key sizing."""

    kind: TechniqueKind
    hybrid: HybridParams | None = None

    def __post_init__(self) -> None:
        check_enum("kind", self.kind, TechniqueKind)
        if self.kind is TechniqueKind.HYBRID:
            if self.hybrid is None:
                object.__setattr__(self, "hybrid", HybridParams())
            check_enum("hybrid", self.hybrid, HybridParams)
        elif self.hybrid is not None:
            raise ValueError(f"{self.kind.label} takes no hybrid parameters")


@dataclass(frozen=True)
class InfoAsset:
    """One asset with its class indices and exposure profile."""

    id: str
    sensitivity_index: int
    time_index: int
    size_bytes: int
    lifetime_seconds: float
    data_state: DataState

    def __post_init__(self) -> None:
        check_text("id", self.id)
        check_int("sensitivity_index", self.sensitivity_index, 1)
        check_int("time_index", self.time_index, 1)
        check_int("size_bytes", self.size_bytes, 0)
        store_float(self, "lifetime_seconds", 0.0)
        check_enum("data_state", self.data_state, DataState)


@dataclass
class PolicyMatrix:
    """Technique assignment for every (sensitivity, time) class pair."""

    m_c: int
    k_t: int
    cells: dict[tuple[int, int], Technique]

    def __post_init__(self) -> None:
        check_int("m_c", self.m_c)
        check_int("k_t", self.k_t)

    def cell(self, sensitivity_index: int, time_index: int) -> Technique:
        if not (1 <= sensitivity_index <= self.m_c and 1 <= time_index <= self.k_t):
            raise IndexOutOfBounds(
                f"class ({sensitivity_index}, {time_index}) outside "
                f"{self.m_c}x{self.k_t} matrix"
            )
        return self.cells[(sensitivity_index, time_index)]


def asset_grid(assets: Sequence[InfoAsset]) -> tuple[int, int]:
    """The smallest grid, at least 2x2, that holds every asset's class indices."""
    return (
        max([2, *(a.sensitivity_index for a in assets)]),
        max([2, *(a.time_index for a in assets)]),
    )


def default_matrix(m_c: int, k_t: int) -> PolicyMatrix:
    """Build the default technique assignment for an m_c x k_t grid.

    Interior cells score s = (c-1)/(M_C-1) + (t-1)/(K_T-1) in [0, 2]
    exactly (rational arithmetic) and split at 1/2 and 3/2:
    post-quantum below, hybrid between, QKD-OTP above. The benign corner
    stays classical; the hostile corner is always QKD-OTP.
    """
    check_int("m_c", m_c)
    check_int("k_t", k_t)
    if m_c < 2 or k_t < 2:
        raise BadDimensions(f"matrix needs m_c, k_t >= 2, got {m_c}x{k_t}")
    cells: dict[tuple[int, int], Technique] = {}
    for c in range(1, m_c + 1):
        for t in range(1, k_t + 1):
            if (c, t) == (1, 1):
                cells[(c, t)] = Technique(TechniqueKind.CLASSICAL_PUBLIC_KEY)
                continue
            if (c, t) == (m_c, k_t):
                cells[(c, t)] = Technique(TechniqueKind.QKD_OTP)
                continue
            score = Fraction(c - 1, m_c - 1) + Fraction(t - 1, k_t - 1)
            if score < Fraction(1, 2):
                kind = TechniqueKind.POST_QUANTUM
            elif score < Fraction(3, 2):
                kind = TechniqueKind.HYBRID
            else:
                kind = TechniqueKind.QKD_OTP
            cells[(c, t)] = Technique(kind)
    return PolicyMatrix(m_c=m_c, k_t=k_t, cells=cells)


def validate_matrix(matrix: PolicyMatrix) -> list[str]:
    """Check totality, corner rules, and monotonicity along both axes.

    Returns a list of human-readable violations, empty when coherent.
    """
    problems: list[str] = []
    if matrix.m_c < 2 or matrix.k_t < 2:
        problems.append(f"dimensions {matrix.m_c}x{matrix.k_t} below 2x2")
        return problems
    for c in range(1, matrix.m_c + 1):
        for t in range(1, matrix.k_t + 1):
            if (c, t) not in matrix.cells:
                problems.append(f"cell ({c}, {t}) missing")
    if problems:
        return problems
    corner = matrix.cells[(1, 1)].kind
    if corner is not TechniqueKind.CLASSICAL_PUBLIC_KEY:
        problems.append(f"cell (1, 1) must be classical_public_key, got {corner.label}")
    corner = matrix.cells[(matrix.m_c, matrix.k_t)].kind
    if corner is not TechniqueKind.QKD_OTP:
        problems.append(
            f"cell ({matrix.m_c}, {matrix.k_t}) must be qkd_otp, got {corner.label}"
        )
    for c in range(1, matrix.m_c + 1):
        for t in range(1, matrix.k_t + 1):
            here = matrix.cells[(c, t)].kind
            if c < matrix.m_c:
                right = matrix.cells[(c + 1, t)].kind
                if right < here:
                    problems.append(
                        f"cell ({c + 1}, {t}) weaker than ({c}, {t}): "
                        f"{right.label} < {here.label}"
                    )
            if t < matrix.k_t:
                up = matrix.cells[(c, t + 1)].kind
                if up < here:
                    problems.append(
                        f"cell ({c}, {t + 1}) weaker than ({c}, {t}): "
                        f"{up.label} < {here.label}"
                    )
    return problems


@dataclass(frozen=True)
class Recommendation:
    """recommend()'s verdict for one asset."""

    asset_id: str
    technique: Technique
    horizon: SecurityHorizon
    feasible: bool
    notes: tuple[str, ...] = ()


def recommend(
    asset: InfoAsset, matrix: PolicyMatrix, attacker: AttackerModel
) -> Recommendation:
    """Pick and sanity-check a technique for one asset.

    Starts from the matrix cell for the asset's class pair. A hybrid
    cell is sized by scanning the rotation-frequency grid for the
    slowest rotation whose horizon covers the asset lifetime; if even
    the fastest cannot, the verdict escalates to QKD-OTP with a note.
    """
    technique = matrix.cell(asset.sensitivity_index, asset.time_index)
    notes: list[str] = []
    if asset.data_state is DataState.IN_USE:
        notes.append("in-use data stays exposed in plaintext at the endpoints")
    if asset.data_state is DataState.AT_REST and asset.sensitivity_index == matrix.m_c:
        notes.append(
            "top-sensitivity data at rest should also be split across "
            "locations with threshold sharing"
        )

    if technique.kind is TechniqueKind.CLASSICAL_PUBLIC_KEY and attacker.has_quantum:
        # Shor-class attacks void the public-key assumption outright.
        horizon = SecurityHorizon(t_s_seconds=0.0, t_sq_seconds=0.0)
        feasible = asset.lifetime_seconds == 0.0
        # Only recorded traffic can be decrypted later.
        if not feasible and attacker.records_traffic:
            notes.append(
                "store-now-decrypt-later exposure: recorded ciphertext falls "
                "with the public-key assumption"
            )
        return Recommendation(asset.id, technique, horizon, feasible, tuple(notes))

    if technique.kind in _EFFECTIVE_BITS:
        t_s = estimate_t_s(_EFFECTIVE_BITS[technique.kind], attacker)
        horizon = SecurityHorizon(t_s_seconds=t_s, t_sq_seconds=t_s)
        feasible = t_s >= asset.lifetime_seconds
        return Recommendation(asset.id, technique, horizon, feasible, tuple(notes))

    if technique.kind is TechniqueKind.HYBRID:
        assert technique.hybrid is not None
        sizing = technique.hybrid
        for f in ROTATION_FREQUENCY_GRID_HZ:
            horizon = horizon_for(
                sizing.session_bits, f, attacker, asset.lifetime_seconds
            )
            if horizon.t_sq_seconds >= asset.lifetime_seconds:
                chosen = replace(technique, hybrid=replace(sizing, rotation_frequency_hz=f))
                return Recommendation(asset.id, chosen, horizon, True, tuple(notes))
        notes.append(
            "hybrid rotation cannot cover the asset lifetime at any "
            "candidate frequency; escalating to qkd_otp"
        )
        technique = Technique(TechniqueKind.QKD_OTP)

    # QKD-OTP: information-theoretic, horizon pegged at the sentinel.
    horizon = SecurityHorizon(
        t_s_seconds=PRACTICALLY_INFINITE_SECONDS,
        t_sq_seconds=PRACTICALLY_INFINITE_SECONDS,
    )
    return Recommendation(asset.id, technique, horizon, True, tuple(notes))
