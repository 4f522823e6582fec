"""Policy matrix construction, validation, and recommendations."""

import pytest

from starqkd.errors import BadDimensions, IndexOutOfBounds
from starqkd.hybrid import PRACTICALLY_INFINITE_SECONDS, AttackerModel, horizon_for
from starqkd.policy import (
    ROTATION_FREQUENCY_GRID_HZ,
    DataState,
    HybridParams,
    InfoAsset,
    PolicyMatrix,
    Technique,
    TechniqueKind,
    asset_grid,
    default_matrix,
    recommend,
    validate_matrix,
)

QUANTUM = AttackerModel(classical_ops_per_sec=1e9, has_quantum=True, records_traffic=True)
CLASSICAL = AttackerModel(classical_ops_per_sec=1e9, has_quantum=False)


def asset(c, t, lifetime=3.156e7, state=DataState.IN_MOTION, aid="a") -> InfoAsset:
    return InfoAsset(
        id=aid,
        sensitivity_index=c,
        time_index=t,
        size_bytes=1024,
        lifetime_seconds=lifetime,
        data_state=state,
    )


def test_asset_grid_is_at_least_2x2():
    assert asset_grid(()) == (2, 2)
    assert asset_grid([asset(1, 1)]) == (2, 2)
    assert asset_grid([asset(3, 1), asset(1, 5)]) == (3, 5)


def test_default_matrix_3x3_center_is_hybrid():
    m = default_matrix(3, 3)
    assert m.cell(2, 2).kind is TechniqueKind.HYBRID


def test_default_matrix_corners_all_dims():
    for m_c in range(2, 7):
        for k_t in range(2, 7):
            m = default_matrix(m_c, k_t)
            assert m.cell(1, 1).kind is TechniqueKind.CLASSICAL_PUBLIC_KEY
            assert m.cell(m_c, k_t).kind is TechniqueKind.QKD_OTP
            assert validate_matrix(m) == []


def test_default_matrix_monotone_band_structure():
    m = default_matrix(6, 6)
    # moving away from (1,1) never weakens the technique
    for c in range(1, 7):
        for t in range(1, 7):
            here = m.cell(c, t).kind
            if c < 6:
                assert m.cell(c + 1, t).kind >= here
            if t < 6:
                assert m.cell(c, t + 1).kind >= here
    # the 2x2 matrix is pure corners
    tiny = default_matrix(2, 2)
    assert tiny.cell(1, 2).kind is TechniqueKind.HYBRID
    assert tiny.cell(2, 1).kind is TechniqueKind.HYBRID


def test_default_matrix_rejects_small_dims():
    with pytest.raises(BadDimensions):
        default_matrix(1, 5)
    with pytest.raises(BadDimensions):
        default_matrix(3, 1)


def test_validate_matrix_reports_violations():
    m = default_matrix(3, 3)
    m.cells[(1, 1)] = Technique(TechniqueKind.QKD_OTP)
    m.cells[(3, 2)] = Technique(TechniqueKind.CLASSICAL_PUBLIC_KEY)
    problems = validate_matrix(m)
    assert any("(1, 1)" in p for p in problems)
    assert any("(3, 2)" in p and "(2, 2)" in p for p in problems)
    del m.cells[(2, 3)]
    assert any("missing" in p for p in validate_matrix(m))


def test_cell_bounds():
    m = default_matrix(3, 3)
    with pytest.raises(IndexOutOfBounds):
        m.cell(0, 1)
    with pytest.raises(IndexOutOfBounds):
        m.cell(1, 4)


def test_classical_corner_with_quantum_attacker_is_infeasible():
    rec = recommend(asset(1, 1, lifetime=10.0), default_matrix(3, 3), QUANTUM)
    assert rec.technique.kind is TechniqueKind.CLASSICAL_PUBLIC_KEY
    assert not rec.feasible
    assert rec.horizon.t_s_seconds == 0.0
    assert any("store-now-decrypt-later" in n for n in rec.notes)


def test_store_now_decrypt_later_note_needs_an_attacker_who_records():
    live_only = AttackerModel(classical_ops_per_sec=1e9, has_quantum=True, records_traffic=False)
    rec = recommend(asset(1, 1, lifetime=10.0), default_matrix(3, 3), live_only)
    assert rec.technique.kind is TechniqueKind.CLASSICAL_PUBLIC_KEY
    assert not rec.feasible
    assert not any("store-now-decrypt-later" in n for n in rec.notes)


def test_classical_corner_zero_lifetime_is_fine():
    rec = recommend(asset(1, 1, lifetime=0.0), default_matrix(3, 3), QUANTUM)
    assert rec.feasible
    assert rec.notes == ()


def test_classical_corner_classical_attacker():
    rec = recommend(asset(1, 1, lifetime=3.156e7), default_matrix(3, 3), CLASSICAL)
    # 2^112 / 1e9 ops/s dwarfs any civilisational lifetime
    assert rec.feasible
    assert rec.horizon.t_s_seconds > 1e15


def test_post_quantum_cell():
    m = default_matrix(6, 6)
    assert m.cell(1, 2).kind is TechniqueKind.POST_QUANTUM
    rec = recommend(asset(1, 2), m, QUANTUM)
    assert rec.technique.kind is TechniqueKind.POST_QUANTUM
    assert rec.feasible
    assert rec.horizon.t_s_seconds == PRACTICALLY_INFINITE_SECONDS


def test_hybrid_cell_picks_minimal_grid_frequency():
    m = default_matrix(3, 3)
    lifetime = 3.156e8  # ten years
    rec = recommend(asset(2, 2, lifetime=lifetime), m, QUANTUM)
    assert rec.technique.kind is TechniqueKind.HYBRID
    assert rec.feasible
    f = rec.technique.hybrid.rotation_frequency_hz
    assert rec.horizon.t_sq_seconds >= lifetime
    # no slower grid frequency would have done
    sizing = rec.technique.hybrid
    for slower in ROTATION_FREQUENCY_GRID_HZ:
        if slower >= f:
            break
        h = horizon_for(sizing.session_bits, slower, QUANTUM, lifetime)
        assert h.t_sq_seconds < lifetime


def test_hybrid_escalates_when_rotation_cannot_cover():
    # a 16-bit session key falls in under a millisecond; no rotation
    # frequency on the grid can stretch that across a year
    m = default_matrix(3, 3)
    m.cells[(2, 2)] = Technique(
        TechniqueKind.HYBRID, HybridParams(session_bits=16)
    )
    rec = recommend(asset(2, 2, lifetime=3.156e7), m, QUANTUM)
    assert rec.technique.kind is TechniqueKind.QKD_OTP
    assert rec.feasible
    assert any("escalating" in n for n in rec.notes)


def test_qkd_otp_cell():
    m = default_matrix(3, 3)
    rec = recommend(asset(3, 3, lifetime=1e12), m, QUANTUM)
    assert rec.technique.kind is TechniqueKind.QKD_OTP
    assert rec.feasible
    assert rec.horizon.t_sq_seconds == PRACTICALLY_INFINITE_SECONDS


def test_recommendation_monotone_in_class_indices():
    for m_c in range(2, 7):
        for k_t in range(2, 7):
            m = default_matrix(m_c, k_t)
            kinds = {
                (c, t): recommend(asset(c, t), m, QUANTUM).technique.kind
                for c in range(1, m_c + 1)
                for t in range(1, k_t + 1)
            }
            for (c, t), kind in kinds.items():
                if c < m_c:
                    assert kinds[(c + 1, t)] >= kind
                if t < k_t:
                    assert kinds[(c, t + 1)] >= kind


def test_data_state_notes():
    m = default_matrix(3, 3)
    rec = recommend(asset(2, 2, state=DataState.IN_USE), m, QUANTUM)
    assert any("in-use" in n for n in rec.notes)
    rec = recommend(asset(3, 2, state=DataState.AT_REST), m, QUANTUM)
    assert any("threshold sharing" in n for n in rec.notes)


def test_technique_validation():
    with pytest.raises(ValueError):
        Technique(TechniqueKind.POST_QUANTUM, HybridParams())
    t = Technique(TechniqueKind.HYBRID)
    assert t.hybrid == HybridParams()
    with pytest.raises(ValueError):
        HybridParams(session_bits=0)
    with pytest.raises(ValueError):
        HybridParams(rotation_frequency_hz=-1)
    with pytest.raises(ValueError):
        InfoAsset("a", 1, 1, size_bytes=-1, lifetime_seconds=1.0, data_state=DataState.AT_REST)
    with pytest.raises(ValueError):
        asset(1, 1, lifetime=-1.0)
    assert validate_matrix(PolicyMatrix(1, 2, {})) == ["dimensions 1x2 below 2x2"]
    with pytest.raises(ValueError):
        asset(0, 1)
