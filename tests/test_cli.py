"""Command-line interface: subcommands, output files, exit codes."""

import json
from dataclasses import replace

import pytest

from starqkd import cli
from starqkd.cli import main
from starqkd.keycore import Provenance
from starqkd.qkdlink import raw_rate
from starqkd.scenario import DEFAULT_LINK


def test_validate_ok(capsys):
    assert main(["validate", "scenarios/star10.json"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "10 branches" in out


def test_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"seed": 3}))
    assert main(["validate", str(p)]) == 1
    assert "duration_seconds" in capsys.readouterr().err


FAST_SOURCES = {
    "traffic[0].relay_interval_seconds: 1e+12": {
        "branches": [{"id": "a"}, {"id": "b"}],
        "traffic": [{"src": "a", "dst": "b", "relay_bits": 8, "relay_interval_seconds": 1e-9}],
    },
    "sharing[0].refresh_period_seconds: 1e+12": {
        "branches": [{"id": "a"}, {"id": "b"}],
        "sharing": [
            {
                "id": "s",
                "n_locations": 3,
                "threshold_k": 2,
                "refresh_period_seconds": 1e-9,
                "custodians": ["a", "b"],
            }
        ],
    },
    "branches[0].rotation_frequency_hz: 1e+15": {
        "branches": [{"id": "a", "source_rate_hz": 1e15, "rotation_frequency_hz": 1e12}],
    },
}


@pytest.mark.parametrize("message", FAST_SOURCES)
def test_validate_bounds_periodic_firings(tmp_path, capsys, message):
    p = tmp_path / "fast.json"
    p.write_text(json.dumps({"duration_seconds": 1000, **FAST_SOURCES[message]}))
    assert main(["validate", str(p)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message} periodic firings exceed the limit of 10000000\n"


BAD_VALUES = {
    "assets[0].data_state: expected one of ['at_rest', 'in_motion', 'in_use'], got 'frozen'": {
        "assets": [{"id": "x", "sensitivity_index": 1, "time_index": 1, "data_state": "frozen"}],
    },
    "policy_matrix.cells[0].technique: expected one of "
    "['classical_public_key', 'hybrid', 'post_quantum', 'qkd_otp'], got 'rot13'": {
        "policy_matrix": {
            "m_c": 2,
            "k_t": 2,
            "cells": [{"sensitivity": 1, "time": 1, "technique": "rot13"}],
        },
    },
    "tick_seconds: must be positive, got 0.0": {"tick_seconds": 0},
    "hub.cpu_capacity_per_sec: must be positive, got 0.0": {"hub": {"cpu_capacity_per_sec": 0}},
    # A library type's range error is reported at its field's dotted path.
    "branches[0].qber: must be <= 0.5, got 0.7": {"branches": [{"id": "a", "qber": 0.7}]},
    "sharing[0].n_locations: must be >= 2, got 1": {
        "branches": [{"id": "a"}, {"id": "b"}],
        "sharing": [
            {
                "id": "s",
                "n_locations": 1,
                "threshold_k": 1,
                "refresh_period_seconds": 5.0,
                "custodians": ["a", "b"],
            }
        ],
    },
    "migration.x_years: must be >= 0.0, got -1.0": {
        "migration": {"x_years": -1, "y_years": 1, "z_years": 1},
    },
}


@pytest.mark.parametrize(
    "message",
    BAD_VALUES,
    ids=["choice", "technique", "tick", "cpu", "qber", "n_locations", "x_years"],
)
def test_validate_names_a_bad_choice_or_non_positive_value(tmp_path, capsys, message):
    p = tmp_path / "bad.json"
    data = {"duration_seconds": 10, "branches": [{"id": "a"}], **BAD_VALUES[message]}
    p.write_text(json.dumps(data))
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_validate_missing_file(capsys):
    assert main(["validate", "no/such/file.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_validate_lax_accepts_unknown_keys(tmp_path, capsys):
    p = tmp_path / "extra.json"
    p.write_text(
        json.dumps(
            {"duration_seconds": 2.0, "branches": [{"id": "a"}], "future_field": 1}
        )
    )
    assert main(["validate", str(p)]) == 1
    with pytest.warns(UserWarning):
        assert main(["validate", str(p), "--lax"]) == 0


def test_simulate_json(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "simulate",
            "scenarios/minimal.json",
            "--out",
            str(out),
            "--seed",
            "3",
            "--duration",
            "10",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "seed 3" in text
    data = json.loads((out / "report.json").read_text())
    assert data["seed"] == 3
    assert data["duration_seconds"] == 10.0


def test_simulate_csv(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "scenarios/minimal.json", "--format", "csv", "--out", str(out)]) == 0
    for name in ("meta.csv", "pool_available.csv", "deposited_bits.csv", "hub.csv"):
        assert (out / name).exists()


@pytest.mark.parametrize(
    ("blocked", "fmt", "message"),
    [
        ("", "json", "cannot create output directory"),
        ("report.json", "json", "cannot write report files under"),
        ("hub.csv", "csv", "cannot write report files under"),
    ],
    ids=["out-is-a-file", "report-json-is-a-directory", "hub-csv-is-a-directory"],
)
def test_simulate_exits_two_when_output_cannot_be_written(tmp_path, capsys, blocked, fmt, message):
    out = tmp_path / "run"
    if blocked:
        (out / blocked).mkdir(parents=True)
    else:
        out.write_text("")
    argv = ["simulate", "scenarios/minimal.json", "--format", fmt, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_simulate_rejects_bad_override(tmp_path, capsys):
    assert main(["simulate", "scenarios/minimal.json", "--duration", "0.3"]) == 1
    assert "whole number of ticks" in capsys.readouterr().err
    # Non-finite numbers, duplicate traffic pairs and runs over the tick
    # cap end in exit 1 with the dotted path, not a traceback.
    infinite = tmp_path / "infinite.json"
    infinite.write_text('{"duration_seconds": Infinity, "branches": [{"id": "a"}]}')
    nan = tmp_path / "nan.json"
    nan.write_text('{"duration_seconds": 10, "branches": [{"id": "a", "distance_km": NaN}]}')
    huge = tmp_path / "huge.json"  # an integer no float can hold
    huge.write_text(json.dumps({"duration_seconds": 10, "tick_seconds": 10**400, "branches": []}))
    pair = tmp_path / "pair.json"
    pair.write_text(
        json.dumps(
            {
                "duration_seconds": 20.0,
                "branches": [{"id": "a"}, {"id": "b"}],
                "traffic": [
                    {"src": "a", "dst": "b", "relay_bits": 64, "relay_interval_seconds": 5.0},
                    {"src": "a", "dst": "b", "relay_bits": 4096, "relay_interval_seconds": 5.0},
                ],
            }
        )
    )
    tiny_tick = tmp_path / "tiny_tick.json"  # 10**300 ticks
    tiny_tick.write_text(
        json.dumps({"duration_seconds": 1, "tick_seconds": 1e-300, "branches": [{"id": "a"}]})
    )
    # Policy grids over the cell limit: the run would walk every cell.
    asset = {"id": "x", "sensitivity_index": 1, "time_index": 1}
    grids = {
        "classes": {"classes": {"m_c": 2**64, "k_t": 2}, "assets": [asset]},
        "policy_matrix": {
            "policy_matrix": {"m_c": 2**64, "k_t": 2, "cells": []},
            "assets": [asset],
        },
        # No classes: the grid is sized from the asset indices.
        "assets": {"assets": [{**asset, "sensitivity_index": 2**64}]},
    }
    for name, extra in grids.items():
        (tmp_path / f"grid_{name}.json").write_text(
            json.dumps({"duration_seconds": 10, "branches": [{"id": "a"}], **extra})
        )
    out = str(tmp_path / "run")
    for argv, path in (
        ([str(infinite)], "duration_seconds: must be a finite number"),
        ([str(nan)], "branches[0].distance_km: must be a finite number"),
        ([str(huge)], "tick_seconds: must be a finite number"),
        (["scenarios/minimal.json", "--duration", "inf"], "duration_seconds: must be a finite"),
        ([str(pair)], "traffic[1]: duplicate pair a->b, already given at traffic[0]"),
        ([str(tiny_tick)], "duration_seconds: 1e+300 ticks exceeds the limit of 10000000"),
        (["scenarios/minimal.json", "--duration", "1e12"], "1e+12 ticks exceeds the limit of"),
        ([str(tmp_path / "grid_classes.json")], "classes: a 18446744073709551616x2 policy grid"),
        ([str(tmp_path / "grid_policy_matrix.json")], "policy_matrix: a 18446744073709551616x2"),
        ([str(tmp_path / "grid_assets.json")], "assets: a 18446744073709551616x2 policy grid"),
    ):
        assert main(["simulate", *argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert path in err and "Traceback" not in err


def test_simulate_rejects_a_run_whose_cpu_demand_leaves_float_range(tmp_path, capsys):
    # Each tick's CPU cost overflows a float on its own.
    huge_tick = {"duration_seconds": 2e307, "tick_seconds": 1e307, "branches": [{"id": "a"}]}
    # Each branch's tick costs 0.9e308, finite, but two branches and three
    # ticks add up past the largest float.
    tick = 0.9e308 / raw_rate(DEFAULT_LINK)
    huge_total = {
        "duration_seconds": 3 * tick,
        "tick_seconds": tick,
        "hub": {"cpu_capacity_per_sec": 1.0},
        "branches": [{"id": "a"}, {"id": "b"}],
    }
    for name, data in (("huge_tick", huge_tick), ("huge_total", huge_total)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 1, name
        err = capsys.readouterr().err
        assert "duration_seconds: the run's hub CPU demand" in err, name
        assert "Traceback" not in err, name


def test_plan_with_default_matrix(capsys):
    assert main(["plan", "scenarios/assets.json"]) == 0
    out = capsys.readouterr().out
    assert "trade-algorithms: qkd_otp" in out
    assert "AT RISK" in out
    assert "4 sensitivity x 4 retention" in out


def test_plan_classical_attacker(capsys):
    assert main(["plan", "scenarios/assets.json", "--attacker", "classical"]) == 0
    out = capsys.readouterr().out
    assert "classical attacker" in out


MATRIX_2X2 = {
    "m_c": 2,
    "k_t": 2,
    "cells": [
        {"sensitivity": c, "time": t, "technique": kind}
        for c, t, kind in [
            (1, 1, "classical_public_key"),
            (1, 2, "post_quantum"),
            (2, 1, "post_quantum"),
            (2, 2, "qkd_otp"),
        ]
    ],
}


def test_plan_with_matrix_file(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(MATRIX_2X2))
    inventory = tmp_path / "inv.json"
    inventory.write_text(
        json.dumps(
            {
                "assets": [
                    {
                        "id": "doc",
                        "sensitivity_index": 2,
                        "time_index": 2,
                        "size_bytes": 100,
                        "lifetime_seconds": 3.2e9,
                        "data_state": "at_rest",
                    }
                ]
            }
        )
    )
    assert main(["plan", str(inventory), "--matrix", str(matrix)]) == 0
    out = capsys.readouterr().out
    assert "doc: qkd_otp" in out
    assert "2 sensitivity x 2 retention" in out


@pytest.mark.parametrize(
    ("classes", "time_index", "matrix", "message"),
    [
        ({"m_c": 2, "k_t": 2**64}, 1, None, "classes: a 2x18446744073709551616 policy grid"),
        (None, 2**64, None, "assets: a 2x18446744073709551616 policy grid"),
        (None, 1, {"m_c": 2**64, "k_t": 2**64, "cells": []}, "policy_matrix: a 1844"),
    ],
    ids=["huge-classes", "huge-asset-index", "huge-matrix"],
)
def test_plan_rejects_huge_grid(tmp_path, capsys, classes, time_index, matrix, message):
    inventory = tmp_path / "inv.json"
    inventory.write_text(
        json.dumps(
            {
                "assets": [{"id": "doc", "sensitivity_index": 1, "time_index": time_index}],
                "classes": classes,
            }
        )
    )
    argv = ["plan", str(inventory)]
    if matrix is not None:
        (tmp_path / "m.json").write_text(json.dumps(matrix))
        argv += ["--matrix", str(tmp_path / "m.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "exceeds the limit of 10000" in err


@pytest.mark.parametrize(
    ("inventory", "matrix", "code", "message"),
    [
        ({"assets": []}, False, 0, "policy grid: 2 sensitivity x 2 retention classes"),
        (
            {
                "assets": [{"id": "a", "sensitivity_index": 5, "time_index": 1}],
                "classes": {"m_c": 2, "k_t": 2},
            },
            False,
            1,
            "error: assets[0].sensitivity_index: 5 exceeds m_c=2",
        ),
        (
            {"assets": [{"id": "a", "sensitivity_index": 5, "time_index": 1}]},
            True,
            1,
            "error: assets[0].sensitivity_index: 5 exceeds m_c=2",
        ),
        (
            {
                "assets": [
                    {"id": "a", "sensitivity_index": 1, "time_index": 1},
                    {"id": "a", "sensitivity_index": 2, "time_index": 2},
                ]
            },
            False,
            1,
            "error: assets[1].id: duplicate id 'a'",
        ),
        (
            {
                "assets": [{"id": "a", "sensitivity_index": 1, "time_index": 1}],
                "classes": {"m_c": 3, "k_t": 3},
            },
            True,
            1,
            "error: policy_matrix: matrix is 2x2 but classes say 3x3",
        ),
    ],
    ids=[
        "empty-inventory",
        "outside-classes",
        "outside-matrix",
        "duplicate-id",
        "matrix-disagrees-with-classes",
    ],
)
def test_plan_applies_the_simulate_grid_rule(tmp_path, capsys, inventory, matrix, code, message):
    (tmp_path / "inv.json").write_text(json.dumps(inventory))
    argv = ["plan", str(tmp_path / "inv.json")]
    if matrix:
        (tmp_path / "m.json").write_text(json.dumps(MATRIX_2X2))
        argv += ["--matrix", str(tmp_path / "m.json")]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message in (captured.out if code == 0 else captured.err)
    assert "Traceback" not in captured.err


def test_simulate_runs_a_pool_too_full_for_a_float_fill_ratio(tmp_path, capsys):
    # The pool holds ~1e294 times its target after one tick, and costs no CPU.
    data = {
        "duration_seconds": 1e300,
        "tick_seconds": 1e299,
        "branches": [{"id": "a", "source_rate_hz": 1e300, "cpu_cost_per_raw_bit": 0}],
    }
    path = tmp_path / "full.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["links"]["a"]["pool"]["available_bits"] > 1e300
    assert "Traceback" not in capsys.readouterr().err


def test_relay_demo(capsys):
    assert main(["relay-demo", "--branches", "3", "--bits", "128", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "keys match at both ends: True" in out
    assert "128" in out


def test_relay_demo_largest_star(capsys):
    assert main(["relay-demo", "--branches", "1000", "--seed", str(2**64 - 1)]) == 0
    assert "star of 1000 branches" in capsys.readouterr().out


def _flip_first_bit(k_src, k_dst):
    return k_src, replace(k_dst, bits=bytes([k_dst.bits[0] ^ 1]) + k_dst.bits[1:])


def _not_relayed(k_src, k_dst):
    return replace(k_src, provenance=Provenance.QUANTUM), k_dst


@pytest.mark.parametrize("fault", [_flip_first_bit, _not_relayed])
def test_relay_demo_exits_two_when_keys_do_not_match(monkeypatch, capsys, fault):
    relay_key = cli.relay_key

    def faulty_relay_key(*args):
        k_src, k_dst, record = relay_key(*args)
        return (*fault(k_src, k_dst), record)

    monkeypatch.setattr("starqkd.cli.relay_key", faulty_relay_key)
    assert main(["relay-demo", "--branches", "3", "--bits", "128", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: relay produced mismatched keys\n"


def test_relay_demo_deterministic(capsys):
    main(["relay-demo", "--seed", "4"])
    first = capsys.readouterr().out
    main(["relay-demo", "--seed", "4"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["relay-demo", "--branches", "1"], "--branches: must be >= 2"),
        (["relay-demo", "--bits", "0"], "--bits: must be >= 1"),
        (["relay-demo", "--bits", "100000000000"], "--bits: must be <= 1000000"),
        (["relay-demo", "--branches", "1001"], "--branches: must be <= 1000"),
        (["relay-demo", "--seed", "-1"], "--seed: must be >= 0"),
        (["relay-demo", "--seed", str(2**64)], "--seed: must be <= "),
        (["plan", "scenarios/assets.json", "--ops-per-sec", "0"], "--ops-per-sec: must be positive"),
        (["plan", "scenarios/assets.json", "--ops-per-sec", "nan"], "--ops-per-sec: must be a finite"),
        (["plan", "scenarios/assets.json", "--ops-per-sec", "inf"], "--ops-per-sec: must be a finite"),
    ],
    ids=[
        "single-branch",
        "zero-bits",
        "huge-bits",
        "too-many-branches",
        "negative-seed",
        "seed-2**64",
        "zero-ops",
        "nan-ops",
        "inf-ops",
    ],
)
def test_bad_arguments_exit_two(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# 399165290221 * 798330580441 and 1287836182261 * 2575672364521, which the
# primality test called prime.
@pytest.mark.parametrize("composite", [318665857834031151167461, 3317044064679887385961981])
def test_validate_rejects_a_field_prime_past_the_primality_bound(tmp_path, capsys, composite):
    sharing = {"id": "v", "n_locations": 3, "threshold_k": 2, "refresh_period_seconds": 5.0,
               "custodians": ["a", "b"], "field_prime": composite}
    p = tmp_path / "prime.json"
    p.write_text(json.dumps(
        {"duration_seconds": 10, "branches": [{"id": "a"}, {"id": "b"}], "sharing": [sharing]}
    ))
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().err == (
        f"error: sharing[0].field_prime: must be <= 318665857834031151167460, got {composite}\n"
    )


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
