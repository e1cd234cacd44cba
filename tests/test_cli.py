import gc
import json
import math
import shutil
from pathlib import Path

import pytest

from qsynapse import __version__
from qsynapse.cli import main


def write_config(tmp_path: Path, cfg: dict, name: str = "scn.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def good_config(tmp_path: Path, **extra) -> Path:
    cfg = {
        "simulation": {"dt_ms": 0.1, "t_end_ms": 50.0, "seed": 4},
        "topology": {"neuron_count": 1, "upstream_links": [[0]]},
        "spikes": {"profiles": [{"link": 0, "kind": "constant", "rate_per_ms": 0.05}]},
        "output": {"dir": str(tmp_path / "runs")},
    }
    cfg.update(extra)
    return write_config(tmp_path, cfg)


def test_validate_exits_zero_and_writes_nothing(tmp_path, capsys):
    path = good_config(tmp_path)
    assert main(["validate", "--config", str(path)]) == 0
    assert "ok" in capsys.readouterr().out
    assert not (tmp_path / "runs").exists()


def test_validate_unknown_field_names_it(tmp_path, capsys):
    cfg = {
        "simulation": {"dt_ms": 0.1, "t_end_ms": 50.0, "seed": 4, "dtms": 1},
        "topology": {"neuron_count": 1, "upstream_links": [[]]},
    }
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 1
    assert "simulation.dtms" in capsys.readouterr().err


def test_validate_rejects_negative_delta_g(tmp_path, capsys):
    path = good_config(tmp_path, lif={"delta_g": -0.05})
    assert main(["validate", "--config", str(path)]) == 1
    assert "lif: delta_g must be >= 0, got -0.05" in capsys.readouterr().err


def test_missing_config_flag_is_usage_error(capsys):
    assert main(["simulate"]) == 1


def test_unknown_command_is_usage_error():
    assert main(["explode"]) == 1


def test_simulate_deterministic_across_invocations(tmp_path):
    path = good_config(tmp_path)
    assert main(["simulate", "--config", str(path), "--seed", "7",
                 "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert main(["simulate", "--config", str(path), "--seed", "7",
                 "--out", str(tmp_path / "b"), "--quiet"]) == 0
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()


def test_runs_leave_no_cyclic_garbage(tmp_path):
    """Each in-process run is freed by reference counting alone.

    Reference cycles wait for the cyclic collector, so a caller that runs
    many ops in one process would see its memory rise and fall with the
    collector's schedule instead of staying flat from op to op.
    """
    path = good_config(
        tmp_path,
        topology={"neuron_count": 2, "upstream_links": [[0], [1]]},
        spikes={"profiles": [{"link": 0, "kind": "constant", "rate_per_ms": 0.2},
                             {"link": 1, "kind": "constant", "rate_per_ms": 0.2}]},
        lif={"spike_jump": 16.0},
        quantum={"enabled": True, "window_ms": 5.0, "shots": 100},
        calibration={"enabled": True, "window_ms": 0.5, "shots": 10000},
        fusion=_fusion_block([]),
    )
    runs = [["simulate", "--config", str(path), "--out", str(tmp_path / "s"), "--quiet"],
            ["fuse", "--config", str(path), "--out", str(tmp_path / "f"), "--quiet"]]
    for argv in runs:
        assert main(argv) in (0, 2)  # the first call fills one-time caches
    gc.collect()
    gc.disable()
    try:
        for argv in runs:
            assert main(argv) in (0, 2)
            assert gc.collect() == 0, argv[0]
    finally:
        gc.enable()


def test_calibrate_requires_calibration_block(tmp_path, capsys):
    path = good_config(tmp_path)
    assert main(["calibrate", "--config", str(path)]) == 1
    assert "calibration" in capsys.readouterr().err


def test_calibrate_runs_with_block(tmp_path):
    path = good_config(
        tmp_path,
        simulation={"dt_ms": 0.1, "t_end_ms": 300.0, "seed": 4},
        lif={"spike_jump": 16.0},
        spikes={"profiles": [{"link": 0, "kind": "constant", "rate_per_ms": 0.1}]},
        calibration={"enabled": True, "window_ms": 3.0, "shots": 10000},
    )
    out = tmp_path / "cal"
    assert main(["calibrate", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    assert (out / "calibration.csv").exists()


def test_fuse_writes_report(tmp_path, capsys):
    path = good_config(
        tmp_path,
        fusion={
            "sensors": [{"p": 0.5, "weight": 1.0}, {"p": 0.8, "weight": 1.0}],
            "n_events": 200,
            "shots": 20000,
        },
    )
    out = tmp_path / "fused"
    assert main(["fuse", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "fusion.csv").exists()
    assert "tv=" in capsys.readouterr().out


def test_fuse_without_block_is_config_error(tmp_path, capsys):
    path = good_config(tmp_path)
    assert main(["fuse", "--config", str(path)]) == 1


def test_runtime_error_exit_code(tmp_path):
    path = good_config(
        tmp_path,
        spikes={"profiles": []},
        drive={"constant": [-1e308]},
    )
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x"),
                 "--quiet"]) == 2


def test_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def _fusion_block(shutdown_links):
    return {
        "sensors": [{"p": 0.5, "weight": 1.0}, {"p": 0.6, "weight": 1.0},
                    {"p": 0.7, "weight": 1.0}],
        "n_events": 20,
        "shutdown_links": shutdown_links,
    }


def test_validate_rejects_fusion_shutdowns_that_fuse_cannot_run(tmp_path, capsys):
    for links, reason in (([5], "out of range"), ([0, 1, 2], "every downstream link")):
        path = good_config(tmp_path, fusion=_fusion_block(links))
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "fusion: shutdown_links" in err and reason in err
        assert main(["fuse", "--config", str(path), "--out", str(tmp_path / "f")]) == 1


def test_validate_rejects_quantum_shutdown_of_every_link(tmp_path, capsys):
    path = good_config(
        tmp_path,
        topology={"neuron_count": 2, "upstream_links": [[0], [1]]},
        quantum={"enabled": True, "window_ms": 5.0, "shots": 10, "shutdown_links": [1, 0]},
    )
    assert main(["validate", "--config", str(path)]) == 1
    assert "quantum: shutdown_links [1, 0] cover every downstream link" in capsys.readouterr().err


def test_validate_rejects_durations_that_are_not_whole_steps(tmp_path, capsys):
    """t_end_ms 1.05 at dt_ms 0.1 would simulate 1.0 ms and drop later spikes; a fusion
    settle of 0.25, 0.35 or 0.05 ms would run 2, 3 or 1 settle steps of 0.1 ms."""
    path = good_config(tmp_path, simulation={"dt_ms": 0.1, "t_end_ms": 1.05, "seed": 4})
    assert main(["validate", "--config", str(path)]) == 1
    assert "simulation.t_end_ms (1.05) must be a whole number" in capsys.readouterr().err
    for settle_ms in (0.25, 0.35, 0.05):
        path = good_config(tmp_path, fusion=dict(_fusion_block([]), settle_ms=settle_ms))
        assert main(["validate", "--config", str(path)]) == 1
        assert f"fusion.settle_ms ({settle_ms}) must be a whole number" in capsys.readouterr().err
    path = good_config(tmp_path, fusion=dict(_fusion_block([]), settle_ms=0.3))
    assert main(["validate", "--config", str(path), "--quiet"]) == 0


GOLDEN = Path(__file__).parent / "golden"


def test_validate_rejects_non_finite_numbers(tmp_path, capsys):
    """NaN passed every ``>= tol`` check: a K entry of nan,0.0 or ``"drive_scale": NaN``
    (Python's json reads the literal) ran with nan amplitudes and all shots on link 0."""
    feedback = tmp_path / "feedback"
    shutil.copytree(GOLDEN / "feedback", feedback)
    k_path = feedback / "k_operator.txt"
    lines = k_path.read_text().splitlines()
    cells = lines[1].split()
    lines[1] = " ".join(["nan,0.0"] + cells[1:])
    k_path.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--config", str(feedback / "scenario.json")]) == 1
    assert "quantum.k_operator_path" in capsys.readouterr().err

    raw = json.loads((GOLDEN / "feedback" / "scenario.json").read_text())
    raw["quantum"]["drive_scale"] = float("nan")
    shutil.copy(GOLDEN / "feedback" / "k_operator.txt", tmp_path)
    shutil.copy(GOLDEN / "feedback" / "coupling.txt", tmp_path)
    path = write_config(tmp_path, raw)
    assert "NaN" in path.read_text()
    assert main(["validate", "--config", str(path)]) == 1
    assert "quantum.drive_scale must be finite" in capsys.readouterr().err
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 1

    path = good_config(tmp_path, drive={"constant": [float("inf")]})
    assert main(["validate", "--config", str(path)]) == 1
    assert "drive.constant[0] must be finite" in capsys.readouterr().err


def _segment(segment):
    return {"spikes": {"profiles": [
        {"link": 0, "kind": "modulated", "rate_per_ms": 0.1, "segments": [segment]}]}}


@pytest.mark.parametrize("block, message", [
    pytest.param(_segment([0.0, 10.0, math.inf]),
                 "spikes.profiles[0].segments[0][2] must be finite", id="segment-rate-inf"),
    pytest.param(_segment([0.0, math.nan, 0.2]),
                 "spikes.profiles[0].segments[0][1] must be finite", id="segment-end-nan"),
    pytest.param(_segment([0.0, 10.0, math.nan]),
                 "spikes.profiles[0].segments[0][2] must be finite", id="segment-rate-nan"),
    pytest.param(_segment([0.0, 10.0, True]),
                 "spikes.profiles[0].segments[0][2] must be a number", id="segment-rate-bool"),
    pytest.param(_segment([0.0, 10.0]), "config error: spikes.profiles[0].segments must be a list",
                 id="segment-pair"),
    pytest.param(_segment(5), "config error: spikes.profiles[0].segments must be a list",
                 id="segment-number"),
    pytest.param(_segment([10.0, 10.0, 0.1]), "spikes.profiles[0]: segment [10.0, 10.0) must be",
                 id="segment-empty"),
    pytest.param({"lif": {"v_thres": math.nan}}, "lif.v_thres must be finite", id="lif-v-thres-nan"),
    pytest.param({"lif": {"cm": math.nan}}, "lif.cm must be finite", id="lif-cm-nan"),
    pytest.param({"lif": {"spike_jump": math.inf}}, "lif.spike_jump must be finite",
                 id="lif-spike-jump-inf"),
    pytest.param({"lif": {"literal_multilink_leak": 1}},
                 "lif.literal_multilink_leak must be true or false", id="lif-flag-not-bool"),
    pytest.param({"topology": {"neuron_count": 2, "upstream_links": [[0], []],
                               "elec_pairs": [[0, 1, math.nan]]}},
                 "topology.elec_pairs[0][2] must be finite", id="gap-conductance-nan"),
])
def test_validate_rejects_non_finite_rates_lif_and_gap_numbers(tmp_path, capsys, block, message):
    """These numbers bypassed the finite check: an inf segment rate made the spike draw loop
    forever, a NaN threshold ran with no crossing at all.  Malformed segments raised a
    TypeError in place of a config error."""
    path = good_config(tmp_path, **block)
    assert main(["validate", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("block, message", [
    pytest.param({"lif": 5}, "config error: lif must be an object", id="lif-number"),
    pytest.param({"spikes": {"profiles": [7]}}, "config error: spikes.profiles[0] must be an object",
                 id="profile-number"),
    pytest.param({"quantum": "yes"}, "config error: quantum must be an object", id="quantum-string"),
])
def test_validate_rejects_blocks_that_are_not_objects(tmp_path, capsys, block, message):
    """A number ended in a TypeError traceback, and a string block was read key by key
    (``quantum: "yes"`` reported an unknown field ``quantum.e``)."""
    path = good_config(tmp_path, **block)
    assert main(["validate", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err


def _two_neurons(quantum=None, **extra):
    block = {"topology": {"neuron_count": 2, "upstream_links": [[0], [1]]}, **extra}
    if quantum is not None:
        block["quantum"] = {"enabled": True, "window_ms": 5.0, "shots": 10, **quantum}
    return block


@pytest.mark.parametrize("block, field", [
    pytest.param({"spikes": {"profiles": 7}}, "spikes.profiles", id="profiles"),
    pytest.param({"topology": {"neuron_count": 1, "upstream_links": [[0]], "elec_pairs": 3}},
                 "topology.elec_pairs", id="elec-pairs"),
    pytest.param(_two_neurons({"encode_neurons": 5}), "quantum.encode_neurons",
                 id="encode-neurons"),
    pytest.param(_two_neurons({"phases": 0.5}), "quantum.phases", id="phases"),
    pytest.param(_two_neurons({"b_weights": 1.0}), "quantum.b_weights", id="b-weights"),
    pytest.param(_two_neurons({"shutdown_links": 1}), "quantum.shutdown_links",
                 id="quantum-shutdown-links"),
    pytest.param(_two_neurons({"tags": "ab", "down_dim": 2}), "quantum.tags", id="tags-string"),
    pytest.param(_two_neurons({"tags": ["neutral", "block"], "blocked_tags": "block"}),
                 "quantum.blocked_tags", id="blocked-tags-string"),
    pytest.param(_two_neurons(calibration={"enabled": True, "window_ms": 0.3, "link_neurons": 0}),
                 "calibration.link_neurons", id="link-neurons"),
    pytest.param({"fusion": dict(_fusion_block([]), sensors=5)}, "fusion.sensors", id="sensors"),
    pytest.param({"fusion": {"sensors": _fusion_block([])["sensors"], "events": 1}},
                 "fusion.events", id="events"),
    pytest.param({"fusion": _fusion_block(2)}, "fusion.shutdown_links",
                 id="fusion-shutdown-links"),
])
def test_validate_rejects_list_fields_that_are_not_lists(tmp_path, capsys, block, field):
    """A number ended in a TypeError traceback, and a string was read as a list of its
    characters (``"tags": "ab"`` validated as the tags a and b)."""
    path = good_config(tmp_path, **block)
    assert main(["validate", "--config", str(path)]) == 1
    assert f"config error: {field} must be a list" in capsys.readouterr().err


def test_calibration_window_count_is_in_whole_steps(tmp_path, capsys):
    """0.3 ms windows at dt 0.1: 29.7 ms holds 99 of them, one short of the minimum."""
    for t_end_ms, code in ((29.7, 1), (30.0, 0)):
        path = good_config(
            tmp_path,
            simulation={"dt_ms": 0.1, "t_end_ms": t_end_ms, "seed": 4},
            calibration={"enabled": True, "window_ms": 0.3, "shots": 10_000},
        )
        assert main(["validate", "--config", str(path), "--quiet"]) == code, t_end_ms
    assert "calibration needs at least 100 windows" in capsys.readouterr().err


def test_fuse_honours_the_lif_block(tmp_path):
    """The lif block is laid over fusion's defaults (spike_jump 20, v_init -65)."""
    raw = json.loads((GOLDEN / "fusion_scenario.json").read_text())
    raw["lif"] = {"spike_jump": 1.0, "v_thres": -40.0}
    path = write_config(tmp_path, raw)
    assert main(["fuse", "--config", str(path), "--out", str(tmp_path / "f"), "--quiet"]) == 0
    assert (tmp_path / "f" / "fusion.csv").read_bytes() != (GOLDEN / "fusion.csv").read_bytes()
    raw["lif"] = {"spike_jump": 20.0, "v_init": -65.0}
    path = write_config(tmp_path, raw)
    assert main(["fuse", "--config", str(path), "--out", str(tmp_path / "g"), "--quiet"]) == 0
    assert (tmp_path / "g" / "fusion.csv").read_bytes() == (GOLDEN / "fusion.csv").read_bytes()
