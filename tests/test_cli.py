import gc
import json
from pathlib import Path

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
