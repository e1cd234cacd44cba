import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qsynapse import (
    ConfigError,
    FusionScenario,
    LifParams,
    NetworkTopology,
    NumericalDivergenceError,
    OperatorMatrix,
    RateProfile,
    SynapseCircuit,
    generate_poisson,
    load_config,
    merge_trains,
    run_fusion_demo,
    run_scenario,
    simulate_network,
)
from qsynapse.cli import main
from qsynapse.calibration import CalibrationReport
from qsynapse.harness import (
    FusionReport,
    WindowRecord,
    resolve_out_dir,
    run_quantum_windows,
    write_calibration_csv,
    write_fusion_csv,
    write_quantum_csv,
    write_trace_csv,
)
from qsynapse.lif import Trajectory, window_crossings
from qsynapse.scenario import QuantumRunConfig, parse_config


def base_config(**overrides) -> dict:
    cfg = {
        "simulation": {"dt_ms": 0.1, "t_end_ms": 100.0, "seed": 42},
        "topology": {"neuron_count": 1, "upstream_links": [[0]]},
        "spikes": {"profiles": [{"link": 0, "kind": "constant", "rate_per_ms": 0.05}]},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path: Path, cfg: dict, name: str = "scn.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_column(path: Path, column: str) -> list[str]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [row[column] for row in reader]


class TestConfigValidation:
    def test_unknown_root_field(self, tmp_path):
        cfg = base_config()
        cfg["simulatoin"] = {}
        with pytest.raises(ConfigError, match="unknown field: <root>.simulatoin"):
            load_config(write_config(tmp_path, cfg))

    def test_unknown_nested_field(self, tmp_path):
        cfg = base_config()
        cfg["simulation"]["dtms"] = 0.1
        with pytest.raises(ConfigError, match="unknown field: simulation.dtms"):
            load_config(write_config(tmp_path, cfg))

    def test_missing_required(self, tmp_path):
        cfg = base_config()
        del cfg["simulation"]["seed"]
        with pytest.raises(ConfigError, match="missing required field: simulation.seed"):
            load_config(write_config(tmp_path, cfg))

    def test_lif_invariants_fail_fast(self, tmp_path):
        cfg = base_config(lif={"v_thres": -80.0})
        with pytest.raises(ConfigError, match="v_thres"):
            load_config(write_config(tmp_path, cfg))

    def test_missing_referenced_file(self, tmp_path):
        cfg = base_config()
        cfg["quantum"] = {
            "enabled": True, "window_ms": 10.0, "shots": 100,
            "k_operator_path": "nope.txt", "mode": "bidirectional",
        }
        with pytest.raises(ConfigError, match="missing file"):
            load_config(write_config(tmp_path, cfg))

    def test_window_must_align_to_grid(self, tmp_path):
        cfg = base_config()
        cfg["quantum"] = {"enabled": True, "window_ms": 0.25, "shots": 10}
        with pytest.raises(ConfigError, match="whole number"):
            load_config(write_config(tmp_path, cfg))

    def test_profile_link_must_exist(self, tmp_path):
        cfg = base_config()
        cfg["spikes"]["profiles"][0]["link"] = 5
        with pytest.raises(ConfigError, match="not a known link"):
            load_config(write_config(tmp_path, cfg))

    def test_gate_pair_checked(self, tmp_path):
        cfg = base_config()
        cfg["topology"] = {"neuron_count": 2, "upstream_links": [[0], [1]]}
        cfg["spikes"]["profiles"].append({"link": 1, "kind": "constant", "rate_per_ms": 0.05})
        cfg["quantum"] = {"enabled": True, "window_ms": 10.0, "shots": 10, "gate_pair": [0, 5]}
        with pytest.raises(ConfigError, match="gate_pair"):
            load_config(write_config(tmp_path, cfg))

    def test_b_weights_complex_pairs(self, tmp_path):
        cfg = base_config()
        cfg["topology"] = {"neuron_count": 2, "upstream_links": [[0], [1]]}
        cfg["quantum"] = {
            "enabled": True, "window_ms": 10.0, "shots": 10,
            "b_weights": [[0.0, 1.0], 0.5],
        }
        parsed = load_config(write_config(tmp_path, cfg))
        assert parsed.quantum.circuit.b_weights[0] == 1j
        assert parsed.quantum.circuit.b_weights[1] == 0.5

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    @pytest.mark.parametrize("block, path", [
        ({"calibration": {"enabled": True, "window_ms": 0.25}}, "calibration.window_ms"),
        ({"fusion": {"sensors": [{"p": 0.5, "weight": 1.0}, {"p": 0.7, "weight": 1.0}],
                     "n_events": 10, "window_ms": 1.0, "dt_ms": 0.3}}, "fusion.window_ms"),
    ])
    def test_windows_must_be_whole_steps(self, tmp_path, block, path):
        with pytest.raises(ConfigError, match=rf"{path} \(.*\) must be a whole number"):
            load_config(write_config(tmp_path, base_config(**block)))

    def test_calibration_window_count_precondition(self, tmp_path):
        cfg = base_config()
        cfg["calibration"] = {"enabled": True, "window_ms": 50.0}
        with pytest.raises(ConfigError, match="100 windows"):
            load_config(write_config(tmp_path, cfg))

    def test_fusion_block(self, tmp_path):
        cfg = base_config()
        cfg["fusion"] = {
            "sensors": [{"p": 0.5, "weight": 1.0}, {"p": 0.7, "weight": 2.0}],
            "n_events": 100,
        }
        parsed = load_config(write_config(tmp_path, cfg))
        assert parsed.fusion.scenario.sensors == ((0.5, 1.0), (0.7, 2.0))
        assert len(parsed.fusion.scenario.event_truth) == 100


class TestRunScenario:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = base_config()
        cfg["topology"] = {"neuron_count": 2, "upstream_links": [[0], [1]],
                           "elec_pairs": [[0, 1, 0.02]]}
        cfg["spikes"]["profiles"].append({"link": 1, "kind": "constant", "rate_per_ms": 0.08})
        cfg["lif"] = {"spike_jump": 16.0}
        cfg["quantum"] = {"enabled": True, "window_ms": 5.0, "shots": 1000}
        path = write_config(tmp_path, cfg)
        config = load_config(path)
        a = run_scenario(config, out_dir=str(tmp_path / "a"), quiet=True)
        b = run_scenario(config, out_dir=str(tmp_path / "b"), quiet=True)
        for name in ("trace.csv", "quantum.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_spares_relaxation_columns(self, tmp_path):
        cfg = base_config()
        cfg["topology"] = {"neuron_count": 2, "upstream_links": [[], [0]]}
        cfg["spikes"] = {"profiles": [{"link": 0, "kind": "constant", "rate_per_ms": 0.3}]}
        cfg["lif"] = {"spike_jump": 16.0}
        config = load_config(write_config(tmp_path, cfg))
        a = run_scenario(config, out_dir=str(tmp_path / "a"), quiet=True)
        b = run_scenario(config, out_dir=str(tmp_path / "b"), seed_override=7, quiet=True)
        assert read_column(a / "trace.csv", "v_0") == read_column(b / "trace.csv", "v_0")
        assert read_column(a / "trace.csv", "v_1") != read_column(b / "trace.csv", "v_1")

    def test_divergence_leaves_partial_outputs_and_error_record(self, tmp_path):
        cfg = base_config()
        cfg["spikes"] = {"profiles": []}
        cfg["drive"] = {"constant": [-1e308]}
        config = load_config(write_config(tmp_path, cfg))
        out = tmp_path / "boom"
        with pytest.raises(NumericalDivergenceError):
            run_scenario(config, out_dir=str(out), quiet=True)
        assert (out / "error.txt").exists()
        assert "neuron 0" in (out / "error.txt").read_text()
        assert (out / "trace.csv").exists()

    def test_meta_records_config_hash_and_seed(self, tmp_path):
        config = load_config(write_config(tmp_path, base_config()))
        out = run_scenario(config, out_dir=str(tmp_path / "m"), seed_override=9, quiet=True)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config_sha256"] == config.sha256
        assert meta["master_seed"] == 9
        assert meta["v_thres_mv"] == -50.0

    def test_out_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("QSYNAPSE_OUT", str(tmp_path / "root"))
        assert resolve_out_dir("runs") == tmp_path / "root" / "runs"
        assert resolve_out_dir("runs", str(tmp_path / "x")) == tmp_path / "x"
        monkeypatch.delenv("QSYNAPSE_OUT")
        assert resolve_out_dir("runs") == Path("runs")


def make_trajectory(seed=5, t_end=200.0, dt=0.1):
    params = LifParams(spike_jump=16.0, v_init=-65.0)
    topo = NetworkTopology.build(2, [[0], [1]])
    trains = [
        generate_poisson(RateProfile.constant(0.08), t_end, seed, link) for link in range(2)
    ]
    return simulate_network(params, topo, merge_trains(trains), t_end, dt)


def make_qcfg(circuit, window_ms=5.0, shots=400, gate_pair=(0, 1)):
    return QuantumRunConfig(
        circuit=circuit,
        window_ms=window_ms,
        shots=shots,
        encode_neurons=(0, 1),
        potential_neuron=0,
        gate_pair=gate_pair,
        phases=None,
        tags=None,
        blocked_tags=(),
    )


class TestQuantumWindows:
    def test_every_window_normalized(self):
        traj = make_trajectory()
        records = run_quantum_windows(traj, make_qcfg(SynapseCircuit(2, 2)), 42)
        assert len(records) == 40
        for rec in records:
            if not rec.degenerate:
                norm = np.sqrt((np.abs(rec.down_amplitudes) ** 2).sum())
                assert abs(norm - 1.0) < 1e-10
                assert rec.counts.sum() == 400

    def test_degenerate_windows_flagged_until_first_crossing(self):
        params = LifParams()  # default jump never crosses threshold
        topo = NetworkTopology.build(2, [[0], [1]])
        traj = simulate_network(params, topo, [], 50.0, 0.1)
        records = run_quantum_windows(traj, make_qcfg(SynapseCircuit(2, 2)), 1)
        assert all(rec.degenerate for rec in records)
        assert all(rec.counts.sum() == 0 for rec in records)

    def test_running_mean_equals_prefix_means_bitwise(self):
        """The one-cumsum running frequency equals the per-window prefix mean it replaced."""
        traj = make_trajectory(seed=9, t_end=300.0)
        crossed = window_crossings(traj, 0.5)
        old = [crossed[: w + 1].mean(axis=0) for w in range(crossed.shape[0])]
        assert 0.0 < old[-1].min()
        records = run_quantum_windows(traj, make_qcfg(SynapseCircuit(2, 2), window_ms=0.5), 3)
        assert [r.prob_sum_up for r in records] == [float(p.sum()) for p in old]

    def test_bidirectional_zero_feedback_reduces_bitwise(self):
        traj = make_trajectory()
        uni = make_qcfg(SynapseCircuit(2, 2, mode="unidirectional"))
        zero_k = OperatorMatrix(np.zeros((2, 2), dtype=complex), kind="hermitian")
        bi = make_qcfg(
            SynapseCircuit(2, 2, mode="bidirectional", k_operator=zero_k,
                           b_weights=np.zeros(2))
        )
        rec_uni = run_quantum_windows(traj, uni, 42)
        rec_bi = run_quantum_windows(traj, bi, 42)
        assert len(rec_uni) == len(rec_bi)
        for a, b in zip(rec_uni, rec_bi):
            assert np.array_equal(a.down_amplitudes, b.down_amplitudes)
            assert np.array_equal(a.counts, b.counts)

    def test_nontrivial_feedback_changes_downstream(self):
        traj = make_trajectory()
        uni = make_qcfg(SynapseCircuit(2, 2, mode="unidirectional"))
        k = OperatorMatrix(0.5 * np.eye(2, dtype=complex), kind="hermitian")
        bi = make_qcfg(
            SynapseCircuit(2, 2, mode="bidirectional", k_operator=k,
                           b_weights=np.array([0.3, 0.3]))
        )
        rec_uni = run_quantum_windows(traj, uni, 42)
        rec_bi = run_quantum_windows(traj, bi, 42)
        diffs = [
            np.abs(a.down_amplitudes - b.down_amplitudes).max()
            for a, b in zip(rec_uni, rec_bi)
            if not a.degenerate
        ]
        assert max(diffs) > 1e-6

    def test_shutdown_links_zero_counts(self):
        traj = make_trajectory()
        qcfg = make_qcfg(SynapseCircuit(2, 2, shutdown_links=(1,)), shots=5000)
        records = run_quantum_windows(traj, qcfg, 42)
        for rec in records:
            if not rec.degenerate:
                assert rec.counts[1] == 0

    def test_tag_gating_inside_run(self):
        traj = make_trajectory()
        circuit = SynapseCircuit(2, 2)
        qcfg = QuantumRunConfig(
            circuit=circuit, window_ms=5.0, shots=2000,
            encode_neurons=(0, 1), potential_neuron=0, gate_pair=(0, 1),
            phases=None, tags=("excite", "inhibit"), blocked_tags=("inhibit",),
        )
        records = run_quantum_windows(traj, qcfg, 42)
        for rec in records:
            if not rec.degenerate:
                assert rec.counts[1] == 0
                assert rec.counts[0] == 2000


class TestFusionDemo:
    def test_identical_sensors_split_evenly(self):
        scenario = FusionScenario(
            sensors=((0.6, 1.0), (0.6, 1.0)),
            event_truth=(True,) * 800,
            rates=((1.2, 0.0), (1.2, 0.0)),
        )
        report = run_fusion_demo(scenario, SynapseCircuit(2, 2), 50_000, seed=3)
        assert not report.degenerate
        for v in report.fused:
            assert abs(v - 0.5) < 0.05
        assert report.reference == pytest.approx([0.5, 0.5])

    def test_zero_weight_sensor_vanishes(self):
        scenario = FusionScenario(
            sensors=((0.6, 1.0), (0.6, 0.0), (0.6, 1.0)),
            event_truth=(True,) * 400,
            rates=((1.2, 0.0),) * 3,
        )
        report = run_fusion_demo(scenario, SynapseCircuit(3, 3), 20_000, seed=4)
        assert report.fused[1] < 1e-6
        shut = run_fusion_demo(
            scenario, SynapseCircuit(3, 3, shutdown_links=(1,)), 20_000, seed=4
        )
        assert shut.fused[1] == 0.0

    def test_matches_reference_combiner(self):
        # (w * p) = (0.1, 0.2, 0.7) up to the common normalization
        scenario = FusionScenario(
            sensors=((0.2, 0.5), (0.4, 0.5), (0.7, 1.0)),
            event_truth=(True,) * 1500,
            rates=((1.2, 0.0),) * 3,
        )
        report = run_fusion_demo(scenario, SynapseCircuit(3, 3), 100_000, seed=5)
        assert report.reference == pytest.approx([0.1, 0.2, 0.7])
        assert report.tv_distance < 0.03

    def test_silent_sensors_degenerate(self):
        scenario = FusionScenario(
            sensors=((0.0, 1.0), (0.0, 1.0)),
            event_truth=(True,) * 50,
            rates=((1.2, 0.0), (1.2, 0.0)),
        )
        report = run_fusion_demo(scenario, SynapseCircuit(2, 2), 20_000, seed=6)
        assert report.degenerate

    def test_dimension_check(self):
        scenario = FusionScenario(
            sensors=((0.5, 1.0), (0.5, 1.0)),
            event_truth=(True,) * 10,
            rates=((1.2, 0.0), (1.2, 0.0)),
        )
        with pytest.raises(ValueError, match="sensor count"):
            run_fusion_demo(scenario, SynapseCircuit(3, 3), 100, seed=1)


class TestGoldenScenario:
    GOLDEN = Path(__file__).parent / "golden"

    def test_outputs_match_checked_in_golden_bytes(self, tmp_path):
        config = load_config(self.GOLDEN / "scenario.json")
        out = run_scenario(config, out_dir=str(tmp_path / "run"), quiet=True)
        for name in ("trace.csv", "quantum.csv", "calibration.csv"):
            assert (out / name).read_bytes() == (self.GOLDEN / name).read_bytes(), (
                f"{name} drifted from the golden reference; if the trace format "
                "changed intentionally, bump TRACE_FORMAT_VERSION and regenerate"
            )

    def test_feedback_circuit_matches_checked_in_golden_bytes(self, tmp_path):
        """K, coupling and b_weights: their products are summed in one fixed order, so these
        bytes are the same whichever SIMD, BLAS or libm kernels the host dispatches to.

        The scenario sets no gate_pair: the classically-controlled NOT cannot fire in a
        scenario run (the recorded potential never exceeds v_thres), so a gate here would
        look covered without ever swapping."""
        golden = self.GOLDEN / "feedback"
        out = run_scenario(load_config(golden / "scenario.json"), out_dir=str(tmp_path / "run"),
                           quiet=True)
        for name in ("quantum.csv", "calibration.csv"):
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name

    def test_fusion_matches_checked_in_golden_bytes(self, tmp_path):
        config = self.GOLDEN / "fusion_scenario.json"
        assert main(["fuse", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "fusion.csv").read_bytes() == (self.GOLDEN / "fusion.csv").read_bytes()

    def test_windows_count_integer_steps(self, tmp_path):
        """At dt 0.1 ms a 0.4 ms window holds steps 4w..4w+3.  Float times put 1632 of
        100000 step starts one window early, here the crossing at step 2912 in window 727."""
        raw = json.loads((self.GOLDEN / "scenario.json").read_text())
        raw["quantum"]["window_ms"] = 0.4
        raw["simulation"]["t_end_ms"] = 1200.0
        raw["output"] = {"emit_trace": False, "emit_calibration": False}
        out = run_scenario(parse_config(raw, self.GOLDEN), out_dir=str(tmp_path), seed_override=1,
                           quiet=True)
        assert read_column(out / "quantum.csv", "prob_sum_up")[727] == "0.059065934065934064"


class TestFileBackedCircuitInputs:
    def test_k_operator_and_coupling_loaded_from_files(self, tmp_path):
        from qsynapse.engine import save_operator_text

        k = OperatorMatrix(0.5 * np.eye(2, dtype=complex), kind="hermitian")
        save_operator_text(k, tmp_path / "k.txt")
        cfg = base_config()
        cfg["topology"] = {"neuron_count": 2, "upstream_links": [[0], [1]]}
        cfg["spikes"]["profiles"].append({"link": 1, "kind": "constant", "rate_per_ms": 0.08})
        cfg["lif"] = {"spike_jump": 16.0, "v_init": -65.0}
        cfg["quantum"] = {
            "enabled": True, "mode": "bidirectional", "window_ms": 5.0, "shots": 500,
            "k_operator_path": "k.txt", "k_operator_kind": "hermitian",
            "b_weights": [0.3, 0.3],
        }
        config = load_config(write_config(tmp_path, cfg))
        assert np.array_equal(config.quantum.circuit.k_operator.entries, k.entries)
        out = run_scenario(config, out_dir=str(tmp_path / "out"), quiet=True)
        assert (out / "quantum.csv").exists()

    def test_declared_kind_verified_on_load(self, tmp_path):
        from qsynapse.engine import save_operator_text

        not_unitary = OperatorMatrix(0.5 * np.eye(2, dtype=complex))
        save_operator_text(not_unitary, tmp_path / "k.txt")
        cfg = base_config()
        cfg["quantum"] = {
            "enabled": True, "mode": "bidirectional", "window_ms": 10.0, "shots": 10,
            "k_operator_path": "k.txt", "k_operator_kind": "unitary",
        }
        with pytest.raises(ConfigError, match="unitary"):
            load_config(write_config(tmp_path, cfg))

    def test_color_table_and_tags_from_files(self, tmp_path):
        (tmp_path / "table.txt").write_text(
            "neutral excite inhibit block\n"
            "neutral excite inhibit block\n"
            "excite excite block block\n"
            "inhibit block inhibit block\n"
            "block block block block\n"
        )
        cfg = base_config()
        cfg["topology"] = {"neuron_count": 2, "upstream_links": [[0], [1]]}
        cfg["spikes"]["profiles"].append({"link": 1, "kind": "constant", "rate_per_ms": 0.08})
        cfg["lif"] = {"spike_jump": 16.0, "v_init": -65.0}
        cfg["quantum"] = {
            "enabled": True, "window_ms": 5.0, "shots": 1000,
            "color_table_path": "table.txt",
            "tags": ["excite", "inhibit"], "blocked_tags": ["inhibit"],
        }
        config = load_config(write_config(tmp_path, cfg))
        out = run_scenario(config, out_dir=str(tmp_path / "out"), quiet=True)
        rows = list(csv.DictReader(open(out / "quantum.csv")))
        active = [r for r in rows if r["degenerate"] == "0"]
        assert active
        assert all(r["count_1"] == "0" for r in active)

    def test_unknown_tag_rejected_against_table(self, tmp_path):
        (tmp_path / "table.txt").write_text("e\ne\n")
        cfg = base_config()
        cfg["quantum"] = {
            "enabled": True, "window_ms": 10.0, "shots": 10,
            "color_table_path": "table.txt", "tags": ["purple"],
        }
        with pytest.raises(ConfigError, match="purple"):
            load_config(write_config(tmp_path, cfg))


class TestMinimalScenarioOracle:
    def test_trace_column_is_pure_relaxation(self, tmp_path):
        cfg = {
            "simulation": {"dt_ms": 0.1, "t_end_ms": 10.0, "seed": 1},
            "topology": {"neuron_count": 1, "upstream_links": [[]]},
        }
        config = load_config(write_config(tmp_path, cfg))
        out = run_scenario(config, out_dir=str(tmp_path / "run"), quiet=True)
        rows = list(csv.DictReader(open(out / "trace.csv")))
        p = config.params
        for row in rows:
            t = float(row["t_ms"])
            expected = p.v_rest + (p.v_init - p.v_rest) * math.exp(-t * p.g_leak / p.cm)
            assert abs(float(row["v_0"]) - expected) < 1e-8


class TestCsvWriterBytes:
    """The writers emit exactly what csv.writer does with repr(float(x)) cells."""

    ODD = [-0.0, 5e-324, 1e-05, 1e16, math.nan, math.inf, -math.inf, 0.1 + 0.2, -65.0]

    @staticmethod
    def reference(path: Path, header, rows) -> bytes:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return path.read_bytes()

    @pytest.mark.parametrize("upstream", [[[0], [1, 2], []], [[], [], []]])
    def test_trace_csv(self, tmp_path, upstream):
        topo = NetworkTopology.build(3, upstream)
        m = topo.n_links
        vals = np.array(self.ODD * 4)
        traj = Trajectory(
            dt_ms=0.1,
            times=np.arange(5) * 0.1,
            v=vals[:15].reshape(5, 3),
            gs=vals[15:15 + 5 * m].reshape(5, m),
            spike_steps=np.array([1, 2, 2]),
            spike_neurons=np.array([0, 2, 2]),
            params=LifParams(),
            topology=topo,
        )
        header = (["t_ms"] + [f"v_{i}" for i in range(3)] + [f"gs_{l}" for l in range(m)]
                  + [f"spike_{i}" for i in range(3)])
        ind = np.zeros((5, 3), dtype=int)
        np.add.at(ind, (traj.spike_steps, traj.spike_neurons), 1)
        rows = [[repr(float(traj.times[r]))] + [repr(float(x)) for x in traj.v[r]]
                + [repr(float(x)) for x in traj.gs[r]] + [str(int(x)) for x in ind[r]]
                for r in range(5)]
        write_trace_csv(traj, tmp_path / "trace.csv")
        got = (tmp_path / "trace.csv").read_bytes()
        assert got == self.reference(tmp_path / "ref.csv", header, rows)
        assert got.count(b"\r\n") == 6
        assert (b"gs_" in got.splitlines()[0]) == bool(m)

    def test_quantum_csv(self, tmp_path):
        recs = [
            WindowRecord(0, 0.0, 0.0, True, np.zeros(2), np.full(3, 1 / 3),
                         np.zeros(3, dtype=int), np.zeros(3, dtype=complex)),
            WindowRecord(1, 1.2000000000000002, 1e16, False, np.array(self.ODD[:2]),
                         np.array(self.ODD[2:5]), np.array([0, 7, 1993]), np.zeros(3, dtype=complex)),
            WindowRecord(2, 2.4, 5e-324, False, np.array(self.ODD[5:7]),
                         np.array(self.ODD[6:9]), np.array([2000, 0, 0]), np.zeros(3, dtype=complex)),
        ]
        header = (["window", "t_start_ms", "prob_sum_up", "degenerate"]
                  + [f"a_sq_{k}" for k in range(2)] + [f"b_sq_{l}" for l in range(3)]
                  + [f"count_{l}" for l in range(3)])
        rows = [[str(r.index), repr(float(r.t_start_ms)), repr(float(r.prob_sum_up)),
                 str(int(r.degenerate))] + [repr(float(x)) for x in r.up_probs]
                + [repr(float(x)) for x in r.down_probs] + [str(int(c)) for c in r.counts]
                for r in recs]
        write_quantum_csv(recs, 2, 3, tmp_path / "quantum.csv")
        got = (tmp_path / "quantum.csv").read_bytes()
        assert got == self.reference(tmp_path / "ref.csv", header, rows)
        assert got.splitlines()[1] == b"0,0.0,0.0,1,0.0,0.0," + b",".join([repr(1 / 3).encode()] * 3) + b",0,0,0"

    def test_key_value_csv(self, tmp_path):
        calibration = CalibrationReport(
            classical_probs=np.zeros(2), quantum_freqs=np.zeros(2), tv_distance=1.0,
            ks_stat=1.0, windows=120, shots=10_000, epsilon=1, passed=False,
            degenerate=True, seeds=(np.int64(3), np.uint64(2**64 - 1)),
        )
        cal_rows = [["classical_p_0", "0.0"], ["classical_p_1", "0.0"],
                    ["quantum_freq_0", "0.0"], ["quantum_freq_1", "0.0"],
                    ["tv_distance", "1.0"], ["ks_statistic", "1.0"], ["windows", "120"],
                    ["shots", "10000"], ["epsilon", "1.0"], ["seed_classical", "3"],
                    ["seed_quantum", str(2**64 - 1)], ["degenerate", "1"], ["passed", "0"]]
        fusion = FusionReport(
            fused=np.zeros(3), reference=np.zeros(3), tv_distance=1,
            crossing_estimates=np.array(self.ODD[:3]), weighted=np.zeros(3),
            windows=np.int64(50), shots=20_000, degenerate=True,
        )
        fus_rows = ([[f"fused_{k}", "0.0"] for k in range(3)]
                    + [[f"reference_{k}", "0.0"] for k in range(3)]
                    + [[f"crossing_estimate_{k}", repr(float(x))]
                       for k, x in enumerate(self.ODD[:3])]
                    + [["tv_distance", "1.0"], ["windows", "50"], ["shots", "20000"],
                       ["degenerate", "1"]])
        for write, report, rows in ((write_calibration_csv, calibration, cal_rows),
                                    (write_fusion_csv, fusion, fus_rows)):
            write(report, tmp_path / "kv.csv")
            got = (tmp_path / "kv.csv").read_bytes()
            assert got == self.reference(tmp_path / "ref.csv", ["key", "value"], rows)


def test_looked_up_names_resolve():
    """perfbench/spans.py wraps the functions in its TARGETS by module and name, and
    ``qsynapse.__all__`` is the package's exported surface; both must name real objects."""
    import importlib
    import importlib.util

    import qsynapse

    path = Path(__file__).parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for mod_name, attr, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)
    for name in qsynapse.__all__:
        assert hasattr(qsynapse, name), name
