"""qsynapse benchmark: one workload per call, a closed loop of CLI ops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

One op is one in-process ``qsynapse.cli.main`` call on its own seed.  Ops
run one after another in this process and thread until ``--seconds`` have
passed and at least ``MIN_OPS`` ops are done.  Every op's artifacts are
checked by ``checks.py`` in a forked child, outside the timed interval, so
the checks neither count in op time nor raise this process's peak RSS.
An op that raises, or exits nonzero, counts as a failed op.

A shared host can slow down in bursts of seconds to minutes.  A fixed numpy
probe loop is timed before every op; each op's wall time is multiplied by
``PROBE_REF_S`` over the mean of the probes on either side of it.  Raw wall
figures are printed on stderr beside the normalized ones.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  See README.md.
"""

from __future__ import annotations

import os

# one thread: set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / "perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100
TAIL_PCT = 90            # 10 ops lie beyond p90 when MIN_OPS = 100
SETUP_REPS = 7
PROBE_ITERS = 8000
PROBE_REF_S = 0.030      # probe time that normalized op figures are scaled to
SETUP_PROBE_REF_S = 0.150    # numpy-import interpreter time that setup_s is scaled to
SELFTEST_OPS = {"synapse_bidir": 3, "fusion_seeds": 10, "gap_network": 3}
UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "sim_ms_per_s": "ms/s"}


def probe() -> float:
    """Fixed interpreter-bound work over small arrays, like the program's loops."""
    x = np.linspace(0.0, 1.0, 8)
    t0 = perf_counter()
    for i in range(PROBE_ITERS):
        y = x * 0.999 + 0.001 * i
        x = np.minimum(y, 1.0) - float(y.sum()) * 1e-3
    return perf_counter() - t0


def import_program():
    """Import qsynapse from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import qsynapse.cli
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import qsynapse from {SRC}: {err}")
    if Path(qsynapse.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: qsynapse imported from {qsynapse.cli.__file__}")
    return qsynapse.cli


def in_child(fn, *args) -> list[str]:
    """Run ``fn(*args) -> list[str]`` in a forked child and return its list."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            result = fn(*args)
        except Exception as err:  # noqa: BLE001 - any crash is a failed check
            result = [f"check raised {err!r}"]
        os.write(w, json.dumps(result).encode())
        os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return json.loads(data) if data else ["check process died"]


def check_op(wl: workloads.Workload, seed: int, out: Path) -> list[str]:
    if wl.command == "fuse":
        return checks.check_fuse(wl.scenario, seed, out)
    return checks.check_simulate(wl.scenario, seed, out, wl.config.parent)


def csv_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def measure_setup(wl: workloads.Workload) -> tuple[list[float], list[float]]:
    """Fresh interpreters running ``qsynapse validate`` on the workload's scenario.

    Each is bracketed by a fresh interpreter that only imports numpy: that
    probe slows down with the host the way interpreter start-up does, which
    the in-process probe does not.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "qsynapse.cli", "validate", "--config", str(wl.config),
           "--quiet"]
    bare = [sys.executable, "-c", "import numpy"]

    def timed(argv) -> float:
        t0 = perf_counter()
        rc = subprocess.run(argv, env=env).returncode
        if rc != 0:
            raise RuntimeError(f"set-up: {' '.join(argv[1:])} exited with code {rc}")
        return perf_counter() - t0

    timed(cmd)    # warm the page cache once
    raw, probes = [], [timed(bare)]
    for _ in range(SETUP_REPS):
        raw.append(timed(cmd))
        probes.append(timed(bare))
    return raw, probes


def normalized(raw: list[float], probes: list[float], ref: float = PROBE_REF_S) -> list[float]:
    """raw[k] scaled by ``ref`` over the mean of probes k and k+1."""
    return [t * ref / (0.5 * (probes[k] + probes[k + 1])) for k, t in enumerate(raw)]


def tail(values: list[float]) -> float:
    """Nearest-rank TAIL_PCT percentile."""
    s = sorted(values)
    return s[math.ceil(TAIL_PCT / 100 * len(s)) - 1]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, cli, wl: workloads.Workload, seed: int, work: Path):
        self.cli, self.wl, self.seed, self.work = cli, wl, seed, work
        self.raw: list[float] = []
        self.probes: list[float] = []
        self.ok: list[bool] = []
        self.traced: list[bool] = []
        self.tvs: list[float] = []
        self.problems: list[str] = []

    def one_op(self, index: int, tracer: spans.Tracer | None) -> None:
        seed = workloads.op_seed(self.seed, index)
        out = self.work / f"op{index}"
        argv = workloads.op_argv(self.wl, seed, out)
        t0 = perf_counter()
        try:
            rc = self.cli.main(argv) if tracer is None else tracer.call(index, self.cli.main, argv)
            problems = [] if rc == 0 else [f"exit code {rc}"]
        except (Exception, SystemExit) as err:  # noqa: BLE001 - a crash is a failed op
            problems = [f"raised {err!r}"]
        self.raw.append(perf_counter() - t0)
        self.traced.append(tracer is not None)
        if not problems:
            problems = in_child(check_op, self.wl, seed, out)
        if not problems and self.wl.command == "fuse":
            self.tvs.append(checks.read_tv(out))
        self.ok.append(not problems)
        self.problems += [f"op {index} (seed {seed}): {p}" for p in problems]
        if index > 0:
            shutil.rmtree(out, ignore_errors=True)

    def loop(self, seconds: float, tracer: spans.Tracer | None = None, min_ops: int = MIN_OPS):
        """Closed loop; with a tracer, even-numbered ops are traced."""
        self.probes.append(probe())
        t_start = perf_counter()
        index = 0
        while index < min_ops or perf_counter() - t_start < seconds:
            use = tracer if tracer is not None and index % 2 == 0 else None
            if use is not None:
                tracer.install()
            try:
                self.one_op(index, use)
            finally:
                if use is not None:
                    tracer.uninstall()
            self.probes.append(probe())
            index += 1

    def verify(self) -> list[str]:
        """Run-level checks: byte-identical rerun of op 0, fusion TV sweep."""
        problems = []
        again = self.work / "op0-again"
        argv = workloads.op_argv(self.wl, workloads.op_seed(self.seed, 0), again)
        try:
            same = self.cli.main(argv) == 0 and csv_bytes(self.work / "op0") == csv_bytes(again)
        except (Exception, SystemExit):  # noqa: BLE001 - a crash fails the rerun
            same = False
        if not same:
            problems.append("rerun of op 0 is not byte-identical")
        if self.wl.command == "fuse":
            sweep = checks.check_tv_sweep(self.tvs) if len(self.tvs) > 1 else "no fusion op passed"
            if sweep:
                problems.append(sweep)
        self.problems += problems
        return problems


def metric(value: float | None, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup, rss_mb: float) -> tuple[dict, dict]:
    """Metrics over the ops that passed; a timing reads null when none did.

    ``setup`` is (raw times, probes) from ``measure_setup``, or None when
    set-up failed.
    """
    norm = normalized(run.raw, run.probes)
    good = [t for t, ok in zip(norm, run.ok) if ok]
    good_raw = [t for t, ok in zip(run.raw, run.ok) if ok]

    def timings(ops: list[float], setup_times: list[float] | None) -> dict:
        return {
            "setup_s": statistics.median(setup_times) if setup_times else None,
            "op_s_p50": statistics.median(ops) if ops else None,
            "op_s_tail": tail(ops) if ops else None,
            "sim_ms_per_s": run.wl.sim_ms * len(ops) / sum(ops) if ops else None,
        }

    steady = timings(good, None if setup is None else
                     normalized(*setup, SETUP_PROBE_REF_S))
    metrics = {name: metric(value, UNITS[name]) for name, value in steady.items()}
    metrics["peak_rss_mb"] = metric(rss_mb, "MB")
    raw = timings(good_raw, None if setup is None else setup[0])
    raw.update(probe_s_p50=statistics.median(run.probes),
               setup_probe_s_p50=None if setup is None else statistics.median(setup[1]),
               ops=len(run.raw), tail_pct=TAIL_PCT)
    return metrics, raw


def per_layer(run: Run, tracer: spans.Tracer) -> dict:
    norm = normalized(run.raw, run.probes)
    traced = [t for t, tr, ok in zip(norm, run.traced, run.ok) if tr and ok]
    plain = [t for t, tr, ok in zip(norm, run.traced, run.ok) if not tr and ok]
    traced_ops = {i for i, (tr, ok) in enumerate(zip(run.traced, run.ok)) if tr and ok}
    scale = {i: norm[i] / run.raw[i] for i in traced_ops}
    n = max(len(traced_ops), 1)     # no traced op passed: every layer reads 0
    sec: dict[str, float] = {}
    cnt: dict[str, float] = {}
    for span, self_s in zip(tracer.spans, spans.self_times(tracer.spans)):
        if span["op"] not in traced_ops:
            continue
        sec[span["layer"]] = sec.get(span["layer"], 0.0) + self_s * scale[span["op"]] / n
        c = span["count"]
        for key, val in (c.items() if isinstance(c, dict) else [(span["layer"], c)]):
            if val is not None:
                cnt[key] = cnt.get(key, 0.0) + val / n

    def s(layer):
        return sec.get(layer, 0.0)

    def ratio(num, den, factor):
        return num / den * factor if den else 0.0

    op_s = sum(sec.values())
    glue = s("cli.self") + s("harness.self")
    csv_bytes_op = cnt.get("harness.csv", 0.0)
    return {
        "scenario.load_s": metric(s("scenario.load"), "s"),
        "spikes.generate_s": metric(s("spikes.generate"), "s"),
        "spikes.merge_s": metric(s("spikes.merge"), "s"),
        "spikes.us_per_spike": metric(
            ratio(s("spikes.generate"), cnt.get("spikes.generate", 0.0), 1e6), "us"),
        "spikes.count": metric(cnt.get("spikes.generate", 0.0), "count"),
        "lif.simulate_s": metric(s("lif.simulate"), "s"),
        "lif.us_per_neuron_step": metric(
            ratio(s("lif.simulate"), cnt.get("neuron_steps", 0.0), 1e6), "us"),
        "lif.neuron_steps": metric(cnt.get("neuron_steps", 0.0), "count"),
        "lif.crossings": metric(cnt.get("crossings", 0.0), "count"),
        "lif.readout_s": metric(s("lif.readout"), "s"),
        "synapse.windows_s": metric(s("synapse.windows"), "s"),
        "synapse.us_per_circuit_step": metric(
            ratio(s("synapse.windows"), cnt.get("circuit_steps", 0.0), 1e6), "us"),
        "synapse.circuit_steps": metric(cnt.get("circuit_steps", 0.0), "count"),
        "synapse.degenerate_windows": metric(cnt.get("degenerate_windows", 0.0), "count"),
        "synapse.settle_s": metric(s("synapse.settle"), "s"),
        "engine.measure_s": metric(s("engine.measure"), "s"),
        "engine.ns_per_shot": metric(
            ratio(s("engine.measure"), cnt.get("engine.measure", 0.0), 1e9), "ns"),
        "engine.shots": metric(cnt.get("engine.measure", 0.0), "count"),
        "calibration.calibrate_s": metric(s("calibration.calibrate"), "s"),
        "harness.csv_s": metric(s("harness.csv"), "s"),
        "harness.csv_bytes": metric(csv_bytes_op, "count"),
        "harness.csv_mb_per_s": metric(ratio(csv_bytes_op / 1e6, s("harness.csv"), 1.0), "MB/s"),
        "harness.self_s": metric(s("harness.self"), "s"),
        "cli.self_s": metric(s("cli.self"), "s"),
        "trace.overhead_s": metric(
            statistics.median(traced) - statistics.median(plain) if traced and plain else None,
            "s"),
        "trace.unaccounted_pct": metric(ratio(glue, op_s, 100.0), "%"),
    }


def bench(args) -> int:
    cli = import_program()
    work = OUT_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, work)
        run = Run(cli, wl, args.seed, work)
        if args.trace:
            tracer = spans.Tracer()
            run.loop(args.seconds, tracer)
            correct = not run.verify()
            metrics = per_layer(run, tracer)
            span_file = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
            span_file.write_text(json.dumps(tracer.spans) + "\n")
            print(f"perfbench: spans written to {span_file}", file=sys.stderr)
        else:
            try:
                setup = measure_setup(wl)
            except RuntimeError as err:
                setup = None
                run.problems.append(str(err))
            rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            run.loop(args.seconds)
            rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before) / 1024.0
            correct = not run.verify() and setup is not None
            metrics, raw = end_to_end(run, setup, rss_mb)
            print("perfbench raw " + json.dumps(raw), file=sys.stderr)
        for p in run.problems[:20]:
            print(f"perfbench: {p}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = correct and any(run.ok)
    print(json.dumps({"correct": correct, "attempted": len(run.ok),
                      "failed": run.ok.count(False), "metrics": metrics}))
    return 0


def selftest() -> int:
    """A few checked ops per workload, then tampered artifacts must fail."""
    cli = import_program()
    failures = []
    tampers = {
        "synapse_bidir": [("trace.csv", _tamper_digit), ("quantum.csv", _move_counts),
                          ("quantum.csv", _move_b_sq)],
        "fusion_seeds": [("fusion.csv", _move_fused)],
        "gap_network": [("trace.csv", _tamper_digit)],
    }
    for name in workloads.WORKLOADS:
        work = OUT_ROOT / f"selftest-{name}-pid{os.getpid()}"
        try:
            wl = workloads.build(name, 1, work)
            run = Run(cli, wl, 1, work)
            run.loop(0.0, min_ops=SELFTEST_OPS[name])
            status = "ok" if not run.verify() and all(run.ok) else "FAILED"
            if status != "ok":
                failures.append(name)
            print(f"selftest {name}: {len(run.ok)} ops, all checks {status}")
            for p in run.problems:
                print(f"  {p}")
            seed = workloads.op_seed(1, 0)
            for artifact, tamper in tampers[name]:
                tampered = work / "tampered"
                shutil.copytree(work / "op0", tampered)
                tamper(tampered / artifact)
                problems = in_child(check_op, wl, seed, tampered)
                shutil.rmtree(tampered)
                verdict = "reported as a failed op" if problems else "NOT DETECTED"
                if not problems:
                    failures.append(f"{name}/{artifact}")
                print(f"selftest {name}: {tamper.__name__}({artifact}) {verdict}: {problems[:1]}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("selftest: " + ("PASS" if not failures else f"FAIL {failures}"))
    return 0 if not failures else 1


def _tamper_digit(path: Path) -> None:
    """Change one digit of the first membrane potential that moves."""
    lines = path.read_text().splitlines(keepends=True)
    for r in range(2, len(lines)):
        cells = lines[r].split(",")
        if "." in cells[1] and len(cells[1]) > 8:
            pos = cells[1].index(".") + 3
            d = cells[1][pos]
            cells[1] = cells[1][:pos] + ("1" if d != "1" else "2") + cells[1][pos + 1:]
            lines[r] = ",".join(cells)
            break
    path.write_text("".join(lines))


def _move(path: Path, column: str, amount, fmt) -> None:
    """Move ``amount(x_0)`` from link 0 to link 1 (both live) in the last live window."""
    lines = path.read_text().splitlines(keepends=True)
    header = lines[0].strip().split(",")
    deg = header.index("degenerate")
    r = max(r for r in range(1, len(lines)) if lines[r].split(",")[deg] == "0")
    cells = lines[r].strip().split(",")
    a, b = header.index(f"{column}_0"), header.index(f"{column}_1")
    moved = amount(float(cells[a]))
    cells[a] = fmt(float(cells[a]) - moved)
    cells[b] = fmt(float(cells[b]) + moved)
    lines[r] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _move_counts(path: Path) -> None:
    """Half of link 0's counts move to link 1: the counts still sum to shots."""
    _move(path, "count", lambda c: c // 2, lambda x: str(int(x)))


def _move_b_sq(path: Path) -> None:
    """One percent of link 0's b_sq moves to link 1: the row still sums to 1."""
    _move(path, "b_sq", lambda x: 0.01 * x, repr)


def _move_fused(path: Path) -> None:
    """Move one shot's worth of fused probability from sensor 0 to sensor 1."""
    rows = dict(line.split(",", 1) for line in path.read_text().splitlines())
    shots = int(rows["shots"])
    rows["fused_0"] = repr(float(rows["fused_0"]) - 1.0 / shots)
    rows["fused_1"] = repr(float(rows["fused_1"]) + 1.0 / shots)
    path.write_text("".join(f"{k},{v}\n" for k, v in rows.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
