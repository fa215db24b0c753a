"""cohomolab benchmark: run one workload through the real CLI and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; stdlib only.  The seed generates the
input files (see inputs.py); the CLI only ever sees those files.  Every
command runs as `python -m cohomolab.cli ...` in a fresh process, one at a
time, under a timeout and an address-space limit, and its stdout is
checked (see checks.py).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1,
untraced and traced passes alternate; traced passes run each command
through tracer.py, and the metrics are per-layer self times and counts,
plus the tracing overhead.  A human-readable table goes to stderr.
"""

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

START = time.perf_counter()
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from checks import check  # noqa: E402
from inputs import write_algebras  # noqa: E402
from workloads import PASS_SECONDS, WORKLOADS  # noqa: E402

WORK = os.path.join(".bench_build", "perfbench")
SETUPS_PER_ROUND = 4
COMMAND_TIMEOUT_S = 30.0     # 3.5x the slowest command at the seed commit
MEMORY_LIMIT = 512 << 20     # address space; 5x the largest command's RSS
STOP_STARTING_AFTER_S = 135.0  # a run ends within 180 s even if commands hang
PROBE_EVERY_S = 0.03
# probe() takes 1.1-2.0 ms on the host the baselines come from (2-vCPU Xeon
# at 2.0 GHz, Python 3.11.7); times are scaled to a CPU on which it takes
# this long.
REFERENCE_PROBE_S = 0.0018

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("cmd_p50_s", "s"),
    ("cmd_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("stdout_mb", "MB"),
    ("ok_frac", "ratio"),
)

PER_LAYER = (
    ("startup.python_s", "s"),
    ("startup.import_s", "s"),
    ("fileformat.parse_s", "s"),
    ("algebra.validate_s", "s"),
    ("algebra.domain_s", "s"),
    ("operators.classify_s", "s"),
    ("multilinear.from_flat_s", "s"),
    ("multilinear.from_flat_calls", "count"),
    ("multilinear.flatten_s", "s"),
    ("complex.index_matrix_s", "s"),
    ("complex.index_matrix_nnz", "count"),
    ("complex.apply_d_s", "s"),
    ("complex.apply_d_calls", "count"),
    ("complex.apply_d_naive_calls", "count"),
    ("linalg.elim_s", "s"),
    ("linalg.elim_rows_in", "count"),
    ("linalg.elim_rank", "count"),
    ("linalg.rank_per_row", "ratio"),
    ("linalg.matmul_s", "s"),
    ("linalg.matmul_calls", "count"),
    ("cohomology.chain_map_s", "s"),
    ("cohomology.chain_map_calls", "count"),
    ("cli.emit_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# span name -> counted call metric; the tracer names spans after the layer
CALL_COUNTS = {
    "multilinear.from_flat": "multilinear.from_flat_calls",
    "complex.apply_d": "complex.apply_d_calls",
    "linalg.matmul": "linalg.matmul_calls",
    "cohomology.chain_map": "cohomology.chain_map_calls",
}
SPAN_COUNTERS = {
    ("complex.index_matrix", "nnz"): "complex.index_matrix_nnz",
    ("complex.apply_d", "naive"): "complex.apply_d_naive_calls",
    ("linalg.elim", "rows_in"): "linalg.elim_rows_in",
    ("linalg.elim", "rank"): "linalg.elim_rank",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    # the timed commands must find the byte code that set-up compiled
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def probe() -> float:
    """Seconds for a fixed sum of Fractions: the kind of work the CLI does."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


class HostSpeed:
    """Scales measured times to the speed of the reference host.

    On a shared host one CPU runs the same code up to twice as slowly from
    one second to the next, and the share of slow seconds drifts over
    minutes.  A thread of the benchmark times probe() every PROBE_EVERY_S
    on the CPU the commands run on, while they run.  A time measured from
    t0 to t1 is scaled by the mean of REFERENCE_PROBE_S / probe over the
    probes started in that interval: the amount of probe work the CPU could
    have done per second then, relative to the reference host.
    """

    def __init__(self):
        self.samples = []  # (start, seconds), in start order
        self.done = threading.Event()
        self.thread = threading.Thread(target=self.watch, daemon=True)
        self.thread.start()

    def watch(self):
        while not self.done.is_set():
            start = time.perf_counter()
            self.samples.append((start, probe()))
            self.done.wait(PROBE_EVERY_S)

    def stop(self):
        self.done.set()
        self.thread.join()

    def scale(self, t0: float, t1: float) -> float:
        # widen a short interval until it holds a few probes
        pad = 0.0
        while True:
            during = [s for start, s in self.samples if t0 - pad <= start <= t1 + pad]
            if len(during) >= 3 or pad > 2:
                break
            pad += PROBE_EVERY_S
        return statistics.fmean(REFERENCE_PROBE_S / s for s in during)


class Record:
    """One finished (or skipped) command of one pass, or one set-up."""

    def __init__(self, cmd, wall=0.0, cpu=0.0, rss_kb=0, out_bytes=0,
                 failure=None):
        self.cmd = cmd
        self.wall = wall
        self.cpu = cpu
        self.rss_kb = rss_kb
        self.out_bytes = out_bytes
        self.failure = failure  # None, or why the command counts as failed
        self.known = False      # the failure is the split-input Kadison defect
        self.spans = None
        self.scale = 1.0        # from HostSpeed.scale


class Runner:
    def __init__(self, workdir: str):
        self.env = child_env()
        self.out_path = os.path.join(workdir, "stdout")
        self.err_path = os.path.join(workdir, "stderr")
        self.spans_path = os.path.join(workdir, "spans.json")
        self.next_id = 0
        self.speed = HostSpeed()

    def spawn(self, argv):
        """Run argv under the guards; (start, wall, rusage, exit code, timed out)."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=err, preexec_fn=limit_memory)
            fired = threading.Event()

            def on_timeout():
                fired.set()
                proc.kill()

            timer = threading.Timer(COMMAND_TIMEOUT_S, on_timeout)
            timer.start()
            try:
                # wait without reaping, so the timer can never signal a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            except BaseException:
                proc.kill()
                raise
            finally:
                timer.cancel()
                timer.join()
                _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return t0, wall, usage, proc.returncode, fired.is_set()

    def run(self, cmd, traced: bool) -> Record:
        command_id = self.next_id
        self.next_id += 1
        argv = [sys.executable]
        if traced:
            if os.path.exists(self.spans_path):
                os.remove(self.spans_path)
            argv += [os.path.join(BENCH, "tracer.py"), self.spans_path,
                     str(command_id), repr(time.perf_counter())]
        else:
            argv += ["-m", "cohomolab.cli"]
        t0, wall, usage, code, timed_out = self.spawn(argv + cmd.argv)
        with open(self.out_path, "rb") as fh:
            stdout = fh.read()
        rec = Record(cmd, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss, len(stdout))
        rec.scale = self.speed.scale(t0, t0 + wall)
        if timed_out:
            rec.failure = f"timed out after {COMMAND_TIMEOUT_S:.0f} s"
        elif code != 0:
            with open(self.err_path, "rb") as fh:
                err = fh.read()
            rec.failure = ("address-space limit reached" if b"MemoryError" in err
                           else f"exit code {code}")
        else:
            failure = check(cmd, stdout)
            if failure is not None:
                rec.failure = failure.reason
                rec.known = failure.known
            if traced:
                with open(self.spans_path, encoding="utf-8") as fh:
                    rec.spans = json.load(fh)
        return rec


class Pass:
    def __init__(self, records, traced):
        self.records = records
        self.traced = traced
        ran = [r for r in records if r.failure != "not started"]
        self.raw_wall = sum(r.wall for r in ran)
        self.wall = sum(r.wall * r.scale for r in ran)
        self.peak_rss_mb = max((r.rss_kb for r in ran), default=0) / 1024
        self.stdout_mb = sum(r.out_bytes for r in ran) / 1e6
        self.complete = len(ran) == len(records)


def run_pass(runner, commands, traced: bool) -> Pass:
    records = []
    for cmd in commands:
        if time.perf_counter() - START > STOP_STARTING_AFTER_S:
            records.append(Record(cmd, failure="not started"))
        else:
            records.append(runner.run(cmd, traced))
    return Pass(records, traced)


def setup(runner, workload: str, seed: int, inputs_dir: str):
    """Generate and write the inputs, then byte-compile the package afresh."""
    t0 = time.perf_counter()
    shutil.rmtree(os.path.join(ROOT, inputs_dir), ignore_errors=True)
    shutil.rmtree(os.path.join(ROOT, "src", "cohomolab", "__pycache__"),
                  ignore_errors=True)
    commands = WORKLOADS[workload](seed, inputs_dir)
    write_algebras({c.alg.path: c.alg for c in commands}.values(), ROOT)
    _, _, _, code, _ = runner.spawn([sys.executable, "-c", "import cohomolab.cli"])
    if code != 0:
        raise SystemExit(f"error: importing cohomolab.cli failed with exit code {code}")
    timed = Record(None, time.perf_counter() - t0)
    timed.scale = runner.speed.scale(t0, t0 + timed.wall)
    return timed, commands


def end_to_end(setups, passes, attempted, failed) -> dict:
    """Per-command medians over passes, so one slow pass moves little.

    wall_s and cpu_s add up each command's median; cmd_p50_s and
    cmd_tail_s are the median and the nearest-rank 90th percentile of those
    medians.
    """
    columns = [[r for r in col if r.failure != "not started"]
               for col in zip(*(p.records for p in passes))]
    columns = [col for col in columns if col]
    walls = sorted(statistics.median(r.wall * r.scale for r in col)
                   for col in columns)
    return {
        "setup_s": statistics.median(r.wall * r.scale for r in setups),
        "wall_s": sum(walls),
        "cpu_s": sum(statistics.median(r.cpu * r.scale for r in col)
                     for col in columns),
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": walls[math.ceil(0.9 * len(walls)) - 1],
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "stdout_mb": statistics.median(p.stdout_mb for p in passes),
        "ok_frac": (attempted - failed) / attempted,
    }


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(traced_pass: Pass) -> dict:
    totals = {name: 0.0 for name, _ in PER_LAYER}
    for rec in traced_pass.records:
        if rec.spans is None:
            continue
        totals["startup.python_s"] += rec.spans["python_s"] * rec.scale
        totals["startup.import_s"] += rec.spans["import_s"] * rec.scale
        spans = rec.spans["spans"]
        for (name, _, _, _, counters), own in zip(spans, self_times(spans)):
            totals[name + "_s"] += own * rec.scale
            if name in CALL_COUNTS:
                totals[CALL_COUNTS[name]] += 1
            for key, value in counters.items():
                totals[SPAN_COUNTERS[name, key]] += value
    rows_in = totals["linalg.elim_rows_in"]
    totals["linalg.rank_per_row"] = totals["linalg.elim_rank"] / rows_in if rows_in else 0.0
    totals["trace.wall_s"] = traced_pass.wall
    return totals


def per_layer(untraced, traced) -> dict:
    totals = [layer_totals(p) for p in traced]
    metrics = {name: statistics.median(t[name] for t in totals)
               for name, _ in PER_LAYER if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced) - 1)
    return metrics


def write_spans(path, passes):
    """All spans of the run: [pass, command id, command, name, start, end, parent, counters]."""
    rows = []
    for index, p in enumerate(passes):
        for rec in p.records:
            if rec.spans is not None:
                for span in rec.spans["spans"]:
                    rows.append([index, rec.spans["command_id"], rec.cmd.label, *span])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)


def stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # on SIGTERM, kill the running command and remove the run's files
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cohomolab", "cli.py")):
        sys.stderr.write("error: run from a cohomolab checkout (src/cohomolab is missing)\n")
        return 2
    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(os.path.join(ROOT, run_dir))
    try:
        return benchmark(args, run_dir)
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)


def benchmark(args, run_dir) -> int:
    # one CPU for the commands and the speed probes, so that each probe
    # measures the speed the commands around it saw
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(os.path.join(ROOT, run_dir))
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    # a traced run spends the same passes, half of them traced
    rounds = max(1, passes // 2) if args.trace else passes
    setups, untraced, traced = [], [], []
    try:
        for _ in range(rounds):
            # set-ups are spread over the run, so that they see the same
            # host speed as the passes rather than that of its first second
            for _ in range(SETUPS_PER_ROUND):
                timed, commands = setup(runner, args.workload, args.seed,
                                        os.path.join(run_dir, "inputs"))
                setups.append(timed)
            untraced.append(run_pass(runner, commands, traced=False))
            if args.trace:
                traced.append(run_pass(runner, commands, traced=True))
            if not untraced[-1].complete:
                break
    finally:
        runner.speed.stop()

    passes = untraced + traced
    attempted = sum(len(p.records) for p in passes)
    failures = [r for p in passes for r in p.records if r.failure is not None]
    for rec in failures:
        sys.stderr.write(f"FAILED {rec.cmd.label}: {rec.failure}\n")
    # known failures still count in `failed`; anything else is incorrect
    correct = all(r.known for r in failures)
    if args.trace:
        metrics = per_layer(untraced, traced)
        units = dict(PER_LAYER)
        write_spans(os.path.join(ROOT, WORK, f"spans-{args.workload}-seed{args.seed}.json"),
                    traced)
    else:
        metrics = end_to_end(setups, untraced, attempted, len(failures))
        units = dict(END_TO_END)
    sys.stderr.write("pass walls, measured (scaled) in s: " + " ".join(
        f"{p.raw_wall:.3f} ({p.wall:.3f}){'T' if p.traced else ''}"
        for p in passes) + "\n")
    for name, value in metrics.items():
        sys.stderr.write(f"{name:32s} {value:14.6f} {units[name]}\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
