#!/usr/bin/env python3
"""Benchmark of the zdx command line: closed-loop workloads with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload envelope --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

With ``--trace 0`` every call runs as ``python -m zdx.cli ...`` in a fresh
interpreter and the end-to-end metrics are printed, as host-speed-normalized
seconds (see ``Metronome``); with ``--trace 1`` each
pass runs in-process under perfbench/tracer.py and the per-layer metrics are
printed.  The last line of stdout is one JSON object (for ``all``, one per
workload, keyed by name).  perfbench/README.md documents every metric.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import ctypes
import json
import multiprocessing
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP_PARENT = ROOT / ".perfbench_tmp"

#: Pinned child environment: one thread everywhere, fixed hashing, no .pyc.
CHILD_ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "ZDX_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}

#: --help samples taken before the first pass, on top of one per pass.
SETUP_SAMPLES = 10
#: Seconds one metronome beat is taken to last on the nominal host.
BEAT_S = 0.0001
#: Fewest beats a rate is taken from; after a short call the metronome runs
#: alone (for ~20 ms at most) until it has beaten this often.
MIN_BEATS = 200
#: Fresh-interpreter import samples per traced run.
IMPORT_SAMPLES = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "main_call_s": "s",
    "side_calls_s": "s",
}


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "zdx" / "cli.py").is_file() or not (
    ROOT / "scripts" / "audit_family.py"
).is_file():
    _fail_setup(f"no zdx sources under {ROOT}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import HELP, NAMES, Output, workloads  # noqa: E402


def host_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
    }


class Ledger:
    """Counts attempted and failed calls; an output is checked once per digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._verdicts: dict[tuple, list[str]] = {}

    def record(self, workload: str, call, outputs: dict[str, Output]) -> None:
        self.attempted += 1
        out = outputs[call.name]
        key = (call.name, out.rc, checks.sha256(out.out), out.err) + tuple(
            checks.sha256(outputs[n].out) for n in call.needs
        )
        if key not in self._verdicts:
            if out.rc != 0:
                fails = [f"exit code {out.rc}: {out.err.strip()[-300:]}"]
            else:
                try:
                    fails = call.check(out, outputs)
                except Exception as exc:  # malformed output counts as a failed check
                    fails = [f"checker raised {type(exc).__name__}: {exc}"]
            self._verdicts[key] = fails
            for msg in fails:
                line = f"check failed: {workload}/{call.name}: {msg}"
                if line not in self.messages:
                    self.messages.append(line)
                    print(line, file=sys.stderr)
        if self._verdicts[key]:
            self.failed += 1


def run_child(argv: list[str], tmp: Path, stem: str,
              out_file: bool) -> tuple[Output, float, float, float]:
    """Run one interpreter to completion; (output, wall s, CPU s, max RSS in MB)."""
    out_path = tmp / f"{stem}.out"
    stdout_path = tmp / f"{stem}.stdout"
    cmd = [sys.executable, *argv] + (["--out", str(out_path)] if out_file else [])
    env = {**os.environ, **CHILD_ENV}
    with open(stdout_path, "wb") as fo, open(tmp / f"{stem}.err", "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fo, stderr=fe)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    written = out_path if out_file else stdout_path
    data = written.read_bytes() if written.exists() else b""
    err = (tmp / f"{stem}.err").read_text(encoding="utf-8", errors="replace")
    cpu = usage.ru_utime + usage.ru_stime
    return Output(proc.returncode, data, err), seconds, cpu, usage.ru_maxrss / 1024


def _beat() -> None:
    """One unit of reference work: small exact rationals and a big-integer product."""
    acc = Fraction(0)
    for i in range(1, 30):
        acc += Fraction(i % 7 - 3, i)
    big = 3 ** 1500
    big * (big + 7)


def _metronome(shared, parent: int) -> None:
    """Beat until the parent is gone; publish (beats, own CPU nanoseconds)."""
    try:  # PR_SET_PDEATHSIG: killed with the parent even while stopped
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)
    except (OSError, AttributeError):
        pass
    os.nice(19)
    beats = 0
    while os.getppid() == parent:
        _beat()
        beats += 1
        shared[1] = time.thread_time_ns()
        shared[0] = beats


class Metronome:
    """Reference work that shares the processor with each timed call.

    On a shared host the processor's speed drifts by up to ~1.6x within
    seconds.  While a call runs, a forked process on the same CPU (the run is
    pinned to one) repeats a fixed pure-Python beat of the kinds of work zdx
    does.  At nice 19 it gets ~1.5% of the CPU, in slices spread over the
    call, so the beats per CPU second of the metronome measure the speed the
    call saw while slowing it little.  A call's normalized time is its CPU
    seconds x that rate x BEAT_S: seconds on a host where one beat takes
    BEAT_S.  A call too short for MIN_BEATS beats (--help) is topped up
    with beats right after it.  The metronome is stopped between calls.
    """

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._shared = ctx.Array("q", 2, lock=False)
        self._proc = ctx.Process(target=_metronome, args=(self._shared, os.getpid()),
                                 daemon=True)
        self._proc.start()
        os.kill(self._proc.pid, signal.SIGSTOP)
        self.rates: list[float] = []

    def start(self) -> tuple[int, int]:
        """Let the metronome beat; the mark to pass to rate()."""
        os.kill(self._proc.pid, signal.SIGCONT)
        return self._shared[0], self._shared[1]

    def rate(self, mark: tuple[int, int]) -> float:
        """Stop the metronome; its beats per CPU second since start() gave mark."""
        beats0, ns0 = mark
        try:
            deadline = time.perf_counter() + 1.0
            while self._shared[0] - beats0 < MIN_BEATS and time.perf_counter() < deadline:
                time.sleep(0.001)
            beats1, ns1 = self._shared[0], self._shared[1]
        finally:
            os.kill(self._proc.pid, signal.SIGSTOP)
        if beats1 <= beats0:
            raise RuntimeError("the metronome did not beat during a call")
        rate = (beats1 - beats0) / ((ns1 - ns0) / 1e9)
        self.rates.append(rate)
        return rate

    def close(self) -> None:
        self._proc.kill()
        self._proc.join()


def measure_cli(name: str, seed: int, seconds: float, tmp: Path, ledger: Ledger) -> dict:
    """Closed loop of CLI passes for at least `seconds`; end-to-end metrics.

    Every call runs with the metronome beating beside it (see Metronome).
    """
    calls = workloads(seed)[name]
    rng = random.Random(seed)
    metronome = Metronome()
    setup, raw_setup, peak = [], [], 0.0
    passes: list[dict[str, float]] = []

    def timed(call) -> tuple[Output, float, float]:
        nonlocal peak
        mark = metronome.start()
        out, sec, cpu, rss = run_child(list(call.argv), tmp, call.name, call.writes_out)
        peak = max(peak, rss)
        return out, sec, cpu * metronome.rate(mark) * BEAT_S

    def sample_help() -> None:
        out, sec, norm = timed(HELP)
        ledger.record(name, HELP, {"help": out})
        raw_setup.append(sec)
        setup.append(norm)

    try:
        for _ in range(SETUP_SAMPLES):
            sample_help()
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            sample_help()
            outputs = {}
            times = dict.fromkeys(
                [c.metric for c in calls] + ["main_call_s", "side_calls_s", "wall_s", "raw_wall_s"],
                0.0,
            )
            for call in rng.sample(calls, len(calls)):
                outputs[call.name], sec, norm = timed(call)
                times[call.metric] += norm
                times["main_call_s" if call.main else "side_calls_s"] += norm
                times["wall_s"] += norm
                times["raw_wall_s"] += sec
            for call in calls:
                ledger.record(name, call, outputs)
            passes.append(times)
    finally:
        metronome.close()

    metrics = {m: statistics.median([p[m] for p in passes]) for m in passes[0]}
    metrics.update(
        setup_s=statistics.median(setup),
        raw_setup_s=statistics.median(raw_setup),
        beats_per_cpu_s=statistics.median(metronome.rates),
        peak_rss_mb=peak,
        passes=len(passes),
    )
    return metrics


def _import_seconds(module: str) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env={**os.environ, **CHILD_ENV},
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def measure_traced(name: str, seed: int, seconds: float, tmp: Path, ledger: Ledger) -> dict:
    """Alternating untraced and traced in-process passes; per-layer metrics."""
    calls = workloads(seed)[name]
    rng = random.Random(seed)
    metrics = {
        f"cli.{label}_s": statistics.median(
            [_import_seconds(module) for _ in range(IMPORT_SAMPLES)]
        )
        for label, module in (("import", "zdx.cli"), ("numpy_import", "numpy"))
    }
    traced, untraced = [], []
    flag = rng.randrange(2)
    start = time.perf_counter()
    while not (traced and untraced) or time.perf_counter() - start < seconds:
        order = ",".join(c.name for c in rng.sample(calls, len(calls)))
        pass_dir = Path(tempfile.mkdtemp(dir=tmp))
        cmd = [str(BENCH / "tracer.py"), "--workload", name, "--seed", str(seed),
               "--dir", str(pass_dir), "--traced", str(flag), "--order", order]
        out, _, _, _ = run_child(cmd, pass_dir, "tracer", False)
        if out.rc != 0:
            raise RuntimeError(f"in-process pass of {name} exited {out.rc}: {out.err[-2000:]}")
        doc = json.loads((pass_dir / "pass.json").read_text())
        outputs = {
            rec["name"]: Output(
                rec["rc"],
                (pass_dir / f"{rec['name']}.out").read_bytes(),
                (pass_dir / f"{rec['name']}.err").read_text(encoding="utf-8"),
            )
            for rec in doc["calls"]
        }
        for call in calls:
            ledger.record(name, call, outputs)
        wall = sum(rec["seconds"] for rec in doc["calls"])
        if flag:
            layer = tracer.layer_metrics(doc)
            layer["serialize.bytes_out"] = sum(len(o.out) for o in outputs.values())
            layer["trace.spans"] = len(doc["spans"])
            layer["trace.pass_s"] = wall
            traced.append(layer)
        else:
            untraced.append(wall)
        shutil.rmtree(pass_dir)
        flag ^= 1
    for key in traced[0]:
        metrics[key] = statistics.median([t[key] for t in traced])
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    metrics["trace.overhead_ratio"] = metrics["trace.pass_s"] / metrics["trace.untraced_pass_s"]
    metrics["passes"] = len(traced)
    return metrics


def per_layer_units() -> dict[str, str]:
    units = {"cli.import_s": "s", "cli.numpy_import_s": "s"}
    units.update({m: "s" for m in tracer.TIMES})
    units.update({m: "count" for m in tracer.COUNTS})
    units.update({"serialize.bytes_out": "bytes", "trace.spans": "count", "trace.pass_s": "s",
                  "trace.untraced_pass_s": "s", "trace.overhead_ratio": "ratio"})
    return units


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, str]:
    """(result object, one human-readable row) for one workload."""
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_PARENT))
    ledger = Ledger()
    try:
        if trace:
            metrics = measure_traced(name, seed, seconds, tmp, ledger)
            units = per_layer_units()
        else:
            metrics = measure_cli(name, seed, seconds, tmp, ledger)
            units = dict(END_TO_END)
            units.update({c.metric: "s" for c in workloads(seed)[name]})
            units.update(raw_wall_s="s", raw_setup_s="s", beats_per_cpu_s="1/s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass
    passes = metrics.pop("passes")
    ratio = ledger.failed / ledger.attempted
    row = " ".join(
        [f"{name}: passes={passes}"]
        + [f"{k}={metrics[k]:.6g} {u}" for k, u in units.items()]
        + [f"fail_ratio={ratio:.4g} ratio ({ledger.failed}/{ledger.attempted} calls)"]
    )
    reported = list(units) if trace else list(END_TO_END)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in reported},
    }
    return result, row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measure at least this long; the pass under way is finished")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # One CPU for this process, the metronome and every child (inherited), so
    # the metronome times the processor the calls run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A terminated run still stops its child and removes its temporary files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print("host: " + json.dumps(host_record()), flush=True)
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name], row = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(row, flush=True)
    print(json.dumps(results if args.workload == "all" else results[args.workload]))


if __name__ == "__main__":
    main()
