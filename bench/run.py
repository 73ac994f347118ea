"""affasym benchmark: seeded CLI workloads, timed end to end, plus a traced
breakdown by module.

    python3 bench/run.py --workload portrait-cusp --seed 1 --trace 0

The client is this one process.  It launches one `python -m affasym ...`
child at a time (closed loop, one client), each a fresh process, because CLI
users pay the whole start-up on every call and in-process caches must not
carry over between iterations.  Children run with AFFASYM_THREADS unset and
BLAS pinned to one thread, so the default single-worker path is measured.

--trace 0  runs a fixed number of iterations, chosen from --seconds (default:
           run_seconds of BENCHMARK.json) and the workload's per-iteration
           budget, and prints the end-to-end metrics of BENCHMARK.json.
--trace 1  runs iteration 0 once untraced and once under bench/tracer.py and
           prints the per-layer metrics, including the tracing overhead.

Every command's exit code and outputs are checked (workloads.CHECKS); one
operation is one command together with its check.  The last stdout line is
the JSON result; the lines before it give the environment and every metric
with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PER_ITERATION = 2
# The machine's speed drifts: on a shared 2-vCPU host one command can take
# from 1x to 2x its quick time, in phases of seconds to minutes, and the
# phases of the two vCPUs are unrelated.  The client therefore pins itself and
# its children to one CPU, and while a child runs it wakes every
# PROBE_INTERVAL_S to time a small fixed probe on that CPU, in CPU seconds of
# its own thread, which the child's share of the CPU does not affect.
# `wall_ref_s` scales each command's wall time by PROBE_REF_S / (mean probe
# time during it): the command's wall time at the speed at which the probe
# takes PROBE_REF_S (about its time in a quick phase of the machine the
# baseline was taken on).
PROBE_INTERVAL_S = 0.5
PROBE_REF_S = 0.0045
# A run starts no iteration that would likely end after this many seconds; it
# counts the commands it did not run as failed operations, so that it exits
# within the 180 s a run may take.  At the baseline speed a run ends after
# about 57 s, so only a machine or program well over twice as slow hits this.
TIME_LIMIT_S = 160.0

sys.path.insert(0, HERE)
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "AFFASYM_THREADS"}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(argv, logdir, env):
    """Run one child to completion, probing the CPU's speed while it runs:
    (wall seconds, CPU seconds, exit code, peak RSS MB, stderr, mean probe
    seconds)."""
    os.makedirs(logdir, exist_ok=True)
    out_path, err_path = os.path.join(logdir, "stdout"), os.path.join(logdir, "stderr")
    ended = {}
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)

        done = threading.Event()

        def wait():
            ended["wait4"] = os.wait4(proc.pid, 0)
            ended["t"] = time.perf_counter()
            done.set()

        threading.Thread(target=wait, daemon=True).start()
        probes = []
        try:
            while not done.wait(PROBE_INTERVAL_S):
                probes.append(speed_probe())
        finally:
            if not done.is_set():   # interrupted: stop the child and reap it
                proc.kill()
                done.wait()
    wall = ended["t"] - t0
    _, status, usage = ended["wait4"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()
    cpu = usage.ru_utime + usage.ru_stime
    # a child too short for the probes in flight is timed by probes right after
    probe = statistics.fmean(probes or [speed_probe() for _ in range(3)])
    return wall, cpu, proc.returncode, usage.ru_maxrss / 1024.0, stderr, probe


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


_PROBE_ARRAY = np.linspace(0.0, 1.0, 256_000)   # 2 MB


def speed_probe():
    """CPU seconds of this thread for a fixed mix of work, about 4 ms.  It
    runs no affasym code, so a change to affasym cannot move it.  Its three
    parts, in about equal shares, cover the kinds of work affasym's commands
    do, which the slow phases slow by different amounts: small objects and
    dicts, small numpy arrays, and a 2 MB array read and copied."""
    t0 = time.thread_time()
    table, total = {}, 0.0
    for i in range(3_000):
        p = _Point(i * 0.5, i * 0.25)
        table[i & 255] = p
        total += p.x * p.y + len(table)
    a, v = np.arange(9.0).reshape(3, 3), np.ones(3)
    for _ in range(500):
        v = a @ v
        v = v / np.sqrt(v @ v)
    for _ in range(3):
        _PROBE_ARRAY.sum()
        _PROBE_ARRAY[::3].copy()
    return time.thread_time() - t0


def pin_to_one_cpu():
    """Pin this process, and so every child it starts, to one allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "AFFASYM_THREADS": "unset in children",
        "blas_threads": 1,
        "client": "one process, one child at a time (closed loop), pinned to one CPU",
        "speed_probe": f"every {PROBE_INTERVAL_S} s while a child runs, reference {PROBE_REF_S} s",
    }


class Runner:
    def __init__(self, workload, seed, workdir):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self._fields = {}

    def field(self, params):
        from affasym import bde, surface

        cat, kw = self.w.field_params(params)
        key = repr((cat, kw))
        if key not in self._fields:
            self._fields[key] = bde.extended_field_for(surface.catalog_surface(cat, kw))
        return self._fields[key]

    def setup_once(self):
        """Wall of one fresh process that imports affasym and builds the
        workload's surface and extended field: (seconds, seconds at the
        reference speed)."""
        cat, kw = self.w.field_params(self.w.params(self.seed, 0))
        code = ("from affasym import bde, surface; "
                f"bde.extended_field_for(surface.catalog_surface({cat!r}, {kw!r}))")
        wall, _, rc, _, err, probe = run_child([sys.executable, "-c", code],
                                               os.path.join(self.workdir, "setup"), self.env)
        if rc != 0:
            raise RuntimeError(f"set-up failed:\n{err}")
        return wall, wall * PROBE_REF_S / probe

    def iteration(self, k, traced=False, spans=None):
        """Run iteration k; returns (wall by command, wall at the reference
        speed by command, CPU seconds, peak RSS MB, output dir)."""
        params = self.w.params(self.seed, k)
        outdir = os.path.join(self.workdir, f"it{k}{'-traced' if traced else ''}")
        walls, ref_walls, cpu, rss = {}, {}, 0.0, 0.0
        for j, (name, args) in enumerate(self.w.commands(params, outdir)):
            if traced:
                argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans[j]] + args
            else:
                argv = [sys.executable, "-m", "affasym"] + args
            t, c, rc, peak, err, probe = run_child(
                argv, os.path.join(outdir, f"log-{name}"), self.env)
            walls[name] = t
            ref_walls[name] = t * PROBE_REF_S / probe
            cpu += c
            rss = max(rss, peak)
            self.attempted += 1
            fails = [f"exit code {rc}: {err.strip()[-400:]}"] if rc != 0 else []
            if rc == 0:
                try:
                    fails = wl.CHECKS[name](self.w, params, outdir, self.field(params))
                except Exception as exc:  # a malformed output is a failed check
                    fails = [f"output check raised {type(exc).__name__}: {exc}"]
            if fails:
                self.failed += 1
                print(f"FAIL {name} {args}: {'; '.join(fails)}", file=sys.stderr)
        return walls, ref_walls, cpu, rss, outdir


def portrait_counts(outdir):
    path = os.path.join(outdir, "portrait", "portrait.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {"trajectories": len(doc["trajectories"]),
            "samples": sum(len(t["samples"]) for t in doc["trajectories"]),
            "reports": len(doc["reports"])}


def measure(runner, seconds):
    """End-to-end metrics over a fixed number of iterations.  The count
    follows from `seconds` alone (workloads.py), so a faster or slower program
    is measured on the same parameter points.  Set-up samples are spread
    between the iterations so that they see the same machine phases as the
    timed commands."""
    n = runner.w.iterations(seconds)
    runner.setup_once()   # fills the bytecode cache; not counted
    setups, ref_setups, walls, ref_walls, cpus, rss, per_cmd = [], [], [], [], [], [], {}
    start = time.perf_counter()
    longest = 0.0   # longest iteration so far, with its set-up samples and checks
    for k in range(n):
        t0 = time.perf_counter()
        if t0 - start + longest > TIME_LIMIT_S:
            missed = (n - k) * len(runner.w.commands(runner.w.params(runner.seed, k), ""))
            runner.attempted += missed
            runner.failed += missed
            print(f"FAIL out of time after {k} of {n} iterations", file=sys.stderr)
            break
        for _ in range(SETUP_PER_ITERATION):
            wall, ref_wall = runner.setup_once()
            setups.append(wall)
            ref_setups.append(ref_wall)
        cmd_walls, cmd_ref_walls, cpu, peak, _ = runner.iteration(k)
        walls.append(sum(cmd_walls.values()))
        ref_walls.append(sum(cmd_ref_walls.values()))
        cpus.append(cpu)
        rss.append(peak)
        for name, t in cmd_ref_walls.items():
            per_cmd.setdefault(f"cmd.{name}_ref_s", []).append(t)
        longest = max(longest, time.perf_counter() - t0)
    # The parameter points of a run are stratified (workloads.py) and the cost
    # of a cusp portrait varies several-fold across its ranges, so the mean over
    # the iterations estimates the range-average cost; the median of a few
    # stratified draws would pick one stratum and swing with the seed.
    metrics = {"wall_ref_s": statistics.fmean(ref_walls),
               "setup_s": statistics.median(ref_setups), "peak_rss_mb": statistics.median(rss)}
    samples = {"wall_ref_s": len(ref_walls), "setup_s": len(setups), "peak_rss_mb": len(rss)}
    notes = [f"{name:42s} {statistics.median(vals):>16.6g} s      n={len(vals)} "
             "(median of one command)" for name, vals in per_cmd.items()]
    notes.append(f"set-up walls (s), median {statistics.median(setups):.4f}")
    notes.append(f"iteration walls at the reference speed (s): "
                 + " ".join(f"{t:.4f}" for t in ref_walls))
    notes.append(f"iteration walls (s), mean {statistics.fmean(walls):.4f}: "
                 + " ".join(f"{t:.4f}" for t in walls))
    notes.append("machine slowness (wall / wall at the reference speed): "
                 + " ".join(f"{a / b:.4f}" for a, b in zip(walls, ref_walls)))
    notes.append(f"child CPU time / wall time: {sum(cpus) / sum(walls):.4f}")
    return metrics, samples, notes


def measure_traced(runner):
    untraced, _, _, _, _ = runner.iteration(0)
    commands = runner.w.commands(runner.w.params(runner.seed, 0), "")
    spans = [os.path.join(runner.workdir, f"spans-{j}.npz") for j in range(len(commands))]
    traced, _, _, _, outdir = runner.iteration(0, traced=True, spans=spans)
    counts = portrait_counts(outdir)
    # a traced command that failed wrote no spans; its failure is counted
    done = [(name, path) for (name, _), path in zip(commands, spans) if os.path.exists(path)]
    metrics = tracer.metrics([path for _, path in done], counts) if done else {}
    per_command = {name: tracer.metrics([path], counts) for name, path in done}
    for name in ("portrait", "analyze", "conormal"):
        metrics[f"cmd.{name}_s"] = untraced.get(name, 0.0)
    metrics["trace.wall_s"] = sum(traced.values())
    metrics["trace.untraced_wall_s"] = sum(untraced.values())
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"]
    notes = [f"{cmd} self time by layer: " + ", ".join(
        f"{mod} {cm[f'{mod}.self_s']:.3g} s" for mod in tracer.MODULES)
        for cmd, cm in per_command.items()]
    return metrics, {k: 1 for k in metrics}, notes


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "affasym", "cli.py")):
        print(f"affasym sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    sys.path.insert(0, SRC)
    import affasym

    if not os.path.abspath(affasym.__file__).startswith(SRC + os.sep):
        print(f"imported affasym from {affasym.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    w = wl.WORKLOADS[args.workload]
    cpu = pin_to_one_cpu()
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        runner = Runner(w, args.seed, workdir)
        if args.trace:
            metrics, samples, notes = measure_traced(runner)
        else:
            metrics, samples, notes = measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if runner.failed:
        metrics = {name: metrics.get(name, 0.0) for name in units}
    if set(metrics) != set(units):
        print(f"metric set differs from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 2
    argv0 = [a for _, a in w.commands(w.params(args.seed, 0), "OUT")]
    print("env: " + json.dumps(dict(environment(), cpu_pinned=cpu)))
    print(f"workload {w.name} seed {args.seed}: iteration 0 runs "
          + " ; ".join("affasym " + " ".join(a) for a in argv0))
    for name in units:
        print(f"  {name:42s} {metrics[name]:>16.6g} {units[name]:6s} n={samples[name]}")
    for note in notes:
        print("  " + note)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
