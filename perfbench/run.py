"""cqmap benchmark: run one workload through ``cqmap.cli.dispatch`` and print
its metrics.

    python3 perfbench/run.py --workload gap_sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; paths are taken relative to the checkout that holds this
file. The workload's inputs are generated from ``--seed`` in fresh
processes (timed as ``setup_s``). One caller then sends the workload's
commands in process, each after the previous one returns, pass after pass
until ``--seconds`` have gone by. Every output is checked against
``reference.json`` or a seed-independent identity.

``--trace 0`` prints the end-to-end metrics of untraced passes. ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones; spans are written to ``.perfbench/traces``. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 0 means every output
was correct, 1 that some were not, 2 that the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
from statistics import median
import subprocess
import sys
import threading
import time
import traceback

import inputs
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
BLAS_THREADS = 1
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CQMAP_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed command)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes until this much time has gone by")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    return parser.parse_args(argv)


def set_threads():
    """Set the BLAS/OpenMP thread count; must run before numpy is imported.

    One thread: on a shared two-core machine a second thread mostly measures
    the other tenants' load."""
    nproc = os.cpu_count() or 1
    if BLAS_THREADS > nproc:
        raise BenchError(f"{BLAS_THREADS} BLAS threads exceed the {nproc} CPUs")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_tree(directory):
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(directory):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, directory).encode() + b"\0")
            digest.update(sha256_file(path).encode())
    return digest.hexdigest()


def time_setup(workload, seed, work):
    """Wall time of interpreter start, cqmap import and input generation in a
    fresh process, ``SETUP_REPEATS`` times; the inputs must not change."""
    times, digests = [], set()
    command = [sys.executable, os.path.join(HERE, "inputs.py"),
               "--workload", workload, "--seed", str(seed), "--out", work]
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        # A blocking wait, not subprocess.run(timeout=...): its polling loop
        # rounds the measured time up to steps of up to 50 ms.
        start = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.DEVNULL)
        killer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        killer.start()
        try:
            returncode = child.wait()
        finally:
            killer.cancel()
            killer.join()
        times.append(time.perf_counter() - start)
        if returncode != 0:
            raise BenchError(f"input generation exited with {returncode}")
        digests.add(digest_tree(work))
    if len(digests) != 1:
        raise BenchError("one seed gave different inputs in repeated set-ups")
    return times


def git_commit():
    """Commit of the checkout from ``.git`` inside it, if there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": digest_tree(os.path.join(ROOT, "src", "cqmap")),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "caller": "closed loop, 1 in-process caller",
    }


def dispatch(cli, argv):
    """Exit code of one command; an exception escaping dispatch is a failure."""
    try:
        return cli.dispatch(argv).exit_code
    except Exception:  # noqa: BLE001 - a crashing command is counted, not fatal
        traceback.print_exc()
        return "exception"


def run_pass(cli, commands, work, reference, tracer=None):
    """One timed pass through the workload's commands, then its gate."""
    import tracing  # imports scipy, so only after set_threads()

    def body():
        return [dispatch(cli, command.argv) for command in commands]

    first_span = len(tracer.spans) if tracer else 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    codes = tracer.call(tracing.ROOT_SPAN, body) if tracer else body()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    problems = []
    for command, code in zip(commands, codes):
        if code != 0:
            problems.append([f"{command.name}: exit code {code}"])
        else:
            problems.append(workloads.check(command, work, reference))
    outputs = {name: sha256_file(os.path.join(work, name))
               for command, code in zip(commands, codes) if code == 0
               for name in command.outputs if os.path.isfile(os.path.join(work, name))}
    result = {"wall_s": wall, "cpu_s": cpu, "problems": problems, "outputs": outputs}
    if tracer:
        spans = tracer.span_dicts()[first_span:]
        result["layers"] = dict(tracing.layer_self_seconds(spans), **tracer.counts)
    return result


def measure(args, cli, commands, work, reference, run_id):
    """Passes until ``args.seconds`` have gone by: untraced ones, and with
    tracing on, each followed by a traced one."""
    import tracing

    tracer = tracing.Tracer(run_id) if args.trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(cli, commands, work, reference))
        if tracer:
            before = tracing.binding_snapshot()
            tracer.reset_counts()
            tracer.install()
            try:
                traced.append(run_pass(cli, commands, work, reference, tracer))
            finally:
                tracer.uninstall()
            if tracing.binding_snapshot() != before:
                raise BenchError("tracer left a wrapped binding behind")
        if time.perf_counter() - start >= args.seconds:
            return untraced, traced, tracer


def summarize(name, values, unit, samples="passes"):
    return (f"  {name:<36} median {median(values):.6g} {unit} "
            f"(n={len(values)} {samples}, min {min(values):.6g}, max {max(values):.6g})")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cqmap", "__init__.py")):
        print(f"perfbench: no cqmap sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        set_threads()
        return run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run(args):
    import tracing

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    work = os.path.join(STATE, "work", run_id)
    try:
        setup_times = time_setup(args.workload, args.seed, work)
        inputs.import_cqmap()
        from cqmap import cli

        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)
        commands = workloads.commands(args.workload, work)
        untraced, traced, tracer = measure(args, cli, commands, work, reference, run_id)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(len(p["problems"]) for p in passes)
    failed = sum(1 for p in passes for problems in p["problems"] if problems)
    notes = sorted({msg for p in passes for problems in p["problems"] for msg in problems})
    if any(p["outputs"] != passes[0]["outputs"] for p in passes):
        notes.append("output files differ between passes (traced vs untraced or repeat)")

    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
             f"{len(untraced)} untraced + {len(traced)} traced passes, "
             f"{attempted} commands, {failed} failed"]
    if args.trace:
        layers = [p["layers"] for p in traced]
        for key in tracer.counts:
            if any(layer[key] != layers[0][key] for layer in layers):
                notes.append(f"count {key} differs between traced passes")
        metrics = {}
        for key in layers[0]:
            values = [layer[key] for layer in layers]
            unit = "s" if key.endswith("_s") else "B" if key.endswith(".bytes") else "count"
            metrics[key] = {"value": median(values), "unit": unit}
            lines.append(summarize(key, values, unit))
        overhead = (median([p["wall_s"] for p in traced])
                    / median([p["wall_s"] for p in untraced]) - 1.0)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        lines.append(f"  {'trace.overhead_frac':<36} {overhead:.6g} "
                     f"(median traced wall / median untraced wall - 1)")
        trace_path = os.path.join(STATE, "traces", f"{run_id}.json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"run": run_id, "root": tracing.ROOT_SPAN, "spans": tracer.span_dicts(),
                       "counts_per_pass": [{k: p["layers"][k] for k in tracer.counts}
                                           for p in traced]}, fh)
        lines.append(f"  spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        walls = [p["wall_s"] for p in untraced]
        cpus = [p["cpu_s"] for p in untraced]
        metrics = {
            "wall_s": {"value": median(walls), "unit": "s"},
            "cpu_s": {"value": median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "pass_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
        }
        lines += [summarize("wall_s", walls, "s"), summarize("cpu_s", cpus, "s"),
                  f"  {'peak_rss_mb':<36} {peak_rss_mb:.6g} MiB (process peak)",
                  summarize("setup_s", setup_times, "s", "set-ups"),
                  f"  {'failed_frac':<36} {failed / attempted:.6g} ({failed}/{attempted})"]

    for line in lines:
        print(line)
    for note in notes:
        print(f"  FAIL {note}")
    print("environment " + json.dumps(environment(args), sort_keys=True))
    correct = not notes
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
