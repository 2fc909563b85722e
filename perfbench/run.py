"""Repository benchmark: one command, three workloads, optional trace.

Run from the repository root::

    python3 perfbench/run.py --workload train_table8 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --compare BASE NEW

A run prepares its inputs from ``--seed`` (untimed), sets up, measures for
about ``--seconds`` and checks the outputs.  It prints a readable report,
writes the full result to ``.perfbench/results/`` and prints, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The traced run measures the workload twice,
untraced and then traced, so the tracing overhead is their difference.
It exits non-zero when a correctness gate fails.

``--compare`` diffs two result files (or two directories of them) workload
by workload and metric by metric; see ``compare.py``.

See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread per process before NumPy loads; worker processes
# inherit the environment, so the serving workload runs two single-threaded
# processes on two cores.
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS
# The paper-table configuration must not follow REPRO_* overrides.
for _variable in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_variable]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
)
WORKLOADS = ("train_table8", "serve_open_loop", "stream_drift")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git_sha": sha,
        "source_sha256": _source_hash(),
    }


def _source_hash() -> str:
    """Content hash of ``src/`` (identifies the code when git is absent)."""
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for directory, subdirectories, files in os.walk(source):
        subdirectories.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, source).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (Linux ``clear_refs``), so the
    peak read after the run leaves out the untimed ``prepare`` step."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:  # not Linux: the peak then includes prepare
        pass


def peak_rss_mb() -> float:
    """This process's peak RSS since :func:`reset_peak_rss` plus the largest
    peak of its ended children (the serving workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            own = next(int(line.split()[1]) for line in handle
                       if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _child_pids() -> list[int]:
    """Live (not yet reaped) children of this process, from ``/proc``."""
    own = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # the process ended meanwhile
            continue
        if int(fields[1]) == own:
            children.append(int(entry))
    return children


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The serving workload's ``spawn`` context starts worker processes and the
    ``multiprocessing`` resource tracker.  Left alone, the tracker ends only
    after this process has exited, and the semaphore finalizers that run at
    exit would start it again; so the exit-time clean-up runs here, then the
    tracker is stopped and waited for, then any other child is.
    """
    from multiprocessing import resource_tracker, util

    # Runs the finalizers (semaphore unlinks talk to the tracker), ends
    # daemonic children and joins every child; at exit it is then a no-op.
    util._exit_function()
    try:  # closes the tracker's pipe and waits for it to exit
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError):
        pass
    deadline = time.monotonic() + timeout_s
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in _child_pids():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        while time.monotonic() < deadline:
            for pid in _child_pids():
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
            if not _child_pids():
                return
            time.sleep(0.01)
        deadline = time.monotonic() + timeout_s


def _exit_on_signal(signum, frame):
    """Turn SIGTERM/SIGHUP into ``SystemExit`` so every ``finally`` (server
    shutdown, :func:`stop_children`) runs before the process ends."""
    raise SystemExit(128 + signum)


def run_workload(args) -> int:
    import importlib

    import layers
    from tracer import Tracer

    workload = importlib.import_module(args.workload)
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = workload.prepare(args.seed, workdir)
        reset_peak_rss()
        untraced = workload.run(inputs, args.seconds)
        untraced["peak_rss_mb"] = peak_rss_mb()
        traced = tracer = None
        if args.trace:
            tracer = Tracer()
            layers.install(tracer)
            try:
                traced = workload.run(inputs, args.seconds, tracer,
                                      repeats=untraced.get("repeats"))
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [untraced] + ([traced] if traced else [])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "end_to_end": {name: {"value": untraced[name], "unit": unit}
                       for name, unit in END_TO_END},
        "workload_metrics": {name: {"value": value, "unit": unit}
                             for name, (value, unit)
                             in untraced["workload_metrics"].items()},
        "detail": {key: value for key, value in untraced.items()
                   if key not in ("workload_metrics", "layer_extra")},
    }
    if traced:
        extra = dict(traced["layer_extra"])
        extra["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        per_layer = layers.metrics(tracer, extra)
        units = dict(layers.PER_LAYER)
        result["per_layer"] = {name: {"value": value, "unit": units[name]}
                               for name, value in per_layer.items()}
        result["spans"] = tracer.layer_table(
            (layers.SETUP_ROOT, layers.TIMED_ROOT, layers.REPLAY_ROOT))
        result["traced_detail"] = {key: value for key, value in traced.items()
                                   if key not in ("workload_metrics", "layer_extra")}

    out = args.out or os.path.join(
        ROOT, ".perfbench", "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    if tracer is not None:
        tracer.write(out[:-len(".json")] + ".spans.jsonl")

    print(report(result, out))
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


def report(result: dict, path: str) -> str:
    lines = [f"workload {result['workload']} seed {result['seed']} "
             f"({'traced' if result['trace'] else 'untraced'})",
             f"environment {json.dumps(result['environment'])}"]
    for title, key in (("end to end", "end_to_end"),
                       ("workload", "workload_metrics"),
                       ("per layer", "per_layer")):
        for name, metric in result.get(key, {}).items():
            lines.append(f"  {title:<10} {name:<40} {metric['value']:>14.6g} "
                         f"{metric['unit']}")
    lines.append(f"correct={result['correct']} attempted={result['attempted']} "
                 f"failed={result['failed']}  full result: {path}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default under .perfbench/results)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="diff two result files or directories of them")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"no repro sources under {ROOT}/src; run from a checkout")
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, _exit_on_signal)
    try:
        return run_workload(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
