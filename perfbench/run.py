"""asrrl benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload ss_ref --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. With ``--trace 0`` the last line of standard output is
the JSON result with the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced run. The line before it holds the run's
context: machine, versions, workload seed and the workload's metrics under
their own names. Temporary files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# the keys of workloads.WORKLOADS, which cannot be imported before the
# BLAS thread cap is set
WORKLOAD_NAMES = ("ss_ref", "oracle_lowdim", "scored_eval")
SETUP_REPEATS = 5
LIMIT_S = 150  # wall-clock limit of one run; an overrun counts as a failure

class Overrun(Exception):
    """The run exceeded its wall-clock limit."""


def _on_alarm(signum, frame):
    raise Overrun(f"run exceeded its {LIMIT_S} s wall-clock limit")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready', tear down (times set-up)")
    return ap.parse_args(argv)


def cap_threads() -> str:
    """Run BLAS and OpenMP on the calling thread only.

    A second BLAS thread busy-waits between calls on another CPU, where the
    scorer subprocess and the rest of the machine need it. On a host with
    few CPUs that makes the times follow the host's scheduler: with two
    threads on two vCPUs, ss_ref's training rate varied 3-fold between
    equal runs.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return os.environ["OPENBLAS_NUM_THREADS"]


def context(args, blas_threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        describe = None
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads, "git_describe": describe,
        "src_sha256": h.hexdigest(),
    }


def measure_setup(args) -> list[float]:
    """Wall time from process start to 'ready' of fresh set-up processes,
    each scaled by the reference kernel time measured just before it."""
    from calibrate import reference, scaled

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        ref_s = reference(5)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            times.append(scaled(time.perf_counter() - t0, ref_s))
            proc.stdout.read()
            proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return times


def setup_only(args) -> int:
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-setup-", dir=WORK))
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, workloads.Gates())
    try:
        wl.setup()
        sys.stdout.write("ready\n")
        sys.stdout.flush()
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure(args) -> dict:
    """Set up, warm up, then run units of work for args.seconds."""
    import tracing
    import workloads
    from benchstats import median

    gates = workloads.Gates()
    tracer = tracing.Tracer() if args.trace else None
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, gates)
    plain, traced, extra = [], [], {}
    try:
        setup_s = [] if tracer else measure_setup(args)
        if tracer:
            tracer.install("setup")
        try:
            wl.setup()
        finally:
            if tracer:
                tracer.restore()
        wl.install_hooks()
        # warm-up: the first pass in a process runs slower; its outputs
        # are the reference every later unit must reproduce
        u = wl.unit()
        wl.verify(u)
        reference = u["fingerprint"]
        deadline = time.perf_counter() + args.seconds
        i = 0
        while True:
            if tracer and i % 2:
                tracer.install(i)
                try:
                    u = wl.unit()
                finally:
                    tracer.restore()
                traced.append((i, u))
            else:
                u = wl.unit()
                plain.append(u)
            wl.verify(u)
            gates.check(u["fingerprint"] == reference,
                        f"unit {i}: outputs differ from the warm-up unit with the same seed")
            i += 1
            if time.perf_counter() >= deadline and (not tracer or traced):
                break
        if tracer:
            extra = tracing.layer_metrics(tracer, [j for j, _ in traced])
            extra.update(workloads.probe_batch_sizes(*wl.probe_inputs()))
            extra["agent.checkpoint_bytes"] = median(
                [u.get("checkpoint_bytes", 0) for _, u in traced])
    except Overrun as exc:
        gates.fail(str(exc))
    except Exception:
        gates.fail(traceback.format_exc(limit=8))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)  # clean-up is bounded on its own
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    out = {"attempted": max(gates.attempted, 1), "failed": gates.failed,
           "messages": gates.messages, "metrics": {}, "named": {}}
    if not plain:
        return out
    e2e, named = wl.summarize(plain)
    if tracer:
        traced_e2e, _ = wl.summarize([u for _, u in traced])
        extra["trace.untraced_per_s"] = e2e["primary_per_s"]
        extra["trace.traced_per_s"] = traced_e2e["primary_per_s"]
        extra["trace.overhead_per_s"] = (traced_e2e["primary_per_s"]
                                         - e2e["primary_per_s"])
        out["metrics"] = extra
        out["spans"] = tracer
    else:
        e2e["setup_s"] = median(setup_s)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["metrics"] = e2e
    named["setup_s_samples"] = setup_s
    named["units"] = {"untraced": len(plain), "traced": len(traced)}
    out["named"] = named
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "asrrl" / "__init__.py").is_file():
        print(f"error: no asrrl package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    blas_threads = cap_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import asrrl

    if Path(asrrl.__file__).resolve().parent != SRC / "asrrl":
        print(f"error: imported asrrl from {asrrl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S - (time.perf_counter() - START))
    ctx = context(args, blas_threads)
    res = measure(args)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = res.pop("spans", None)
    if tracer is not None:
        tracer.write(results / f"{stem}-spans.jsonl")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    res["attempted"] += 1
    if res["metrics"] and res["metrics"].keys() != units.keys():
        res["failed"] += 1
        res["messages"].append(
            f"metrics {sorted(res['metrics'].keys() ^ units.keys())} do not "
            "match BENCHMARK.json")
    metrics = {k: {"value": v, "unit": units.get(k, "")}
               for k, v in sorted(res["metrics"].items())}
    result = {"correct": res["failed"] == 0 and bool(metrics),
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    info = {**ctx, "ops_failed_frac": res["failed"] / res["attempted"],
            "failures": res["messages"], "named": res["named"],
            "wall_s": time.perf_counter() - START}
    (results / f"{stem}.json").write_text(json.dumps({"info": info, "result": result},
                                                     indent=1))
    for msg in res["messages"]:
        print(msg, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
