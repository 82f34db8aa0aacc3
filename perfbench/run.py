#!/usr/bin/env python3
"""fgl-forge benchmark: verdict latency and throughput on three claim workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rn-membership --seed 1 --seconds 10 --trace 0

Workloads (pools in workloads.py, reasons in README.md): rn-membership,
chain-series and lt-local serve `fgl_forge.cli.main(argv)` in this process,
closed loop, one client, after a set-up pass that fills the global caches.
Every request is checked against its pinned answer (gate.py).  Times are
scaled to a reference host speed (hostspeed.py).

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 the set-up pass runs traced on cold caches, then one round is run
untraced, traced, untraced again and profiled, and the last line carries the
per-layer metrics.  The line before it is the environment stamp; a summary
goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 150

UNITS = {
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_cli():
    """Import fgl_forge.cli from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    from fgl_forge import cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported fgl_forge from {cli.__file__}, not {SRC}")
    return cli


def env_stamp():
    from fgl_forge.coefficients import QQ

    return {
        "python": sys.version.split()[0],
        "qq_backend": QQ.__module__.split(".")[0],  # "gmpy2" or "fractions"
        "nproc": os.cpu_count(),
        "fgl_forge_threads_set": "FGL_FORGE_THREADS" in os.environ,
    }


class Tally:
    """Attempted and failed requests, verdicts delivered, first failure reasons."""

    def __init__(self, answers):
        self.answers = answers
        self.attempted = 0
        self.failed = 0
        self.verdicts = 0
        self.reasons = []

    def record(self, argv, expected_exit, code, stdout):
        self.attempted += 1
        reason = gate.check(self.answers, argv, expected_exit, code, stdout)
        if reason is None:
            self.verdicts += len(self.answers[gate.key(argv)]["statuses"]) or 1
            return
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{gate.key(argv)}: {reason}")

    def merge(self, attempted, failed, reasons):
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(reasons[: max(0, 5 - len(self.reasons))])


def call(main, argv):
    """One in-process request: (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
        except Exception as exc:  # a raising request is a failed request
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue().encode()


def serve(cli, requests, tally):
    """Closed loop over `requests` with a host-speed probe between requests.

    Returns (scaled, raw, probes): per-request latencies in seconds, scaled
    to the reference host and as measured, and the probe times.
    """
    raw, probes = [], [hostspeed.probe()]
    for argv, expected in requests:
        t0 = time.perf_counter()
        code, stdout = call(cli.main, argv)
        raw.append(time.perf_counter() - t0)
        probes.append(hostspeed.probe())
        tally.record(argv, expected, code, stdout)
    return hostspeed.scale(raw, probes), raw, probes


def warm_setup(pool, tally):
    """Import the program and serve every distinct request once: (cli, scaled seconds).

    The import is scaled by the median probe of the set-up.
    """
    t0 = time.perf_counter()
    cli = import_cli()
    import_s = time.perf_counter() - t0
    scaled, _, probes = serve(cli, workloads.distinct(pool), tally)
    return cli, import_s * hostspeed.REFERENCE_S / statistics.median(probes) + sum(scaled)


def child_setup_s(workload, tally):
    """Set up in a fresh interpreter and merge its tally: its setup_s, or None."""
    args = [sys.executable, __file__, "--workload", workload, "--setup-only"]
    try:
        proc = subprocess.run(args, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        proc = None
    lines = proc.stdout.decode().strip().splitlines() if proc else []
    if proc is None or proc.returncode != 0 or not lines:
        tally.merge(1, 1, [f"set-up child: exit {proc and proc.returncode}"])
        return None
    result = json.loads(lines[-1])
    tally.merge(result["attempted"], result["failed"], result["reasons"])
    return result["setup_s"]


def mix_metrics(latencies, verdicts):
    """verdicts_per_s and latency_p50_ms from per-request latencies in seconds."""
    return {
        "verdicts_per_s": verdicts / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
    }


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed, seconds, tally):
    pool = workloads.POOLS[workload]
    setups = [child_setup_s(workload, tally) for _ in range(SETUP_SAMPLES - 1)]
    setups = [s for s in setups if s is not None]
    cli, setup_s = warm_setup(pool, tally)
    setups.append(setup_s)

    scaled, raw = [], []
    verdicts0 = tally.verdicts
    t0 = time.perf_counter()
    for batch in workloads.rounds(pool, seed):  # whole rounds keep the mix fixed
        batch_scaled, batch_raw, _ = serve(cli, batch, tally)
        scaled += batch_scaled
        raw += batch_raw
        if time.perf_counter() - t0 >= seconds:
            break
    metrics = mix_metrics(scaled, tally.verdicts - verdicts0)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, raw


def per_layer(workload, seed, tally):
    """Span metrics of the cold set-up pass plus one round; profile of the round."""
    pool = workloads.POOLS[workload]
    cli = import_cli()
    batch = next(workloads.rounds(pool, seed))
    recorder = spans.Recorder()

    def traced_pass(requests):
        """Serve traced; returns (wall seconds, stdout bytes)."""
        recorder.install()
        bytes_out = 0
        t0 = time.perf_counter()
        try:
            for argv, expected in requests:
                code, stdout = call(cli.main, argv)
                recorder.request += 1
                bytes_out += len(stdout)
                tally.record(argv, expected, code, stdout)
        finally:
            recorder.uninstall()
        return time.perf_counter() - t0, bytes_out

    def untraced_pass():
        t0 = time.perf_counter()
        for argv, expected in batch:
            tally.record(argv, expected, *call(cli.main, argv))
        return time.perf_counter() - t0

    # The set-up pass starts on cold caches, so the builds it makes (and
    # which a caching change moves) are counted; the round after it is warm.
    traced_pass(workloads.distinct(pool))
    # untraced rounds on both sides of the traced one, so drift between
    # passes does not read as tracing overhead
    before = untraced_pass()
    traced, bytes_out = traced_pass(batch)
    untraced = (before + untraced_pass()) / 2

    profile = cProfile.Profile()
    with profile:
        for argv, expected in batch:
            tally.record(argv, expected, *call(cli.main, argv))

    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    metrics = spans.span_metrics(recorder.spans)
    metrics.update(spans.profile_shares(pstats.Stats(profile).stats))
    metrics["reports.bytes_out"] = bytes_out
    metrics["trace.overhead_ratio"] = traced / untraced
    return metrics


def child_setup(workload):
    tally = Tally(gate.load_answers())
    _, setup_s = warm_setup(workloads.POOLS[workload], tally)
    return {"setup_s": setup_s, "attempted": tally.attempted,
            "failed": tally.failed, "reasons": tally.reasons}


# ---------------------------------------------------------------------------

def summary(workload, metrics, units, raw, tally):
    lines = [f"perfbench {workload}: {tally.attempted} attempted, {tally.failed} failed"]
    for reason in tally.reasons:
        lines.append(f"  FAILED {reason}")
    for name, value in metrics.items():
        lines.append(f"  {name:34s} {value:.6g} {units[name]}")
    if raw:
        # unscaled wall times; p90 only with at least ten samples beyond it
        lines.append(f"  {len(raw)} requests, as measured: p50 "
                     f"{statistics.median(raw) * 1e3:.6g} ms")
        if len(raw) >= 100:
            lines.append(f"  as measured: p90 {statistics.quantiles(raw, n=10)[-1] * 1e3:.6g} ms")
    lines.append(f"  fail_ratio {tally.failed / max(1, tally.attempted):.6g}")
    print("\n".join(lines), file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POOLS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fgl_forge" / "cli.py").is_file():
        parser.exit(2, f"perfbench: no program source under {SRC}\n")
    if args.setup_only:
        print(json.dumps(child_setup(args.workload)))
        return 0

    tally = Tally(gate.load_answers())
    raw = []
    if args.trace:
        metrics = per_layer(args.workload, args.seed, tally)
    else:
        metrics, raw = end_to_end(args.workload, args.seed, args.seconds, tally)

    units = {name: UNITS.get(name) or spans.unit_of(name) for name in metrics}
    summary(args.workload, metrics, units, raw, tally)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": env_stamp()}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
