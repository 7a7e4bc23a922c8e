"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-storm --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats the workload, with identical inputs, on the hot
engine for as many repetitions as fit in ``--seconds`` (at least one)
and reports the end-to-end metrics listed in ``BENCHMARK.json``.
``--trace 1`` runs the workload once untraced, once on the reference
engine (``fast_path=False``) and once traced, and reports the
per-layer metrics.  Every run checks the workload's outputs
(see ``perfbench/README.md``); the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


#: ``mallopt`` parameter number of glibc's mmap threshold.
M_MMAP_THRESHOLD = -3


def pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its initial 128 KiB.

    glibc raises the threshold whenever a block it mapped is freed, so
    whether a later machine-sized buffer is mapped or carved from the
    heap depends on allocation order, and peak memory flipped by one
    disk image (~16 MB) between runs of one seed.  Setting the threshold
    turns that adjustment off.  Elsewhere (no glibc) nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def nearest_rank(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(fraction * len(ordered))))]


def consistency(reps, labels) -> list:
    """Digest and virtual-figure mismatches between repetitions."""
    problems = []
    first = reps[0]
    for label, rep in zip(labels[1:], reps[1:]):
        if rep.digests != first.digests:
            problems.append(f"{label}: digests differ from {labels[0]}")
        if rep.virtual != first.virtual:
            problems.append(f"{label}: virtual figures differ from {labels[0]}")
    for label, rep in zip(labels, reps):
        problems.extend(f"{label}: {problem}" for problem in rep.problems)
    return problems


def report_lines(name: str, seed: int, rep, host: dict = None) -> None:
    """Human-readable figures, including the ungated ones."""
    print(f"workload {name}  seed {seed}")
    for key, value in sorted(rep.virtual.items()):
        unit = "1/s" if key.endswith("per_s") else key.rsplit("_", 1)[1]
        print(f"  {key:22s} {value:14.4f} {unit}  (virtual)")
    for key, (value, unit, samples) in (host or {}).items():
        print(f"  {key:22s} {value:14.4f} {unit}  (host, n={samples})")
    print(f"  {'fail_frac':22s} {rep.failed / max(1, rep.attempted):14.6f}")
    for key, value in sorted(rep.info.items()):
        print(f"  {key:22s} {value:14.4f}")
    for key, value in sorted(rep.digests.items()):
        print(f"  digest {key:15s} {value[:16]}")


def timed(workloads, name: str, seed: int, seconds: float):
    fn, warm = workloads.WORKLOADS[name]
    fn(seed, True, warm)
    reps = []
    began = perf_counter()
    while True:
        # Each repetition starts from a collected heap, so memory and
        # collector pauses do not depend on the repetitions before it.
        gc.collect()
        reps.append(fn(seed, True))
        elapsed = perf_counter() - began
        # Start another repetition only if it should end within the
        # measuring time (the first one always runs).
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = consistency(reps, [f"rep {i}" for i in range(len(reps))])
    used = [rep for rep in reps if not rep.problems] or reps
    samples = sum(len(rep.host_latencies_s) for rep in used)

    def p50_ms(attr: str) -> float:
        return statistics.median(nearest_rank(getattr(rep, attr), 0.50) for rep in used) * 1e3

    metrics = {
        "setup_s": statistics.median(s for rep in used for s in rep.setup_s),
        "ref_ops_per_s": statistics.median(rep.ops / rep.ref_timed_s for rep in used),
        "ref_op_p50_ms": p50_ms("ref_latencies_s"),
        "peak_rss_mb": peak_rss_mb,
        "v_recovery_s": reps[0].virtual["v_recovery_s"],
    }
    host = {
        "host_ops_per_s": (
            statistics.median(rep.ops / rep.timed_s for rep in used), "1/s", len(used)
        ),
        "host_op_p50_ms": (p50_ms("host_latencies_s"), "ms", samples),
    }
    if samples >= 1000:
        pooled = [s for rep in used for s in rep.host_latencies_s]
        host["host_op_p99_ms"] = (nearest_rank(pooled, 0.99) * 1e3, "ms", samples)
    host["ref_ops_per_s"] = (metrics["ref_ops_per_s"], "1/s", len(used))
    host["ref_op_p50_ms"] = (metrics["ref_op_p50_ms"], "ms", samples)
    report_lines(name, seed, reps[0], host)
    loops = [s for rep in used for s in rep.loop_s]
    print(
        f"  repetitions            {len(reps)} ({len(used)} used), "
        f"timed {sum(rep.timed_s for rep in reps):.2f} s"
    )
    print(
        f"  calibration loop       median {statistics.median(loops) * 1e3:.2f} ms, "
        f"quartiles {' '.join(f'{q * 1e3:.2f}' for q in statistics.quantiles(loops, n=4))} "
        f"(n={len(loops)}; reference {workloads.HostClock.REFERENCE_S * 1e3:.0f} ms)"
    )
    for index, rep in enumerate(reps):
        print(
            f"    rep {index}: setup {statistics.median(rep.setup_s):.3f} s, "
            f"timed {rep.timed_s:.3f} s, "
            f"{rep.ops / rep.timed_s:.2f} ops/s, {rep.ops / rep.ref_timed_s:.2f} ref ops/s"
        )
    return problems, reps, metrics


def selftest(workloads, tracing) -> list:
    """Counter summing and the virtual-time ledger on a crash-free run:
    with no reboot the summed counters must equal the end-of-run read,
    and the ledger must balance."""
    tracer = tracing.Tracer()
    with tracer:
        rep = workloads.serve_storm(
            7, True, workloads.ServeSize(clients=4, programs=6, crashes=0)
        )
    problems = [f"self-test: {problem}" for problem in rep.problems]
    if dict(tracer.counters.summed) != dict(tracer.counters.end_read):
        problems.append("self-test: crash-free summed counters != end-of-run read")
    if sum(tracer.vt_ns.values()) != tracer.clock_ns:
        problems.append("self-test: virtual-time ledger does not balance")
    return problems


def traced(workloads, tracing, name: str, seed: int):
    fn, warm = workloads.WORKLOADS[name]
    fn(seed, True, warm)
    gc.collect()
    untraced = fn(seed, True)
    gc.collect()
    reference = fn(seed, False)
    problems = selftest(workloads, tracing)
    gc.collect()
    tracer = tracing.Tracer()
    with tracer:
        traced_rep = fn(seed, True, after_unit=tracer.settle)
    problems += consistency(
        [untraced, reference, traced_rep], ["untraced", "reference engine", "traced"]
    )
    vt_total = sum(tracer.vt_ns.values())
    if vt_total != tracer.clock_ns:
        problems.append(
            f"virtual-time ledger: accounts {vt_total} ns != clocks {tracer.clock_ns} ns"
        )
    summed, end_read = tracer.counters.summed, tracer.counters.end_read
    if traced_rep.info.get("recoveries", 0) and not (
        summed["kernel.syscalls"] > end_read["kernel.syscalls"]
    ):
        problems.append("summed syscalls do not exceed the end-of-run read after reboots")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.spans.write(str(out / f"{name}-seed{seed}.spans"))
    report_lines(name, seed, untraced)
    metrics = layer_metrics(tracer, tracing, traced_rep.timed_s / untraced.timed_s)
    return problems, [untraced, reference, traced_rep], metrics


def layer_metrics(tracer, tracing, overhead: float) -> dict:
    spans, summed = tracer.spans, tracer.counters.summed
    lookups = summed["fs.ubc.hits"] + summed["fs.ubc.misses"]
    metrics = {
        "core.guard.end_write.calls": spans.calls["core.guard.end_write"],
        "core.guard.end_write.self_s": spans.self_s["core.guard.end_write"],
        "core.protection.windows": summed["core.protection.windows"],
        "core.protection.window.self_s": spans.self_s["core.protection.window"],
        "hw.mmu.pte_toggles": summed["hw.mmu.pte_toggles"],
        "fs.ufs.self_s": spans.self_s["fs.ufs"],
        "kernel.syscalls": summed["kernel.syscalls"],
        "kernel.syscall.self_s": spans.self_s["kernel.syscall"],
        "hw.bus.loads": summed["hw.bus.loads"],
        "hw.bus.stores": summed["hw.bus.stores"],
        "isa.call.calls": spans.calls["isa.call"],
        "isa.call.self_s": spans.self_s["isa.call"],
        "isa.instructions": tracer.instructions,
        "faults.injected": spans.calls["faults.inject"],
        "system.reboot.s": spans.total_s["system.reboot"],
        "core.warm_reboot.s": spans.total_s["core.warm_reboot"],
        "server.audit.s": spans.total_s["server.audit"],
        "fs.fsck.s": spans.total_s["fs.fsck"],
        "fs.dissect.s": spans.total_s["fs.dissect"],
        "system.reboot.vs": tracer.reboot_vns / 1e9,
        "disk.busy_vs": summed["disk.busy_ns"] / 1e9,
        "disk.sync_wait_vs": summed["disk.sync_wait_ns"] / 1e9,
        "disk.reads": summed["disk.reads"],
        "disk.writes": summed["disk.writes"],
        "fs.ubc.hit_ratio": summed["fs.ubc.hits"] / lookups if lookups else 0.0,
        "fs.ubc.evictions": summed["fs.ubc.evictions"],
        "server.pump.self_s": spans.self_s["server.pump"],
        "server.front.self_s": spans.self_s["server.front"],
        "server.batch.mean": statistics.mean(tracer.batches) if tracer.batches else 0.0,
        "server.backlog.p99": nearest_rank(tracer.backlogs, 0.99) if tracer.backlogs else 0,
        "server.retries": tracer.counters.retries,
        "system.build.s": spans.total_s["system.build"],
        "vt.total_s": tracer.clock_ns / 1e9,
        "trace.overhead": overhead,
    }
    for account in tracing.VT_ACCOUNTS:
        metrics[f"vt.{account}_s"] = tracer.vt_ns[account] / 1e9
    for package, share in tracer.host_shares().items():
        metrics[f"host.share.{package}"] = share
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no package source under {ROOT / 'src'}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    pin_mmap_threshold()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; know {sorted(workloads.WORKLOADS)}")
    if args.trace:
        problems, reps, values = traced(workloads, tracing, args.workload, args.seed)
        listed = spec["per_layer"]
    else:
        problems, reps, values = timed(workloads, args.workload, args.seed, args.seconds)
        listed = spec["end_to_end"]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    missing = [entry["name"] for entry in listed if entry["name"] not in values]
    if missing:
        return fail(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(rep.attempted for rep in reps),
                "failed": sum(rep.failed for rep in reps),
                "metrics": {
                    entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
                    for entry in listed
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
