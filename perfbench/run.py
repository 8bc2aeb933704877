"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload presto --seed 7 --seconds 15 \\
        --trace 0 [--out DIR]

Runs repetitions of the workload (``fanout``, ``presto``, ``rwho`` or
``build``; see ``workloads.py``) for ``--seconds`` seconds in one
closed loop with one client, checks every repetition's outputs, prints a
report, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with nothing wrapped. Their times are *reference seconds*: each
repetition's host seconds scaled by a calibration loop scored right
before and after it (see ``REFERENCE_MOPS``), so host speed drift does
not read as a regression. ``sim_cycles`` is exact per seed; on the
default seed it and the other exact outputs must equal ``pins.json``.
``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics: host self time per layer
from ``layers.LayerTracer``, counts read from the program's public stats
afterwards, the simulated ``Clock.by_category`` split, and the tracing
overhead. A traced repetition must charge exactly the simulated cycles
of an untraced one; a mismatch counts as a failed repetition.

Nothing is written unless ``--out DIR`` is given; then the run record
(host, calibration, every repetition) and the traced spans go there.
The program is imported from ``src/`` next to this directory, so the
benchmark measures the checkout it sits in.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1993

#: Repetitions made even when ``--seconds`` has already run out.
MIN_REPS = 3

#: Set-ups timed per untraced run: each repetition's own, topped up with
#: set-ups that are timed and discarded, so ``setup_s`` is a median of
#: enough samples to be steady even when a repetition is long.
SETUP_SAMPLES = 21

#: ``Clock.by_category`` keys reported as ``sim.<key>`` per-layer metrics.
SIM_CATEGORIES = ("instructions", "syscalls", "faults", "signals",
                  "switches", "copies", "file_io", "disk", "mappings", "net",
                  "journal", "messages", "user_memory")

#: AddressSpace methods counted as ``vm.accesses``.
VM_ACCESSES = ("load_word", "store_word", "fetch_word", "load_half",
               "load_byte", "read_bytes", "write_bytes", "read_cstring",
               "write_cstring")

#: The calibration score of the reference host. End-to-end times are
#: reported in reference seconds: measured host seconds times the score
#: taken around the repetition, divided by this. On a shared host whose
#: speed drifts from minute to minute this cuts the run-to-run spread of
#: the medians by about half (an object-and-dict loop tracked the
#: simulator better than an integer loop); raw host seconds stay in the
#: report and the run record.
REFERENCE_MOPS = 1.5

UNITS = {"run_s": "s", "setup_s": "s", "sim_mcycles_per_s": "Mcycles/s",
         "sim_cycles": "cycles", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# host record
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """The checkout's commit when it is a git work tree, else unknown."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class _Probe:
    """What the calibration loop allocates and calls: the simulator's
    host time goes mostly to small objects, method calls and dicts."""

    def __init__(self, value: int) -> None:
        self.value = value
        self.items = [value]

    def key(self, salt: int) -> int:
        return (self.value * salt + len(self.items)) & 0xFFFF


def calibrate(n: int = 100_000) -> float:
    """Score of a fixed pure-Python loop, in million iterations per
    second. The runner scores the host right before and after every
    repetition, so each repetition is scaled by how fast the host ran
    around it (see :data:`REFERENCE_MOPS`)."""
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(n):
        key = _Probe(i).key(i)
        counts[key] = counts.get(key, 0) + 1
    return n / (time.perf_counter() - start) / 1e6


def host_record(seed: int) -> Dict[str, object]:
    return {"python": platform.python_version(), "cpu": cpu_model(),
            "nproc": os.cpu_count(), "seed": seed, "commit": git_commit(),
            "calibration_mops": round(statistics.median(
                calibrate() for _ in range(5)), 4)}


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

def snapshot(kernels) -> List[Dict[str, int]]:
    return [dict(kernel.clock.by_category, cycles=kernel.clock.cycles)
            for kernel in kernels]


def category_delta(kernels, before) -> Dict[str, int]:
    """Summed per-category cycles charged since *before* (kernels that
    did not exist then start from zero)."""
    delta: Dict[str, int] = {}
    for index, now in enumerate(snapshot(kernels)):
        base = before[index] if index < len(before) else {}
        for key, value in now.items():
            delta[key] = delta.get(key, 0) + value - base.get(key, 0)
    return delta


def event_counts(kernels, delta) -> Dict[str, int]:
    """Event counts behind the cycle categories (cost models are fixed
    per run, so one kernel's costs convert the sums)."""
    costs = kernels[0].clock.costs
    return {"syscalls": delta.get("syscalls", 0) // costs.syscall,
            "faults": delta.get("faults", 0) // costs.page_fault}


def run_rep(workload, reference, tracer=None, record_spans=False):
    """Set up, run and check one repetition; returns its record."""
    gc.collect()
    score_before = calibrate()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        state = workload.setup()
        setup_s = time.perf_counter() - start
        kernels = workload.kernels(state)
        before = snapshot(kernels)
        smp_before = sum(k.smp.rounds for k in kernels if k.smp is not None)
        if tracer is not None:
            counts_before = registry_counts(tracer)
            tracer.reset()
            tracer.recording = record_spans
        start = time.perf_counter()
        workload.run(state)
        run_s = time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
    finally:
        if tracer is not None:
            tracer.remove()
    scale = (score_before + calibrate()) / 2 / REFERENCE_MOPS
    kernels = workload.kernels(state)
    delta = category_delta(kernels, before)
    work = delta.pop("cycles")
    rep = {"traced": tracer is not None, "setup_s": setup_s, "run_s": run_s,
           "scale": scale, "work_cycles": work,
           "sim_cycles": workload.sim_cycles(state, work),
           "categories": delta,
           "events": event_counts(kernels, delta),
           "smp_rounds": sum(k.smp.rounds for k in kernels
                             if k.smp is not None) - smp_before,
           "exact": workload.exact(state)}
    if tracer is not None:
        rep["layers"] = layer_metrics(tracer, rep, counts_before)
    rep["problems"] = workload.check(state, reference)
    return rep


# ---------------------------------------------------------------------------
# per-layer metrics (traced repetitions)
# ---------------------------------------------------------------------------

def registry_counts(tracer) -> Dict[str, int]:
    """Public stats of every object the traced repetition created."""
    counts: Dict[str, int] = {}

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    registry = tracer.registry
    for cpu in registry["cpu"]:
        add("decode_hits", cpu.decode_hits)
        add("decode_misses", cpu.decode_misses)
    for space in registry["space"]:
        add("tlb_hits", space.tlb_hits)
        add("tlb_misses", space.tlb_misses)
    for ldl in registry["ldl"]:
        for key in ("modules_linked", "scope_lookups", "directory_scans",
                    "transient_retries"):
            add(key, getattr(ldl.stats, key))
    for cluster in registry["cluster"]:
        stats = cluster.fabric.stats
        add("frames_sent", stats.frames_sent)
        add("bytes_sent", stats.bytes_sent)
        add("retransmits", stats.retransmits)
        add("net_rounds", cluster.round)
        for node in cluster.coherence_stats():
            add("coherence_fetches", node["fetches"])
            add("coherence_invalidations", node["invalidations"])
    for journal in registry["journal"]:
        add("journal_records", journal.records_written)
    return counts


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(tracer, rep, counts_before) -> Dict[str, float]:
    after = registry_counts(tracer)
    count = {key: value - counts_before.get(key, 0)
             for key, value in after.items()}
    c = count.get
    self_s = tracer.layer_self_s()
    parses, parse_s = tracer.tally("ObjectFile", "from_bytes")
    view_calls = sum(tracer.tally(owner)[0]
                     for owner in ("Mem", "StructDef", "StructView"))
    events = rep["events"]
    metrics = {
        "hw.steps": tracer.tally("Cpu", "step")[0],
        "hw.self_s": self_s["hw"],
        "hw.decode_hit_ratio": _ratio(c("decode_hits", 0),
                                      c("decode_misses", 0)),
        "vm.accesses": sum(tracer.tally("AddressSpace", method)[0]
                           for method in VM_ACCESSES),
        "vm.self_s": self_s["vm"],
        "vm.tlb_hit_ratio": _ratio(c("tlb_hits", 0), c("tlb_misses", 0)),
        "vm.faults": events["faults"],
        "kernel.syscalls": events["syscalls"],
        "kernel.self_s": self_s["kernel"],
        "smp.rounds": rep["smp_rounds"],
        "linker.self_s": self_s["linker"],
        "linker.modules_linked": c("modules_linked", 0),
        "linker.scope_lookups": c("scope_lookups", 0),
        "linker.directory_scans": c("directory_scans", 0),
        "linker.transient_retries": c("transient_retries", 0),
        "objfile.self_s": self_s["objfile"],
        "objfile.parses": parses,
        "objfile.parse_self_s": parse_s,
        "objfile.distinct_ratio": len(tracer.images) / parses
        if parses else 0.0,
        "objfile.serializes": tracer.tally("ObjectFile", "to_bytes")[0],
        "fs.resolves": tracer.tally("Vfs", "resolve")[0],
        "fs.self_s": self_s["fs"],
        "fs.bytes_read": tracer.bytes_read,
        "fs.bytes_written": tracer.bytes_written,
        "sfs.addr_lookups": tracer.tally("*", "lookup_address")[0],
        "sfs.self_s": self_s["sfs"],
        "net.self_s": self_s["net"],
        "net.frames_sent": c("frames_sent", 0),
        "net.bytes_sent": c("bytes_sent", 0),
        "net.retransmits": c("retransmits", 0),
        "net.rounds": c("net_rounds", 0),
        "coherence.self_s": self_s["coherence"],
        "coherence.faults": tracer.tally("CoherenceAgent", "on_fault")[0],
        "coherence.fetches": c("coherence_fetches", 0),
        "coherence.invalidations": c("coherence_invalidations", 0),
        "runtime.self_s": self_s["runtime"],
        "runtime.view_calls": view_calls,
        "runtime.allocs": tracer.tally("SegmentHeap", "alloc")[0],
        "toyc.self_s": self_s["toyc"],
        "asm.self_s": self_s["asm"],
        "disk.self_s": self_s["disk"],
        "disk.journal_records": c("journal_records", 0),
        # Application code (native process bodies) plus everything no
        # wrapper covers: the timed phase minus every named layer.
        "other.self_s": rep["run_s"] - sum(
            seconds for layer, seconds in self_s.items()
            if layer != "other"),
    }
    for key in SIM_CATEGORIES:
        metrics[f"sim.{key}"] = rep["categories"].get(key, 0)
    return metrics


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith("sim."):
        return "cycles"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def percentile_report(samples: List[float]) -> str:
    """The median, and the highest percentile with >= 10 samples beyond
    it, if the run has enough samples for one."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f} s, n={n}"
    beyond = n - 10
    if beyond >= 1:
        ordered = sorted(samples)
        pct = 100.0 * beyond / n
        text += f", p{pct:.0f} {ordered[beyond - 1]:.4f} s " \
                f"({n - beyond} samples beyond)"
    else:
        text += " (no percentile has 10 samples beyond it)"
    return text


def load_pins() -> Dict[str, dict]:
    with open(HERE / "pins.json") as handle:
        return json.load(handle)


def pin_problems(rep, pins: Optional[dict]) -> List[str]:
    if not pins:
        return []
    seen = {"sim_cycles": rep["sim_cycles"],
            "categories": dict(sorted(rep["categories"].items())),
            **rep["exact"]}
    return [f"pin {key}: {seen.get(key)!r} != {value!r}"
            for key, value in pins.items() if seen.get(key) != value]


def measure(workload, seconds: float, trace: bool,
            pins: Optional[dict]) -> Dict[str, object]:
    from layers import LayerTracer

    reference = workload.oracle()
    reps: List[dict] = []
    spans: List[dict] = []
    spans_dropped = 0
    start = time.perf_counter()
    while True:
        untraced = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        done = time.perf_counter() - start >= seconds
        if trace:
            if done and untraced and traced:
                break
            use_tracer = len(traced) < len(untraced)
        else:
            if done and len(reps) >= MIN_REPS:
                break
            use_tracer = False
        if use_tracer:
            tracer = LayerTracer()
            rep = run_rep(workload, reference, tracer,
                          record_spans=not traced)
            if not traced:
                spans = tracer.span_rows()
                spans_dropped = tracer.spans_dropped
        else:
            rep = run_rep(workload, reference)
        rep["problems"] += pin_problems(rep, pins)
        if reps and rep["sim_cycles"] != reps[0]["sim_cycles"]:
            rep["problems"].append(
                f"sim_cycles {rep['sim_cycles']} != first repetition's "
                f"{reps[0]['sim_cycles']}")
        reps.append(rep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [rep["setup_s"] * rep["scale"] for rep in reps]
    if not trace and len(setups) < SETUP_SAMPLES:
        extra = []
        score_before = calibrate()
        while len(setups) + len(extra) < SETUP_SAMPLES:
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            extra.append(time.perf_counter() - start)
        scale = (score_before + calibrate()) / 2 / REFERENCE_MOPS
        setups += [seconds * scale for seconds in extra]
    return {"reps": reps, "spans": spans, "spans_dropped": spans_dropped,
            "peak_rss_mb": peak_rss_mb, "setups": setups}


def summarize(result, trace: bool) -> Dict[str, float]:
    reps = result["reps"]
    untraced = [r for r in reps if not r["traced"]]
    if not trace:
        return {
            "run_s": statistics.median(r["run_s"] * r["scale"]
                                       for r in reps),
            "setup_s": statistics.median(result["setups"]),
            "sim_mcycles_per_s": statistics.median(
                r["work_cycles"] / (r["run_s"] * r["scale"]) / 1e6
                for r in reps),
            "sim_cycles": reps[0]["sim_cycles"],
            # The interpreter's peak over the whole run, rwho's file
            # oracle included.
            "peak_rss_mb": result["peak_rss_mb"],
        }
    traced = [r for r in reps if r["traced"]]
    metrics = {key: statistics.median(r["layers"][key] for r in traced)
               for key in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (
        statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in untraced))
    return metrics


def report(workload, host, result, metrics) -> List[str]:
    reps = result["reps"]
    untraced = [r for r in reps if not r["traced"]]
    failed = [r for r in reps if r["problems"]]
    instructions = reps[0]["categories"].get("instructions", 0)
    ref_runs = [r["run_s"] * r["scale"] for r in untraced]
    minstr = statistics.median(instructions / seconds / 1e6
                               for seconds in ref_runs)
    score = statistics.median(r["scale"] for r in reps) * REFERENCE_MOPS
    lines = [f"workload {workload.name}: {workload.why}",
             "host " + json.dumps(host, sort_keys=True),
             "run_s (reference seconds) " + percentile_report(ref_runs),
             "raw host run_s " + percentile_report(
                 [r["run_s"] for r in untraced]),
             f"host calibration around repetitions: median {score:.3f} "
             f"Mops (reference {REFERENCE_MOPS})",
             f"sim_minstr_per_s {minstr:.4f} ({instructions} instructions "
             f"per repetition)",
             f"fail_ratio {len(failed) / len(reps):.4f} "
             f"({len(failed)} of {len(reps)} repetitions)"]
    for rep in failed[:5]:
        lines.append("  problem: " + "; ".join(rep["problems"][:3]))
    for name, value in metrics.items():
        lines.append(f"  {name:28s} {value:>16.6g} {unit_of(name)}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the run record and "
                                      "spans (nothing is written without)")
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    pins = None
    if args.seed == DEFAULT_SEED and not args.tiny:
        pins = load_pins().get(args.workload)
    host = host_record(args.seed)
    trace = bool(args.trace)
    result = measure(workload, args.seconds, trace, pins)
    metrics = summarize(result, trace)
    reps = result["reps"]
    failed = sum(1 for rep in reps if rep["problems"])
    for line in report(workload, host, result, metrics):
        print(line)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(out / f"{stem}.json", "w") as handle:
            json.dump({"host": host, "workload": args.workload,
                       "metrics": metrics, "reps": reps,
                       "setups": result["setups"],
                       "spans_dropped": result["spans_dropped"]}, handle,
                      indent=1, default=str)
        if result["spans"]:
            with open(out / f"{stem}.spans.jsonl", "w") as handle:
                for row in result["spans"]:
                    handle.write(json.dumps(row) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(reps), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
