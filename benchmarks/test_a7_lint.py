"""A7 — reprolint: static verification is free in simulated time.

Not a paper experiment: this guards the repo's own verification gate.
Arming the ``lds``/``ldl`` reprolint gate must leave every simulated
number — total cycles and the per-category breakdown — bit-identical
to the gate-off run, because the analyzer only ever reads in-memory
objects and never issues a syscall. The host-side cost of sweeping
``reprolint --strict`` across the whole module farm is recorded in
``BENCH_A7_LINT.json`` so successive runs leave a trajectory.
"""

from __future__ import annotations

import time

from repro import boot
from repro.bench.harness import Experiment, write_bench_json
from repro.bench.workloads import (
    build_module_fanout,
    fanout_expected_exit,
    make_shell,
)
from repro.session import Session
from repro.tools.cli import reprolint_main

WIDTH = 12
USED = 12


def run_fanout(verify: bool):
    """The E2 fanout with the lint gate toggled by the session."""
    with Session(lint=verify).run():
        system = boot()
        kernel = system.kernel
        shell = make_shell(kernel)
        wall_start = time.perf_counter()
        graph = build_module_fanout(kernel, shell, width=WIDTH,
                                    used=USED, module_dir="/shared/fan")
        proc = kernel.create_machine_process("p", graph.executable)
        code = kernel.run_until_exit(proc)
        wall = time.perf_counter() - wall_start
        assert code == fanout_expected_exit(USED)
        return wall, kernel.clock.cycles, \
            dict(kernel.clock.by_category), kernel, shell


def lint_everything(kernel, shell):
    """reprolint --strict over the farm: templates, segments, image."""
    paths = ["/opt/fanout/main"]
    for index in range(WIDTH):
        paths.append(f"/shared/fan/mod{index}.o")
        paths.append(f"/shared/fan/helper_{index}.o")
    for index in range(USED):
        # Running main created these public segments lazily.
        paths.append(f"/shared/fan/mod{index}")
    wall_start = time.perf_counter()
    out = reprolint_main(kernel, shell, ["--strict"] + paths)
    wall = time.perf_counter() - wall_start
    return wall, out, len(paths)


def test_a7_lint_gate_is_cycle_neutral(report, benchmark):
    def run():
        off = run_fanout(verify=False)
        on = run_fanout(verify=True)
        sweep = lint_everything(on[3], on[4])
        return off, on, sweep

    off, on, sweep = benchmark.pedantic(run, rounds=1, iterations=1)
    wall_off, cycles_off, categories_off, _k, _s = off
    wall_on, cycles_on, categories_on, _k, _s = on
    lint_wall, lint_out, npaths = sweep
    info_notes = lint_out.count("REL004")

    experiment = Experiment(
        "A7_LINT",
        f"reprolint gate over a {WIDTH}-module fanout",
        "static verification reads only in-memory objects: the gate "
        "adds zero simulated cycles to link and load",
    )
    experiment.add("simulated cycles (gate off)", cycles_off)
    experiment.add("simulated cycles (gate on)", cycles_on)
    experiment.add("cycle delta", cycles_on - cycles_off,
                   detail="must be exactly zero")
    experiment.add("files linted", npaths, unit="files",
                   detail="templates + public segments + executable")
    experiment.add("advisory findings", info_notes, unit="findings",
                   detail="REL004 far-call notes on templates")
    report(experiment)

    write_bench_json(experiment, wall_seconds={
        "fanout_gate_off": wall_off,
        "fanout_gate_on": wall_on,
        "reprolint_sweep": lint_wall,
    })

    # The tentpole guarantee: arming the gate perturbs nothing the
    # simulated machine can observe.
    assert cycles_on == cycles_off
    assert categories_on == categories_off
    # --strict did not raise, and every path rendered a clean tally.
    assert lint_out.count("0 error") == npaths
    # Cross-module call sites exist, so the sweep saw real work.
    assert info_notes > 0
