"""The run configuration (repro.session) and the soaks' drift oracle.

Covers the environment parser, the one ambient slot (nesting, what a
run collects, what leaving it restores), a Hypothesis property that
any mix of observe-only planes leaves a small workload's cycles and
stdout byte-identical and records/replays with zero divergence, a
soak catching host-state drift, and a tooling gate that no per-plane
arming registry or scattered environment read comes back.
"""

from __future__ import annotations

import ast
import functools
import io
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import boot
from repro.bench.workloads import (
    build_module_fanout,
    fanout_expected_exit,
    make_shell,
)
from repro.inject import FaultKind, FaultPlan, Plane
from repro.rr import record_call, replay_call
from repro.sanitize.state import ACTIVE as _NO_SANITIZER
from repro.session import ENV, Session, active_run, current
from repro.tools.cli import reprochaos_main
from repro.trace import tracer as trace_state

SRC = Path(repro.__file__).resolve().parent
FIXTURE = str(Path(__file__).resolve().parent / "fixtures"
              / "host_counter.py")


class TestFromEnv:
    def test_empty_environment_is_the_default_session(self):
        assert Session.from_env({}) == Session()

    def test_every_variable(self):
        session = Session.from_env({
            "REPRO_TRACE": "1", "REPRO_TRACE_KINDS": "FAULT,INJECT",
            "REPRO_TRACE_CAPACITY": "512", "REPRO_SAN": "1",
            "REPRO_CORES": "4", "REPRO_TLB": "0", "REPRO_LINT": "1",
            "REPRO_CLUSTER": "8"})
        assert session == Session(
            trace_kinds=("FAULT", "INJECT"), trace_capacity=512,
            sanitize_limit=256, ncores=4, tlb=False, lint=True)

    def test_kinds_and_capacity_need_repro_trace(self):
        assert Session.from_env({"REPRO_TRACE_KINDS": "FAULT",
                                 "REPRO_TRACE_CAPACITY": "8"}) \
            == Session()

    def test_roundtrip_through_fields(self):
        session = Session(
            trace_kinds=("NET",), trace_capacity=64, interval=0,
            plans=[FaultPlan(Plane.NET, FaultKind.DROP,
                             probability=0.25)],
            inject_seed=9, sanitize_limit=16, disk_nblocks=2048,
            disk_seed=3, disk_window=4, ncores=2, lint=True, tlb=False)
        assert Session.from_fields(session.to_fields()) == session


class TestRun:
    def test_outside_any_block_boots_follow_the_environment(self):
        assert active_run() is None
        assert current() == ENV

    def test_run_collects_each_boot(self):
        plan = FaultPlan(Plane.SYSCALL, FaultKind.ERROR,
                         match="/never/matches/*")
        session = Session(trace_capacity=256, plans=[plan],
                          interval=0, sanitize_limit=8,
                          disk_nblocks=2048, ncores=2)
        with session.run() as run:
            first = boot().kernel
            second = boot().kernel
        assert run.kernels == [first, second]
        assert [i.kernel for i in run.injectors] == [first, second]
        assert [r.kernel for r in run.recorders] == [first, second]
        assert first.recorder is run.recorders[0]
        assert [store.device.name for store in run.stores] \
            == ["disk0", "disk1"]
        assert first.disk is run.stores[0]
        assert first.sanitizer is run.sanitizer is second.sanitizer
        assert first.ncores == 2
        assert run.tracer.boot_index == 2

    def test_leaving_restores_the_previous_slot(self):
        outer = Session(trace_capacity=64)
        with outer.run() as run:
            boot()
            assert trace_state.TRACER is run.tracer
            with Session().run() as inner:
                assert active_run() is inner
                assert not trace_state.TRACER.enabled
                quiet = boot().kernel
            assert active_run() is run
            assert trace_state.TRACER is run.tracer
        assert quiet not in run.kernels
        assert active_run() is None
        assert not trace_state.TRACER.enabled
        from repro.sanitize import state

        assert state.ACTIVE is _NO_SANITIZER

    def test_explicit_arguments_override_the_session(self):
        with Session(ncores=4, disk_nblocks=2048).run() as run:
            kernel = boot(ncores=1, disk=None).kernel
            from repro.disk import BlockDevice

            durable = boot(disk=BlockDevice(nblocks=2048)).kernel
        assert kernel.ncores == 1 and kernel.smp is None
        assert durable.disk is not None
        assert run.stores == [kernel.disk]


# ----------------------------------------------------------------------
# composition: observe-only planes in any mix
# ----------------------------------------------------------------------

def _fanout():
    """A 16-module lazy fanout; prints its exit code and cycles."""
    system = boot()
    kernel = system.kernel
    shell = make_shell(kernel)
    graph = build_module_fanout(kernel, shell, width=16, used=16,
                                module_dir="/shared/fan")
    proc = kernel.create_machine_process("p", graph.executable)
    code = kernel.run_until_exit(proc)
    assert code == fanout_expected_exit(16)
    print(code, kernel.clock.cycles,
          sorted(kernel.clock.by_category.items()))


#: Observe-only planes: each may watch the run but never steer it.
OBSERVE_ONLY = {
    "trace": {"trace_capacity": 1 << 16},
    "record": {"interval": 200_000},
    "sanitize": {"sanitize_limit": 256},
    "inject": {"plans": [
        FaultPlan(Plane.SYSCALL, FaultKind.ERROR, match="/never/*"),
        FaultPlan(Plane.IO, FaultKind.ERROR, match="/never/*"),
        FaultPlan(Plane.LINKER, FaultKind.ERROR, match="/never/*"),
        FaultPlan(Plane.VMFAULT, FaultKind.SPURIOUS, match="/never/*"),
    ], "inject_seed": 1993},
}

_UNARMED = Session().execute(_fanout)


class TestComposition:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(planes=st.sets(st.sampled_from(sorted(OBSERVE_ONLY))),
           interval=st.integers(min_value=50_000, max_value=1_000_000))
    def test_observe_only_planes_compose(self, planes, interval):
        """Any subset of trace, record, sanitize and inert inject
        planes: cycles, per-category cycles and stdout are
        byte-identical to the unarmed run, and the same mix records
        and replays with zero divergence."""
        fields = {}
        for plane in planes:
            fields.update(OBSERVE_ONLY[plane])
        session = Session(**fields)
        armed = session.execute(_fanout)
        assert armed.status == "clean", armed.detail
        assert armed.output == _UNARMED.output
        if "sanitize" in planes:
            assert armed.run.sanitizer.report.clean
        if "inject" in planes:
            assert armed.run.injectors[0].stats.checked > 0
            assert armed.run.injectors[0].stats.triggered == 0
        recording = record_call(_fanout, session=session,
                                interval=interval)
        assert recording.outcome == "clean"
        report = replay_call(recording, _fanout)
        assert report.ok, report.render()


# ----------------------------------------------------------------------
# the soaks catch drift
# ----------------------------------------------------------------------

class TestSoakDrift:
    def test_reprochaos_fails_on_host_state_drift(self):
        out = io.StringIO()
        status = reprochaos_main(["--rate", "0", FIXTURE], stdout=out)
        text = out.getvalue()
        assert status == 1, text
        assert "REPLAY-DRIFT" in text
        assert "first divergence: output" in text


# ----------------------------------------------------------------------
# tooling gate: one run configuration, one environment parser
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _modules():
    return [(path.relative_to(SRC.parent).as_posix(),
             ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(SRC.rglob("*.py"))]


class TestOneRunConfiguration:
    def test_no_per_plane_registry(self):
        found = []
        for name, tree in _modules():
            for node in tree.body:
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                found.extend(f"{name}: {target.id}" for target in targets
                             if isinstance(target, ast.Name)
                             and target.id in ("_PENDING", "CAMPAIGN"))
        assert found == []

    def test_no_arming_functions(self):
        found = [f"{name}: {node.name}"
                 for name, tree in _modules() for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and (node.name.startswith(("request_", "cancel_"))
                      or node.name == "attach_kernel")]
        assert found == []

    def test_environment_read_only_by_the_session(self):
        found = []
        for name, tree in _modules():
            if name == "repro/session.py":
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "os" \
                        and node.attr in ("environ", "getenv",
                                          "environb"):
                    found.append(f"{name}:{node.lineno}")
                elif isinstance(node, ast.ImportFrom) \
                        and node.module == "os" \
                        and any(alias.name in ("environ", "getenv")
                                for alias in node.names):
                    found.append(f"{name}:{node.lineno}")
        assert found == []
        assert "os.environ" in (SRC / "session.py").read_text()
