"""The run configuration: one immutable :class:`Session` for every plane.

A *plane* is an optional feature a run can switch on: tracing, fault
injection, recording, the sanitizer, a durable store per boot. A
:class:`Session` holds every run-wide value those planes and the
machine take, and nothing else::

    session = Session(plans=(FaultPlan(...),), inject_seed=7,
                      trace_kinds=("INJECT",), trace_capacity=4096)
    with session.run() as run:
        system = boot()          # this boot gets its injector and tracer
    run.injectors[0].stats       # what the boots inside the block made

``with session.run()`` is the one ambient slot: every
:class:`~repro.kernel.kernel.Kernel` booted inside the block reads its
planes from the innermost active run, and the :class:`Run` collects
what each boot made (kernels, injectors, recorders, durable stores, the
shared sanitizer, the tracer). Leaving the block restores the previous
tracer, sanitizer and run. A plane is off when its field is None (or,
for injection, when there are no plans). Explicit per-boot arguments
keep their meaning: ``boot(ncores=..., disk=..., sanitize=...,
verify=...)`` and ``Cluster(n, seed=...)`` override the session.

Outside any block, boots follow :data:`ENV`, the session the process
environment describes. :meth:`Session.from_env` is the only parser of
the library's environment variables:

* ``REPRO_TRACE=1`` traces every boot; ``REPRO_TRACE_KINDS=K,K`` and
  ``REPRO_TRACE_CAPACITY=N`` narrow it;
* ``REPRO_SAN=1`` joins every boot to one sanitizer;
* ``REPRO_CORES=N`` sets the simulated CPU count;
* ``REPRO_TLB=0`` turns the software TLB off;
* ``REPRO_LINT=1`` arms the lds/ldl verification gate.

``REPRO_CLUSTER``, ``REPRO_HA`` and ``REPRO_HOSTS`` are not library
settings: they are inputs the example scripts read themselves, so
:func:`script_inputs` captures them for a recording and
:func:`applied_inputs` puts them back for its replay.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterator, List, Mapping, Optional, \
    Tuple

from repro.errors import RRError, SimulationError
from repro.inject.plan import FaultKind, FaultPlan, Plane
from repro.sanitize import state as _san_state
from repro.trace import tracer as _trace

#: Report cap of a sanitizer armed through ``REPRO_SAN``.
DEFAULT_REPORT_LIMIT = 256

#: Environment variables the example scripts read for themselves.
SCRIPT_INPUTS = ("REPRO_CLUSTER", "REPRO_HA", "REPRO_HOSTS")


@dataclass(frozen=True)
class Session:
    """Every run-wide value; see the module docstring."""

    #: Traced event kinds (None: all of them).
    trace_kinds: Optional[Tuple[str, ...]] = None
    #: Trace ring capacity (None: tracing off).
    trace_capacity: Optional[int] = None
    #: Fault plans installed on every boot (empty: injection off).
    plans: Tuple[FaultPlan, ...] = ()
    inject_seed: int = 0
    #: Cycles between checkpoints (None: not recording; 0: record the
    #: trace and per-boot cycles without checkpoints).
    interval: Optional[int] = None
    #: Report cap of the run's shared sanitizer (None: sanitizer off).
    sanitize_limit: Optional[int] = None
    #: Blocks of the fresh durable store every boot mounts (None: off).
    disk_nblocks: Optional[int] = None
    disk_seed: int = 0
    disk_window: Optional[int] = None
    #: Simulated CPU count of boots that do not pass ``ncores``.
    ncores: int = 1
    #: The lds/ldl verification gate for links that pass no ``verify``.
    lint: bool = False
    #: Whether new address spaces get a software TLB.
    tlb: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "plans", tuple(self.plans))
        if self.trace_kinds is not None:
            object.__setattr__(self, "trace_kinds", tuple(
                getattr(kind, "name", kind) for kind in self.trace_kinds))

    @classmethod
    def from_env(cls, environ: Mapping[str, str]) -> "Session":
        """The session the ``REPRO_*`` variables in *environ* describe."""
        traced = bool(environ.get("REPRO_TRACE"))
        kinds = [kind for kind in
                 environ.get("REPRO_TRACE_KINDS", "").split(",")
                 if kind.strip()]
        return cls(
            trace_kinds=tuple(kinds) if traced and kinds else None,
            trace_capacity=int(environ.get("REPRO_TRACE_CAPACITY",
                                           _trace.DEFAULT_CAPACITY))
            if traced else None,
            sanitize_limit=DEFAULT_REPORT_LIMIT
            if environ.get("REPRO_SAN") else None,
            ncores=max(1, int(environ.get("REPRO_CORES", "1") or "1")),
            tlb=environ.get("REPRO_TLB", "1") != "0",
            lint=environ.get("REPRO_LINT", "0") not in ("", "0"),
        )

    def quiet(self) -> "Session":
        """This session with every plane off (machine settings kept)."""
        return Session(ncores=self.ncores, lint=self.lint, tlb=self.tlb)

    def run(self) -> "Run":
        """A fresh :class:`Run` of this session (a context manager)."""
        return Run(self)

    def execute(self, runner: Callable[[], None]) -> "Outcome":
        """Run *runner* inside a fresh run with stdout captured, and
        sort how it ended (the one place an armed workload runs):

        * ``clean`` — it returned (or exited with status 0);
        * ``workload-failure`` — it stopped on a simulated error, a
          failed assertion or a non-zero exit: an injected fault
          surfaced, but through the simulation's own typed channels;
        * ``kernel-death`` — any other exception escaped: a fault broke
          the simulator itself. Always a bug.
        """
        status, detail, captured = "clean", "", io.StringIO()
        with self.run() as run:
            try:
                with contextlib.redirect_stdout(captured):
                    runner()
            except SystemExit as stop:
                if stop.code not in (None, 0):
                    status = "workload-failure"
                    detail = f"exit status {stop.code}"
            except (SimulationError, AssertionError) as error:
                status = "workload-failure"
                detail = f"{type(error).__name__}: {error}"
            except Exception as error:  # noqa: BLE001 - the oracle's duty
                status = "kernel-death"
                detail = f"{type(error).__name__}: {error}"
        return Outcome(status, detail, captured.getvalue(), run)

    # -- serialization (the rr manifest) ----------------------------------

    def to_fields(self) -> list:
        """This session as a :mod:`repro.disk.codec`-encodable row."""
        row: list = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "plans":
                value = [_encode_plan(plan) for plan in value]
            elif isinstance(value, bool):
                value = int(value)
            elif isinstance(value, tuple):
                value = list(value)
            row.append(value)
        return row

    @classmethod
    def from_fields(cls, row: list) -> "Session":
        names = [spec.name for spec in fields(cls)]
        if not isinstance(row, list) or len(row) != len(names):
            raise RRError("malformed session in recording")
        values = dict(zip(names, row))
        values["plans"] = [_decode_plan(plan) for plan in values["plans"]]
        values["lint"] = bool(values["lint"])
        values["tlb"] = bool(values["tlb"])
        return cls(**values)


def _encode_plan(plan: FaultPlan) -> list:
    """A fault plan as constructor fields (floats go through ``repr``
    — the codec is int/str/bytes only and ``repr`` round-trips)."""
    return [plan.plane.value, plan.kind.value, plan.match, plan.site,
            plan.pid, repr(plan.probability), plan.max_faults,
            plan.after, plan.errno, int(plan.transient)]


def _decode_plan(record: list) -> FaultPlan:
    try:
        (plane, kind, match, site, pid, probability, max_faults, after,
         errno, transient) = record
        return FaultPlan(plane=Plane.parse(plane), kind=FaultKind(kind),
                         match=match, site=site, pid=pid,
                         probability=float(probability),
                         max_faults=max_faults, after=after, errno=errno,
                         transient=bool(transient))
    except (ValueError, TypeError, KeyError) as error:
        raise RRError(f"malformed fault plan in recording: {error}")


#: The session of the process environment (what boots outside any
#: ``with session.run()`` block follow).
ENV = Session.from_env(os.environ)


@dataclass
class Outcome:
    """How one :meth:`Session.execute` ended, and what its run made."""

    status: str          # clean | workload-failure | kernel-death
    detail: str
    output: str          # captured stdout
    run: "Run"


@dataclass(eq=False)
class Run:
    """One activation of a session: the per-boot objects it made."""

    session: Session
    kernels: List[object] = field(default_factory=list)
    injectors: List[object] = field(default_factory=list)
    recorders: List[object] = field(default_factory=list)
    stores: List[object] = field(default_factory=list)
    #: The tracer every boot binds to (made at the first boot).
    tracer: Optional[object] = None
    #: The one sanitizer every boot joins (None: sanitizer off).
    sanitizer: Optional[object] = None
    _saved: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.session.sanitize_limit is not None:
            from repro.sanitize.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(
                report_limit=self.session.sanitize_limit)

    def __enter__(self) -> "Run":
        global _ACTIVE
        self._saved = (_ACTIVE, _trace.TRACER, _san_state.ACTIVE)
        _ACTIVE = self
        _trace.set_tracer(self.tracer)
        if self.sanitizer is not None:
            _san_state.ACTIVE = self.sanitizer
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE, previous_tracer, _san_state.ACTIVE = self._saved
        _trace.set_tracer(previous_tracer)

    def attach(self, kernel) -> None:
        """Arm a kernel booting inside this run (``Kernel.__init__``
        calls this before mounting its disk, so injected disk faults
        already see recovery reads)."""
        session = self.session
        self.kernels.append(kernel)
        if session.trace_capacity is not None:
            if self.tracer is None:
                self.tracer = _trace.Tracer(
                    capacity=session.trace_capacity,
                    kinds=session.trace_kinds)
                _trace.set_tracer(self.tracer)
            self.tracer.bind_clock(kernel.clock)
        if session.plans:
            from repro.inject.injector import install_injector

            self.injectors.append(install_injector(
                kernel, session.plans, session.inject_seed))
        if session.interval is not None:
            from repro.rr.recorder import Recorder

            kernel.recorder = Recorder(kernel, session.interval)
            self.recorders.append(kernel.recorder)
        if self.sanitizer is not None:
            self.sanitizer.register_kernel(kernel)

    def mount(self, kernel) -> None:
        """Mount a fresh durable store on a disk-less boot, if the
        session asks for one (same geometry and seed every boot)."""
        session = self.session
        if session.disk_nblocks is None:
            return
        from repro.disk.blockdev import DEFAULT_WINDOW, BlockDevice
        from repro.disk.mount import DiskStore

        device = BlockDevice(
            nblocks=session.disk_nblocks, seed=session.disk_seed,
            name=f"disk{len(self.stores)}",
            window=DEFAULT_WINDOW if session.disk_window is None
            else session.disk_window)
        kernel.disk = DiskStore.attach(kernel, device)
        kernel.recovery = kernel.disk.recovery
        self.stores.append(kernel.disk)


# The one ambient slot: the innermost active run, or None.
_ACTIVE: Optional[Run] = None


def active_run() -> Optional[Run]:
    """The run new boots join. Outside any block, an environment that
    arms a plane (``REPRO_TRACE``, ``REPRO_SAN``) starts one run for
    the rest of the process."""
    if _ACTIVE is None and (ENV.trace_capacity is not None
                            or ENV.sanitize_limit is not None):
        ENV.run().__enter__()
    return _ACTIVE


def current() -> Session:
    """The session new boots follow."""
    return _ACTIVE.session if _ACTIVE is not None else ENV


def script_inputs() -> Dict[str, str]:
    """The example-script inputs of the process environment (what a
    script recording stores unless told otherwise)."""
    return {key: os.environ[key] for key in SCRIPT_INPUTS
            if key in os.environ}


@contextlib.contextmanager
def applied_inputs(inputs: Mapping[str, str]) -> Iterator[None]:
    """Exactly *inputs* as the script-input environment: listed keys
    set, the other script inputs removed, everything restored after."""
    saved = {key: os.environ.pop(key) for key in SCRIPT_INPUTS
             if key in os.environ}
    os.environ.update(inputs)
    try:
        yield
    finally:
        for key in SCRIPT_INPUTS:
            os.environ.pop(key, None)
        os.environ.update(saved)
