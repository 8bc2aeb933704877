"""Record a run, replay it, and find the first divergence.

The oracle's contract: a replay armed with a recording's manifest must
reproduce the original run *bit-for-bit* — the same trace events at
the same cycles, the same per-category cycle totals per boot, the same
checkpoint digests, the same outcome, the same stdout. Any mismatch is
nondeterminism in the substrate (kernel, vm, disk, net, or inject
plane) or in the workload itself, and is reported as the first
divergent event with its cycle, which is exactly the information a
bisection needs. It is the only drift check: every soak
(``reprochaos``, ``repronet soak``, ``reprosan soak``) records once
and replays once through :func:`soak_script` / :func:`soak_call`.

Two entry styles:

* ``*_script`` — the CLI path: the workload is a Python script run
  under ``runpy`` with a swapped ``argv`` and the recorded script
  inputs (``REPRO_CLUSTER``, ``REPRO_HA``, ``REPRO_HOSTS``);
* ``*_call`` — the test path: the workload is a callable, so suites
  can record inline workloads without touching the filesystem.
"""

from __future__ import annotations

import hashlib
import runpy
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import RRError
from repro.rr.checkpoint import diff_states, state_digest
from repro.rr.recorder import DEFAULT_INTERVAL
from repro.rr.recording import (
    RECORD_CAPACITY,
    Checkpoint,
    Recording,
    pack_event,
)
from repro.session import (
    Outcome,
    Session,
    applied_inputs,
    current,
    script_inputs,
)


@dataclass
class Divergence:
    """Where a replay first disagreed with its recording."""

    what: str  # event | event-count | cycles | checkpoint | outcome | output
    index: int           # event index / boot index / checkpoint index
    cycle: int           # simulated cycle of the divergence (-1: n/a)
    recorded: object
    replayed: object
    detail: str = ""

    def render(self) -> str:
        head = (f"first divergence: {self.what}[{self.index}] "
                f"at cycle {self.cycle}"
                if self.cycle >= 0
                else f"first divergence: {self.what}[{self.index}]")
        lines = [head,
                 f"  recorded: {self.recorded!r}",
                 f"  replayed: {self.replayed!r}"]
        if self.detail:
            lines.append(f"  {self.detail}")
        return "\n".join(lines)


@dataclass
class ReplayReport:
    """The oracle's verdict for one replay."""

    divergence: Optional[Divergence]
    events_compared: int = 0
    boots_compared: int = 0
    checkpoints_compared: int = 0
    outcome: str = ""

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def render(self) -> str:
        if self.ok:
            return (f"replay ok: {self.events_compared} event(s), "
                    f"{self.boots_compared} boot(s), "
                    f"{self.checkpoints_compared} checkpoint(s) "
                    f"bit-identical ({self.outcome})")
        return self.divergence.render()


@dataclass
class SeekResult:
    """What ``reprorr seek --cycle N`` established."""

    target_cycle: int
    checkpoint_cycle: Optional[int]   # None: replayed from boot
    digest_ok: bool
    suffix_identical: bool
    events: List[list] = field(default_factory=list)  # cycle >= target
    outcome: str = ""

    def render(self) -> str:
        origin = (f"checkpoint @cycle {self.checkpoint_cycle}"
                  if self.checkpoint_cycle is not None else "boot")
        verdict = ("bit-identical" if self.suffix_identical
                   else "DIVERGED")
        digest = ("digest verified" if self.digest_ok
                  else "DIGEST MISMATCH")
        return (f"seek to cycle {self.target_cycle}: restored from "
                f"{origin}, {digest}, {len(self.events)} event(s) from "
                f"cycle {self.target_cycle} onward {verdict} "
                f"({self.outcome})")


# ---------------------------------------------------------------------------
# one armed run
# ---------------------------------------------------------------------------

def _observe(outcome: Outcome) -> dict:
    """What the oracle compares of one executed run: outcome, stdout
    digest, events, per-boot cycles, checkpoints, topology."""
    run = outcome.run
    tracer = run.tracer
    boots = []
    checkpoints = []
    nodes, net_seed = 0, None
    for recorder in run.recorders:
        clock = recorder.kernel.clock
        boots.append((clock.cycles,
                      [[name, clock.by_category[name]]
                       for name in sorted(clock.by_category)]))
        for state, cycle, cursor, boot in recorder.checkpoints:
            checkpoints.append(Checkpoint(
                boot=boot, cycle=cycle, cursor=cursor,
                digest=state_digest(state), state=state))
        if recorder.cluster is not None:
            nodes = max(nodes, recorder.cluster.nnodes)
            net_seed = recorder.cluster.seed
    checkpoints.sort(key=lambda cp: (cp.boot, cp.cycle))
    return {
        "outcome": outcome.status, "detail": outcome.detail,
        "output": hashlib.sha256(outcome.output.encode()).digest(),
        "events": [pack_event(event) for event in tracer.events()]
        if tracer is not None else [],
        "emitted": tracer.emitted if tracer is not None else 0,
        "dropped": tracer.dropped if tracer is not None else 0,
        "boots": boots, "checkpoints": checkpoints,
        "nodes": nodes, "net_seed": net_seed,
    }


def script_runner(script: str, argv: Sequence[str] = (),
                  inputs: Optional[Mapping[str, str]] = None):
    """A callable running *script* as ``__main__`` with *argv* and,
    when given, exactly *inputs* as its script inputs."""
    def run() -> None:
        saved_argv = sys.argv
        sys.argv = [script] + list(argv)
        try:
            with applied_inputs(script_inputs()
                                if inputs is None else inputs):
                runpy.run_path(script, run_name="__main__")
        finally:
            sys.argv = saved_argv
    return run


def recording_session(session: Optional[Session] = None,
                      interval: Optional[int] = None,
                      **fields) -> Session:
    """*session* (default: the current one) armed for recording: every
    event kind traced into a :data:`RECORD_CAPACITY` ring and a
    checkpoint every *interval* cycles (None: the default interval; 0:
    no checkpoints). *fields* replace any other session field."""
    base = session if session is not None else current()
    return replace(base, **{
        "trace_kinds": None, "trace_capacity": RECORD_CAPACITY,
        "interval": DEFAULT_INTERVAL if interval is None else interval,
        **fields})


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------

def _record(runner: Callable[[], None],
            manifest: dict) -> Tuple[Recording, Outcome]:
    outcome = manifest["session"].execute(runner)
    observed = _observe(outcome)
    manifest = dict(manifest, nodes=observed["nodes"],
                    net_seed=observed["net_seed"])
    recording = Recording(
        manifest=manifest,
        boots=observed["boots"],
        events=observed["events"],
        checkpoints=observed["checkpoints"],
        emitted=observed["emitted"],
        dropped=observed["dropped"],
        outcome=observed["outcome"],
        output=observed["output"],
    )
    return recording, outcome


def _script_manifest(script: str, argv: Sequence[str],
                     session: Session,
                     inputs: Optional[Mapping[str, str]]) -> dict:
    return {"script": script, "argv": list(argv),
            "env": dict(script_inputs() if inputs is None else inputs),
            "session": session}


def record_script(script: str, argv: Sequence[str] = (), *,
                  session: Optional[Session] = None,
                  inputs: Optional[Mapping[str, str]] = None,
                  interval: Optional[int] = None,
                  **fields) -> Recording:
    """Record one run of *script* (the ``reprorr record`` path).
    *inputs* are the script inputs to run it with (default: the ones
    in the environment); the other arguments build the session as in
    :func:`recording_session`."""
    session = recording_session(session, interval, **fields)
    manifest = _script_manifest(script, argv, session, inputs)
    return _record(script_runner(script, argv, manifest["env"]),
                   manifest)[0]


def record_call(workload: Callable[[], None], *,
                session: Optional[Session] = None,
                interval: Optional[int] = None,
                **fields) -> Recording:
    """Record one run of an inline *workload* callable."""
    session = recording_session(session, interval, **fields)
    return _record(workload, {"script": None, "argv": [], "env": {},
                              "session": session})[0]


# ---------------------------------------------------------------------------
# replay + divergence
# ---------------------------------------------------------------------------

def _compare(recording: Recording, observed: dict) -> ReplayReport:
    recorded_events = recording.events
    replayed_events = observed["events"]
    for index, (left, right) in enumerate(zip(recorded_events,
                                              replayed_events)):
        if left != right:
            return ReplayReport(Divergence(
                "event", index, min(left[1], right[1]), left, right),
                events_compared=index)
    if len(recorded_events) != len(replayed_events):
        index = min(len(recorded_events), len(replayed_events))
        longer = (recorded_events if len(recorded_events) > index
                  else replayed_events)
        return ReplayReport(Divergence(
            "event-count", index, longer[index][1],
            len(recorded_events), len(replayed_events),
            detail=f"next unmatched event: {longer[index]!r}"),
            events_compared=index)
    if (recording.emitted, recording.dropped) \
            != (observed["emitted"], observed["dropped"]):
        return ReplayReport(Divergence(
            "event-count", -1, -1,
            (recording.emitted, recording.dropped),
            (observed["emitted"], observed["dropped"]),
            detail="emitted/dropped totals differ"),
            events_compared=len(recorded_events))
    for index, (left, right) in enumerate(zip(recording.boots,
                                              observed["boots"])):
        if list(left[1]) != list(right[1]) or left[0] != right[0]:
            return ReplayReport(Divergence(
                "cycles", index, -1, left, right),
                events_compared=len(recorded_events),
                boots_compared=index)
    if len(recording.boots) != len(observed["boots"]):
        return ReplayReport(Divergence(
            "cycles", min(len(recording.boots),
                          len(observed["boots"])), -1,
            len(recording.boots), len(observed["boots"]),
            detail="boot counts differ"),
            events_compared=len(recorded_events))
    for index, (left, right) in enumerate(zip(recording.checkpoints,
                                              observed["checkpoints"])):
        if (left.cycle, left.cursor, left.boot) \
                != (right.cycle, right.cursor, right.boot):
            return ReplayReport(Divergence(
                "checkpoint", index, right.cycle,
                (left.cycle, left.cursor, left.boot),
                (right.cycle, right.cursor, right.boot)),
                events_compared=len(recorded_events),
                boots_compared=len(recording.boots),
                checkpoints_compared=index)
        if left.digest != right.digest:
            return ReplayReport(Divergence(
                "checkpoint", index, left.cycle,
                left.digest.hex()[:16], right.digest.hex()[:16],
                detail=diff_states(left.state, right.state) or ""),
                events_compared=len(recorded_events),
                boots_compared=len(recording.boots),
                checkpoints_compared=index)
    if len(recording.checkpoints) != len(observed["checkpoints"]):
        return ReplayReport(Divergence(
            "checkpoint", min(len(recording.checkpoints),
                              len(observed["checkpoints"])), -1,
            len(recording.checkpoints), len(observed["checkpoints"]),
            detail="checkpoint counts differ"),
            events_compared=len(recorded_events))
    if recording.outcome != observed["outcome"]:
        return ReplayReport(Divergence(
            "outcome", 0, -1, recording.outcome, observed["outcome"],
            detail=observed["detail"]),
            events_compared=len(recorded_events))
    if recording.output != observed["output"]:
        return ReplayReport(Divergence(
            "output", 0, -1, recording.output.hex()[:16],
            observed["output"].hex()[:16],
            detail="the run printed different stdout (sha256 prefixes)"),
            events_compared=len(recorded_events),
            boots_compared=len(recording.boots),
            checkpoints_compared=len(recording.checkpoints))
    return ReplayReport(None,
                        events_compared=len(recorded_events),
                        boots_compared=len(recording.boots),
                        checkpoints_compared=len(recording.checkpoints),
                        outcome=observed["outcome"])


def _replay_runner(recording: Recording,
                   script: Optional[str]) -> Callable[[], None]:
    target = script or recording.manifest.get("script")
    if not target:
        raise RRError("recording has no script; use the *_call form")
    return script_runner(target, recording.manifest.get("argv", []),
                          recording.manifest.get("env", {}))


def _replay(recording: Recording, runner: Callable[[], None]) -> dict:
    return _observe(recording.session.execute(runner))


def replay_script(recording: Recording,
                  script: Optional[str] = None) -> ReplayReport:
    """Replay a script recording and report the first divergence."""
    return _compare(recording,
                    _replay(recording, _replay_runner(recording, script)))


def replay_call(recording: Recording,
                workload: Callable[[], None]) -> ReplayReport:
    """Replay a call recording against the same workload callable."""
    return _compare(recording, _replay(recording, workload))


# ---------------------------------------------------------------------------
# soak: record once, replay once
# ---------------------------------------------------------------------------

@dataclass
class Soak:
    """One drift check: a recorded run and the verdict on its replay."""

    recording: Recording
    outcome: Outcome        # the recorded run (its run's injectors etc.)
    report: ReplayReport

    @property
    def ok(self) -> bool:
        return self.report.ok and self.outcome.status != "kernel-death"


def _soak(runner: Callable[[], None], manifest: dict) -> Soak:
    recording, outcome = _record(runner, manifest)
    return Soak(recording, outcome,
                _compare(recording, _replay(recording, runner)))


def soak_script(script: str, session: Session,
                inputs: Optional[Mapping[str, str]] = None) -> Soak:
    """Record *script* under *session*, replay it, and compare."""
    manifest = _script_manifest(script, (), session, inputs)
    return _soak(script_runner(script, (), manifest["env"]), manifest)


def soak_call(workload: Callable[[], None], session: Session) -> Soak:
    """Record *workload* under *session*, replay it, and compare."""
    return _soak(workload, {"script": None, "argv": [], "env": {},
                            "session": session})


# ---------------------------------------------------------------------------
# seek
# ---------------------------------------------------------------------------

def _seek(recording: Recording, cycle: int,
          observed: dict) -> SeekResult:
    checkpoint = recording.nearest_checkpoint(cycle)
    digest_ok = True
    if checkpoint is not None:
        digest_ok = False
        for replayed in observed["checkpoints"]:
            if (replayed.cycle, replayed.boot) \
                    == (checkpoint.cycle, checkpoint.boot):
                digest_ok = replayed.digest == checkpoint.digest
                break
    recorded_suffix = [event for event in recording.events
                       if event[1] >= cycle]
    replayed_suffix = [event for event in observed["events"]
                       if event[1] >= cycle]
    return SeekResult(
        target_cycle=cycle,
        checkpoint_cycle=(checkpoint.cycle if checkpoint is not None
                          else None),
        digest_ok=digest_ok,
        suffix_identical=recorded_suffix == replayed_suffix,
        events=replayed_suffix,
        outcome=observed["outcome"],
    )


def seek_script(recording: Recording, cycle: int,
                script: Optional[str] = None) -> SeekResult:
    """Re-execute to *cycle* and verify the restored state: the
    nearest checkpoint's digest must match and the trace from *cycle*
    onward must be bit-identical to the recording. Re-execution runs
    from boot (deterministically equivalent to restoring the
    checkpoint); :func:`repro.rr.checkpoint.materialize` is the true
    state-restore fast path for machine-pure workloads."""
    return _seek(recording, cycle,
                 _replay(recording, _replay_runner(recording, script)))


def seek_call(recording: Recording, cycle: int,
              workload: Callable[[], None]) -> SeekResult:
    return _seek(recording, cycle, _replay(recording, workload))
