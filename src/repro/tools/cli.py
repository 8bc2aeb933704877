"""Command-line front ends for the simulated toolchain.

§3: "Our current static linker is implemented as a wrapper, lds, around
the standard IRIX ld linker. The wrapper processes new command line
options directly related to its functionality and passes the others to
ld. Lds-specific options allow for the association of sharing classes
with modules and the specification of search paths to be used when
locating modules."

These functions give the toolchain that argv surface (each runs in the
context of a simulated process, reading and writing the simulated file
system):

* :func:`lds_main` — ``lds [-o out] [-L dir]... [-e sym] [--strict]
  [--no-crt0] [--jumptable] [--verify|--no-verify] [-l lib.a]...
  module.o... [-sp|-dp|-dr m.o]...``; the long forms of the sharing
  class flags are ``--static-public``, ``--dynamic-public`` and
  ``--dynamic-private``, and a bare module is static private;
* :func:`toycc_main` — ``toycc [-o out.o] source.c``;
* :func:`asm_main` — ``as [-o out.o] source.s``;
* :func:`nm_main` / :func:`objdump_main` — inspection, returning text;
* :func:`ar_main` — ``ar archive.a member.o...``;
* :func:`segls_main` — ``segls [-l]``, every segment on the shared
  partition;
* :func:`reprolint_main` — ``reprolint [--strict] [--only cat,cat]
  [--quiet] path...`` runs the :mod:`repro.analyze` static verifier
  over objects, archives, and segment files (auto-detected by magic)
  and renders every finding with its stable diagnostic code. ERROR
  findings raise :class:`repro.errors.LintError`; ``--strict``
  promotes WARNINGs to failures too.

Six tools run on the *host* instead of inside the simulation, each
installed as a console script of the same name (all through
:func:`main`, also ``python -m repro.tools.cli TOOL ...``):

* :func:`reprotrace_main` — ``reprotrace [-o dir] [--kinds K,K]
  [--capacity N] [--top N] script.py [args...]`` runs any example (or
  other host script) with kernel-wide tracing armed, then writes a
  JSONL event log and a ``chrome://tracing`` file and prints the top-N
  hot-spot report.
* :func:`reprochaos_main` — ``reprochaos [--seed N] [--runs N]
  [--planes P,P] [--rate F] script.py...`` soaks host scripts under
  :mod:`repro.inject` fault planes: each seeded configuration is
  recorded once and replayed once through the :mod:`repro.rr` oracle
  (any divergence fails the campaign), and no injected fault may
  escape the simulation as a host-level crash (kernel death fails it
  too).
  ``reprochaos --crash [--stride N] [--max-points N] [--nblocks N]
  script.py...`` instead mounts a durable :mod:`repro.disk` store
  under every kernel the script boots and runs the script once per
  journal-record boundary, crashing the disk mid-record each time;
  every surviving image must pass ``reprofsck`` with zero findings and
  remount with all public segments reopenable by address.
* :func:`repronet_main` — ``repronet topo|run|soak [--nodes N]
  [--seed N] [--hosts N] [--impl shm|file] [--rate F] [--runs N]``
  inspects the deterministic cluster topology, runs the rwho scale
  scenario over a :class:`repro.net.Cluster` with full traffic/cycle
  accounting, or soaks the cluster under NET-plane faults with the
  same record/replay drift check as ``reprochaos``. A
  ``reprochaos --net [--nodes N]`` campaign composes both: NET plans
  join the plane mix and ``REPRO_CLUSTER=N`` makes cluster-aware
  scripts boot a cluster.
* :func:`reprofsck_main` — ``reprofsck [--verbose] image...`` checks
  saved device images (``BlockDevice.save``) for damage, rendering
  stable ``DSK###`` findings; exit status 1 when any image has
  findings.
* :func:`reprorr_main` — ``reprorr record|replay|seek|info`` records a
  run of a host script and replays it, whole or from a checkpoint,
  through the :mod:`repro.rr` divergence oracle.
* :func:`reprosan_main` — ``reprosan list|run|soak|sweep`` drives the
  :mod:`repro.sanitize` race detector and heap sanitizer: render the
  deterministic report for a seeded corpus case (``run CASE``, with
  ``--replay`` seeking an rr recording to the first racing access
  pair), record and replay the whole corpus requiring zero divergence
  (``soak``), or run every example armed expecting zero
  findings (``sweep``).

Every command line is parsed by :mod:`argparse` through one parser
class, :class:`_Parser`; a bad one raises :class:`UsageError` naming
the tool, which :func:`main` reports as one line on stderr with exit
status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from dataclasses import replace
from typing import Callable, List, Optional, Sequence, TextIO

from repro.analyze.pipeline import CHECKS
from repro.errors import LinkError, SimulationError
from repro.hw.asm import assemble
from repro.inject import Plane
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.linker.classes import SharingClass
from repro.linker.lds import Lds, LinkRequest, LinkResult, load_template, \
    store_object
from repro.objfile.archive import Archive
from repro.objfile.format import ObjectFile
from repro.objfile.inspect import nm, objdump
from repro.rr.oracle import (
    record_call,
    record_script,
    recording_session,
    replay_script,
    script_runner,
    seek_call,
    seek_script,
    soak_call,
    soak_script,
)
from repro.rr.recorder import DEFAULT_INTERVAL
from repro.session import (
    DEFAULT_REPORT_LIMIT,
    active_run,
    current,
    script_inputs,
)
from repro.toyc import compile_source
from repro.trace.events import EventKind


class UsageError(SimulationError):
    """Bad command-line arguments."""


class _Parser(argparse.ArgumentParser):
    """The parser of every tool and subcommand (``add_subparsers``
    builds subcommand parsers from the parent's class).

    The in-simulation tools must never exit the interpreter, so a usage
    error raises :class:`UsageError` prefixed with the program name
    (``"reprorr seek: argument --cycle: ..."``) instead. No ``-h`` and
    no abbreviated long options: a tool accepts exactly the flags it
    declares.
    """

    def __init__(self, prog: str, **kwargs) -> None:
        super().__init__(prog=prog, add_help=False, allow_abbrev=False,
                         **kwargs)

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"invalid positive int value: {text!r}")
    return int(text)


def _comma_list(item: Callable[[str], object]):
    """argparse type: a comma-separated list, blank names dropped, each
    name passed through *item*, which rejects it with a ValueError."""
    def parse(text: str) -> list:
        try:
            return [item(name.strip()) for name in text.split(",")
                    if name.strip()]
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error))
    return parse


def _event_kind(name: str) -> str:
    if name.upper() not in EventKind.__members__:
        raise ValueError(f"unknown event kind {name!r} "
                         f"(known: {', '.join(EventKind.__members__)})")
    return name


def _plane(name: str) -> str:
    Plane.parse(name)  # its ValueError names the known planes
    return name


def _check_category(name: str) -> str:
    known = sorted(check for check, _run in CHECKS)
    if name not in known:
        raise ValueError(f"unknown category {name!r} "
                         f"(known: {', '.join(known)})")
    return name


#: lds's sharing-class flags; a bare module is static private.
_CLASS_FLAGS = {
    ("-sp", "--static-public"): SharingClass.STATIC_PUBLIC,
    ("-dp", "--dynamic-public"): SharingClass.DYNAMIC_PUBLIC,
    ("-dr", "--dynamic-private"): SharingClass.DYNAMIC_PRIVATE,
}


class _SharingClassAction(argparse.Action):
    """Append ``LinkRequest(module, const)`` to the one ``classed`` list
    shared by every sharing-class flag, so the list keeps argv order:
    :meth:`Lds.link` builds the dynamic-module list in that order."""

    def __call__(self, parser, namespace, module, option_string=None):
        namespace.classed.append(LinkRequest(module, self.const))


def lds_main(kernel: Kernel, proc: Process,
             argv: Sequence[str]) -> LinkResult:
    """Run an lds command line; returns the LinkResult."""
    parser = _Parser("lds")
    parser.add_argument("-o", dest="output", default="a.out")
    parser.add_argument("-L", dest="search_dirs", action="append",
                        default=[])
    parser.add_argument("-e", dest="entry")
    parser.add_argument("-l", dest="archives", action="append", default=[])
    parser.add_argument("--no-crt0", dest="with_crt0",
                        action="store_false")
    parser.add_argument("--strict", action="store_true")
    parser.add_argument("--jumptable", action="store_true")
    parser.add_argument("--verify", action="store_const", const=True)
    parser.add_argument("--no-verify", dest="verify",
                        action="store_const", const=False)
    parser.set_defaults(classed=[])
    for flags, sharing in _CLASS_FLAGS.items():
        parser.add_argument(*flags, action=_SharingClassAction,
                            const=sharing)
    parser.add_argument("modules", nargs="*")
    args = parser.parse_intermixed_args(argv)
    # Lds.link keeps static-private modules apart from the classed ones,
    # so only the order within each list matters.
    requests = [LinkRequest(module) for module in args.modules] \
        + args.classed
    if not requests:
        parser.error("no input modules")
    return Lds(kernel).link(
        proc, requests, output=args.output, search_dirs=args.search_dirs,
        archives=[load_archive(kernel, proc, path)
                  for path in args.archives],
        entry=args.entry, with_crt0=args.with_crt0,
        strict_dynamic=args.strict, use_jumptable=args.jumptable,
        verify=args.verify,
    )


def _translate(kernel: Kernel, proc: Process, argv: Sequence[str],
               prog: str, extension: str,
               translate: Callable[[str, str], ObjectFile]) -> str:
    """``prog [-o out.o] source``: translate one source file into an
    object named by ``-o``, by default the source with *extension*
    replaced by ``.o``; returns the output path."""
    parser = _Parser(prog)
    parser.add_argument("-o", dest="output")
    parser.add_argument("source")
    args = parser.parse_args(argv)
    output = args.output or args.source.removesuffix(extension) + ".o"
    source = kernel.vfs.read_whole(args.source, proc.uid,
                                   cwd=proc.cwd).decode("latin-1")
    name = output.rsplit("/", 1)[-1]
    store_object(kernel, proc, output, translate(source, name))
    return output


def toycc_main(kernel: Kernel, proc: Process,
               argv: Sequence[str]) -> str:
    """Run a toycc command line; returns the output path."""
    return _translate(kernel, proc, argv, "toycc", ".c", compile_source)


def asm_main(kernel: Kernel, proc: Process, argv: Sequence[str]) -> str:
    """Run an as command line; returns the output path."""
    return _translate(kernel, proc, argv, "as", ".s", assemble)


def nm_main(kernel: Kernel, proc: Process, argv: Sequence[str]) -> str:
    """nm <object>: the symbol table as text."""
    parser = _Parser("nm")
    parser.add_argument("object")
    return nm(_load_any(kernel, proc, parser.parse_args(argv).object))


def objdump_main(kernel: Kernel, proc: Process,
                 argv: Sequence[str]) -> str:
    """objdump [-d] <object>."""
    parser = _Parser("objdump")
    parser.add_argument("-d", dest="disassemble", action="store_true")
    parser.add_argument("object")
    args = parser.parse_args(argv)
    return objdump(_load_any(kernel, proc, args.object),
                   disassemble=args.disassemble)


def ar_main(kernel: Kernel, proc: Process, argv: Sequence[str]) -> str:
    """ar <archive> <member.o>...: build an archive file."""
    parser = _Parser("ar")
    parser.add_argument("archive")
    parser.add_argument("members", nargs="+")
    args = parser.parse_args(argv)
    archive = Archive(args.archive.rsplit("/", 1)[-1])
    for member_path in args.members:
        archive.add(load_template(kernel, proc, member_path))
    kernel.vfs.write_whole(args.archive, archive.to_bytes(), proc.uid,
                           cwd=proc.cwd)
    return args.archive


def segls_main(kernel: Kernel, proc: Process,
               argv: Sequence[str] = ()) -> str:
    """segls [-l]: peruse every segment on the shared partition.

    The §5 garbage-collection affordance: manual cleanup requires "the
    ability to peruse all of the segments in existence". Lists path,
    base address, and size; with ``-l`` also whether the file is a
    linked module (has segment metadata).
    """
    parser = _Parser("segls")
    parser.add_argument("-l", dest="long_form", action="store_true")
    long_form = parser.parse_args(argv).long_form
    from repro.linker.segments import read_segment_meta

    lines = []
    mount = kernel.sfs_mount.rstrip("/")
    for vol_path, inode in kernel.sfs.segments():
        base = kernel.sfs.address_of_inode(inode.number)
        line = (f"0x{base:012x}  {inode.size:9d}  "
                f"{mount}{vol_path}")
        if long_form:
            try:
                read_segment_meta(kernel, proc, mount + vol_path)
                line += "  [module]"
            except SimulationError:
                line += "  [data]"
        lines.append(line)
    return "\n".join(sorted(lines))


def reprolint_main(kernel: Kernel, proc: Process,
                   argv: Sequence[str]) -> str:
    """reprolint [--strict] [--only cat,cat] [--quiet] <path>...

    Statically verify HOF objects, ``HAR1`` archives, and ``HSEG``
    segment files (detected by magic, like ``file(1)`` would). Returns
    the rendered reports; raises :class:`repro.errors.LintError` when
    any finding meets the failure threshold — ERROR by default,
    WARNING under ``--strict``. ``--only`` restricts to a subset of
    check categories (relocations, symbols, cfg, layout, sharing);
    ``--quiet`` hides INFO findings from the rendering.
    """
    from repro.analyze.report import Report, Severity

    parser = _Parser("reprolint")
    parser.add_argument("--strict", action="store_true")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--only", type=_comma_list(_check_category))
    parser.add_argument("paths", nargs="+")
    args = parser.parse_intermixed_args(argv)

    combined = Report(subject=", ".join(args.paths))
    pieces: List[str] = []
    for path in args.paths:
        report = _lint_path(kernel, proc, path, args.only)
        combined.merge(report)
        pieces.append(report.render(
            Severity.WARNING if args.quiet else Severity.INFO
        ))
    text = "\n".join(pieces)
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    combined.raise_if(threshold)
    return text


def _lint_path(kernel: Kernel, proc: Process, path: str,
               only: Optional[List[str]]):
    """Analyze one path, dispatching on file magic."""
    from repro.analyze.context import LintContext
    from repro.analyze.pipeline import analyze_object, \
        context_from_kernel
    from repro.analyze.report import Report
    from repro.linker.segments import TRAILER, TRAILER_MAGIC, \
        read_segment_meta
    from repro.objfile.archive import ARCHIVE_MAGIC
    from repro.objfile.format import MAGIC as HOF_MAGIC

    data = kernel.vfs.read_whole(path, proc.uid, cwd=proc.cwd)
    if data[:4] == ARCHIVE_MAGIC:
        archive = Archive.from_bytes(data)
        merged = Report(subject=path)
        for member in archive.members:
            context = context_from_kernel(kernel, proc, member)
            merged.merge(analyze_object(member, context, only=only))
        return merged
    if data[:4] == HOF_MAGIC:
        obj = ObjectFile.from_bytes(data)
        context = context_from_kernel(kernel, proc, obj)
        return analyze_object(obj, context, subject=path, only=only)
    if len(data) >= TRAILER.size \
            and data[-TRAILER.size:][:4] == TRAILER_MAGIC:
        meta, base, _image_len = read_segment_meta(kernel, proc, path)
        context = context_from_kernel(kernel, proc, meta,
                                      expect_public=True)
        context.self_base = base
        return analyze_object(meta, context, subject=path, only=only)
    raise LinkError(f"{path!r}: not a HOF object, archive, or segment")


def reprotrace_main(argv: Sequence[str],
                    stdout: Optional[TextIO] = None) -> int:
    """Run a host script under kernel-wide tracing; export and report.

    ``reprotrace [-o DIR] [--kinds FAULT,LINK_RESOLVE,...]
    [--capacity N] [--top N] script.py [script args...]``

    Tracing is armed before the script runs, so every kernel the script
    boots binds the tracer to its clock (multiple boots are
    distinguished by the events' ``boot`` field). Afterwards the event
    stream is written to ``DIR/<script>.trace.jsonl`` and
    ``DIR/<script>.chrome.json`` (load the latter in chrome://tracing
    or https://ui.perfetto.dev), and a top-N report is printed.
    Exports are deterministic: identical runs produce identical bytes.
    """
    out = stdout if stdout is not None else sys.stdout
    parser = _Parser("reprotrace")
    parser.add_argument("-o", dest="outdir", default=".")
    parser.add_argument("--kinds", type=_comma_list(_event_kind))
    parser.add_argument("--capacity", type=_positive_int, default=1 << 16)
    parser.add_argument("--top", type=int, default=10)
    parser.add_argument("script")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    script = args.script
    if not os.path.isfile(script):
        parser.error(f"no such script: {script}")

    session = replace(current(), trace_kinds=args.kinds,
                      trace_capacity=args.capacity)
    with session.run() as run:
        script_runner(script, args.args)()
    tracer = run.tracer
    if tracer is None:
        print(f"reprotrace: {script} never booted a kernel; "
              f"no events recorded", file=out)
        return 1
    from repro.trace.export import top_report, write_chrome, write_jsonl

    os.makedirs(args.outdir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(script))[0]
    jsonl_path = os.path.join(args.outdir, f"{stem}.trace.jsonl")
    chrome_path = os.path.join(args.outdir, f"{stem}.chrome.json")
    events = tracer.events()
    write_jsonl(events, jsonl_path)
    write_chrome(events, chrome_path)
    print(file=out)
    print(top_report(tracer, top=args.top), file=out)
    print(f"\nwrote {len(events)} events to {jsonl_path}", file=out)
    print(f"wrote chrome trace to {chrome_path} "
          f"(open in chrome://tracing)", file=out)
    return 0


# ----------------------------------------------------------------------
# reprochaos — seeded fault-injection soak campaigns
# ----------------------------------------------------------------------

#: Planes a campaign arms by default (all of them).
_CHAOS_PLANES = ("syscall", "io", "linker", "vmfault")


def _campaign_plans(planes: Sequence[str], rate: float) -> List:
    """The standard soak plan set for *planes* at trigger rate *rate*.

    One representative plan per plane: failing syscalls, short reads
    and torn writes, transient linker failures (exercising the
    retry/backoff hardening), and — far rarer, since every memory
    access is a decision point — spurious page faults.
    """
    from repro.inject import FaultKind, FaultPlan, Plane

    plans = []
    for name in planes:
        plane = Plane.parse(name)
        if plane is Plane.SYSCALL:
            plans.append(FaultPlan(plane, FaultKind.ERROR,
                                   probability=rate, errno="EIO"))
        elif plane is Plane.IO:
            plans.append(FaultPlan(plane, FaultKind.SHORT_READ,
                                   site="read", probability=rate))
            plans.append(FaultPlan(plane, FaultKind.TORN_WRITE,
                                   site="write", probability=rate))
        elif plane is Plane.LINKER:
            plans.append(FaultPlan(plane, FaultKind.ERROR,
                                   probability=rate, transient=True))
        elif plane is Plane.VMFAULT:
            plans.append(FaultPlan(plane, FaultKind.SPURIOUS,
                                   probability=rate / 16.0))
        elif plane is Plane.DISK:
            # Only fires when a durable store is mounted (a disk=
            # boot or a session's disk_nblocks); harmless — and
            # deterministically idle — otherwise.
            plans.append(FaultPlan(plane, FaultKind.TORN_WRITE,
                                   site="block-write",
                                   probability=rate))
            plans.append(FaultPlan(plane, FaultKind.CORRUPT,
                                   site="block-read",
                                   probability=rate / 4.0))
        elif plane is Plane.NET:
            plans.append(FaultPlan(plane, FaultKind.DROP,
                                   probability=rate))
            plans.append(FaultPlan(plane, FaultKind.DUP,
                                   probability=rate))
            plans.append(FaultPlan(plane, FaultKind.DELAY,
                                   probability=rate))
            plans.append(FaultPlan(plane, FaultKind.CORRUPT,
                                   probability=rate / 4.0))
        elif plane is Plane.NODE:
            # Whole-machine failures: a few crashes and one wedge per
            # run, a partition window, and an eager reboot draw so a
            # crashed node comes back within a handful of rounds.
            plans.append(FaultPlan(plane, FaultKind.CRASH,
                                   site="crash", probability=rate,
                                   max_faults=2))
            plans.append(FaultPlan(plane, FaultKind.WEDGE,
                                   site="wedge",
                                   probability=rate / 2.0,
                                   max_faults=1))
            plans.append(FaultPlan(plane, FaultKind.PARTITION,
                                   site="partition", probability=rate,
                                   max_faults=2))
            plans.append(FaultPlan(plane, FaultKind.REBOOT,
                                   site="reboot", probability=0.25))
    return plans


def _crash_soak(script: str, seed: int, nblocks: int, stride: int,
                max_points: Optional[int], out: TextIO) -> List[str]:
    """Crash *script*'s durable store at every journal-record boundary;
    returns the list of failures (ideally empty)."""
    from repro import boot
    from repro.disk import fsck, verify_segments
    from repro.inject import FaultKind, FaultPlan, Plane
    durable = replace(current(), disk_nblocks=nblocks, disk_seed=seed)
    runner = script_runner(script)
    base = durable.execute(runner)
    if base.status == "kernel-death":
        return [f"baseline: kernel death: {base.detail}"]
    total = max((store.journal.records_written
                 for store in base.run.stores), default=0)
    if total == 0:
        print(f"  {script}: wrote no journal records; nothing to crash",
              file=out)
        return []
    ks = list(range(1, total + 1, max(stride, 1)))
    if max_points is not None and len(ks) > max_points:
        step = len(ks) / max_points
        ks = [ks[int(i * step)] for i in range(max_points)]
    failures: List[str] = []
    for k in ks:
        plan = FaultPlan(Plane.DISK, FaultKind.CRASH, site="journal-*",
                         after=k - 1, max_faults=1)
        crashed = replace(durable, plans=(plan,), inject_seed=seed) \
            .execute(runner)
        if crashed.status == "kernel-death":
            failures.append(
                f"record {k}: kernel death: {crashed.detail}")
            continue
        for store in crashed.run.stores:
            survivor = store.device.reopen()
            result = fsck(survivor, subject=f"{script}@{k}")
            if len(result.report):
                failures.extend(f"record {k}: fsck: {item}"
                                for item in result.report)
                continue
            system = boot(disk=survivor)
            seg_failures = verify_segments(system.kernel)
            system.kernel.shutdown()
            failures.extend(f"record {k}: segment: {text}"
                            for text in seg_failures)
    verdict = "clean" if not failures else f"{len(failures)} failure(s)"
    print(f"  {script}: {len(ks)}/{total} crash point(s): {verdict}",
          file=out)
    return failures


def _soak_line(soak, label: str) -> str:
    """One soak verdict line: outcome, drift, and the injection totals
    of the recorded run."""
    injectors = soak.outcome.run.injectors
    verdict = soak.outcome.status
    if not soak.report.ok:
        verdict += " REPLAY-DRIFT"
    line = (f"  {label}: {verdict} "
            f"boots={len(soak.recording.boots)} "
            f"injected={sum(i.stats.triggered for i in injectors)} "
            f"contained={sum(i.stats.contained for i in injectors)} "
            f"retries={sum(i.stats.retries for i in injectors)} "
            f"events={len(soak.recording.events)}")
    if soak.outcome.detail:
        line += f" [{soak.outcome.detail}]"
    lines = [line]
    if not soak.report.ok:
        lines.extend(f"    {text}"
                     for text in soak.report.render().splitlines())
    if soak.outcome.status == "kernel-death":
        lines.extend(f"    | {text}" for text in
                     soak.outcome.output.strip().splitlines()[-5:])
    return "\n".join(lines)


def reprochaos_main(argv: Sequence[str],
                    stdout: Optional[TextIO] = None) -> int:
    """Soak host scripts under seeded fault injection.

    ``reprochaos [--seed N] [--runs N] [--planes syscall,io,...]
    [--rate F] script.py...``

    Every (script, seed) configuration is recorded once with ``INJECT``
    tracing and replayed once (:func:`repro.rr.soak_script`); because
    the planes are seeded and the simulation is deterministic, the
    replay must match the recording's events, per-boot cycles, outcome
    and stdout bit-for-bit, and the first divergence is printed
    otherwise. Returns non-zero if any run died outside the
    simulation's typed error channels or any replay diverged.

    ``reprochaos --crash [--seed N] [--stride N] [--max-points N]
    [--nblocks N] script.py...``

    The crash-recovery soak: each script runs once per journal-record
    boundary with a durable store mounted and a ``DISK``-plane CRASH
    plan armed to kill the power mid-record; every surviving image must
    pass ``reprofsck`` with zero findings and remount with every public
    segment reopenable by address.

    ``reprochaos --net [--nodes N] ...`` adds the ``net`` plane
    (drop/dup/delay/corrupt frames) to the campaign, traces ``NET``
    events alongside ``INJECT`` so the drift check covers frame-level
    ordering, and runs the script with ``REPRO_CLUSTER=N`` so
    cluster-aware scripts boot an N-node :class:`repro.net.Cluster`
    instead of one kernel.

    ``reprochaos --ha [--nodes N] ...`` is the availability soak: on
    top of ``--net`` it arms the ``node`` plane (seeded crashes,
    wedges, partitions, reboots), traces ``HA`` events so the drift
    check covers the failure schedule and the recovery protocol, and
    runs the script with ``REPRO_HA=1`` so cluster-aware scripts run the
    self-healing scenario and assert re-convergence to the
    single-kernel oracle.
    """
    out = stdout if stdout is not None else sys.stdout
    parser = _Parser("reprochaos")
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--planes", type=_comma_list(_plane))
    parser.add_argument("--rate", type=float, default=0.005)
    parser.add_argument("--crash", action="store_true")
    parser.add_argument("--stride", type=int, default=1)
    parser.add_argument("--max-points", type=int)
    parser.add_argument("--nblocks", type=int, default=2048)
    parser.add_argument("--net", action="store_true")
    parser.add_argument("--ha", action="store_true")
    parser.add_argument("--nodes", type=_positive_int, default=4)
    parser.add_argument("scripts", nargs="+")
    args = parser.parse_intermixed_args(argv)
    seed, runs, rate, nodes = args.seed, args.runs, args.rate, args.nodes
    scripts = args.scripts
    for script in scripts:
        if not os.path.isfile(script):
            parser.error(f"no such script: {script}")
    if args.net and args.crash:
        parser.error("--net and --crash are separate soaks; pick one")
    if args.ha and args.crash:
        parser.error("--ha and --crash are separate soaks; pick one")
    net = args.net or args.ha  # --ha layers the node plane on the net soak
    planes = args.planes
    if planes is None:
        # The availability soak targets the failure model: the default
        # syscall/io fuzz would kill the differential oracle before
        # recovery is ever exercised.
        planes = [] if args.ha else list(_CHAOS_PLANES)

    if args.crash:
        print(f"reprochaos: crash soak, {len(scripts)} script(s), "
              f"seed {seed}, stride {args.stride}"
              + (f", max {args.max_points} point(s)"
                 if args.max_points else ""),
              file=out)
        failures: List[str] = []
        for script in scripts:
            failures.extend(
                _crash_soak(script, seed, args.nblocks, args.stride,
                            args.max_points, out))
        if failures:
            for text in failures[:20]:
                print(f"  FAIL {text}", file=out)
            print(f"reprochaos: FAILED ({len(failures)} crash-recovery "
                  f"failure(s))", file=out)
            return 1
        print("reprochaos: OK (every crash point recovered; fsck clean, "
              "segments reopen by address)", file=out)
        return 0
    kinds: Sequence[str] = ("INJECT",)
    if net:
        if "net" not in planes:
            planes = list(planes) + ["net"]
        kinds = ("INJECT", "NET")
    if args.ha:
        if "node" not in planes:
            planes = list(planes) + ["node"]
        kinds = ("INJECT", "NET", "HA")
    plans = _campaign_plans(planes, rate)

    print(f"reprochaos: {len(scripts)} script(s) x {runs} run(s), "
          f"base seed {seed}, rate {rate:g}"
          + (f", cluster of {nodes}" if net else "")
          + (" (HA armed)" if args.ha else ""), file=out)
    for plan in plans:
        print(f"  plan: {plan.describe()}", file=out)

    # Cluster-aware scripts (examples/rwho_network.py) read these to
    # boot a cluster, and to run the self-healing scenario.
    inputs = script_inputs()
    if net:
        inputs["REPRO_CLUSTER"] = str(nodes)
    if args.ha:
        inputs["REPRO_HA"] = "1"
    failures = 0
    for script in scripts:
        for run in range(runs):
            run_seed = seed + run
            session = recording_session(
                interval=0, trace_kinds=kinds, plans=plans,
                inject_seed=run_seed)
            soak = soak_script(script, session, inputs)
            if not soak.ok:
                failures += 1
            print(_soak_line(soak, f"{script} seed={run_seed}"),
                  file=out)
    if failures:
        print(f"reprochaos: FAILED ({failures} kernel death(s) or "
              f"replay drift(s))", file=out)
        return 1
    print("reprochaos: OK (all faults contained, all replays "
          "bit-identical)", file=out)
    return 0


# ----------------------------------------------------------------------
# repronet — deterministic cluster runs and soaks
# ----------------------------------------------------------------------

def _net_scenario(nnodes: int, seed: int, nhosts: int,
                  implementation: str,
                  readers: Optional[List[int]] = None) -> dict:
    """Boot a cluster, run the rwho scale scenario, shut down."""
    from repro.apps.rwho.cluster import run_cluster_rwho, synth_statuses
    from repro.net import Cluster

    cluster = Cluster(nnodes, seed=seed)
    result = run_cluster_rwho(cluster, synth_statuses(nhosts),
                              implementation, readers=readers)
    cluster.shutdown()
    result["rounds"] = cluster.round
    return result


def _print_net_outputs(result: dict) -> None:
    """Print the readers' outputs, so the rr oracle diffs them."""
    for node in sorted(result["outputs"]):
        print(f"reader on node {node}:")
        print(result["outputs"][node])


def repronet_main(argv: Sequence[str],
                  stdout: Optional[TextIO] = None) -> int:
    """Inspect and soak the deterministic cluster.

    ``repronet topo [--nodes N] [--seed N]`` prints the cluster shape:
    node count, per-node inode stripes (hence segment address ranges),
    and the seeded per-link delay parameters.

    ``repronet run [--nodes N] [--seed N] [--hosts N] [--impl shm|file]
    [--readers a,b]`` boots a cluster, runs the rwho scale scenario
    once, and prints the traffic/cycle accounting.

    ``repronet soak [--nodes N] [--seed N] [--hosts N] [--rate F]
    [--runs N] [--impl shm|file]`` is the cluster drift soak: each
    seeded configuration is recorded once under NET-plane faults
    (drop/dup/delay/corrupt) with ``NET``+``INJECT`` tracing and
    replayed once; the replay must match bit-for-bit on the printed
    reader outputs, trace streams, and per-node cycle counts, and no
    fault may escape the simulation's typed error channels.
    """
    out = stdout if stdout is not None else sys.stdout
    options = _Parser("repronet")
    options.add_argument("--nodes", type=_positive_int, default=4)
    options.add_argument("--seed", type=int, default=1993)
    options.add_argument("--hosts", type=int, default=64)
    options.add_argument("--impl", dest="implementation",
                         choices=("shm", "file"), default="shm")
    options.add_argument("--readers", type=_comma_list(int))
    options.add_argument("--rate", type=float, default=0.01)
    options.add_argument("--runs", type=int, default=1)
    parser = _Parser("repronet")
    commands = parser.add_subparsers(dest="command", required=True)
    for command in ("topo", "run", "soak"):
        commands.add_parser(command, parents=[options])
    args = parser.parse_args(argv)
    nodes, seed, hosts = args.nodes, args.seed, args.hosts
    implementation = args.implementation

    if args.command == "topo":
        from repro.net import Fabric, mix_seed
        from repro.sfs.sharedfs import MAX_INODES

        fabric = Fabric(nodes, seed)
        stripe = MAX_INODES // nodes
        print(f"repronet: {nodes} node(s), seed {seed}, "
              f"{stripe} inos/stripe", file=out)
        for node in range(nodes):
            lo = node * stripe
            home = " (directory home)" if node == 0 else ""
            print(f"  node {node}: inos [{lo}, {lo + stripe}){home}",
                  file=out)
        for (src, dst), link in sorted(fabric._links.items()):
            print(f"  link {src}->{dst}: base {link.base_delay} "
                  f"round(s) + jitter 0..{link.jitter}, "
                  f"seed {mix_seed(seed, src * nodes + dst):#018x}",
                  file=out)
        return 0

    if args.command == "run":
        result = _net_scenario(nodes, seed, hosts, implementation,
                               args.readers)
        print(f"repronet: {implementation} rwho over {nodes} node(s), "
              f"{result['nhosts']} host(s), seed {seed}", file=out)
        print(f"  rounds: {result['broadcast_rounds']} broadcast + "
              f"{result['read_rounds']} read", file=out)
        print(f"  frames: {result['frames_sent']} sent, "
              f"{result['frames_delivered']} delivered "
              f"({result['bytes_sent']} -> {result['bytes_delivered']} "
              f"bytes)", file=out)
        kinds = ", ".join(f"{kind}={count}" for kind, count
                          in sorted(result["by_kind"].items()))
        print(f"  by kind: {kinds}", file=out)
        for node in range(nodes):
            print(f"  node {node}: {result['cycles'][node]} cycles "
                  f"({result['net_cycles'][node]} net)", file=out)
        for node in sorted(result["outputs"]):
            lines = result["outputs"][node].count("\n") + 1
            print(f"  reader on node {node}: {lines} line(s)", file=out)
        return 0

    # soak
    plans = _campaign_plans(["net"], args.rate)
    print(f"repronet: soak, {nodes} node(s) x {hosts} host(s) x "
          f"{args.runs} run(s), base seed {seed}, rate {args.rate:g}",
          file=out)
    for plan in plans:
        print(f"  plan: {plan.describe()}", file=out)
    failures = 0
    for run in range(args.runs):
        run_seed = seed + run
        session = recording_session(interval=0,
                                    trace_kinds=("NET", "INJECT"),
                                    plans=plans, inject_seed=run_seed)
        soak = soak_call(
            lambda: _print_net_outputs(_net_scenario(
                nodes, run_seed, hosts, implementation)), session)
        if not soak.ok:
            failures += 1
        print(_soak_line(soak, f"seed={run_seed}"), file=out)
    if failures:
        print(f"repronet: FAILED ({failures} kernel death(s) or "
              f"replay drift(s))", file=out)
        return 1
    print("repronet: OK (all faults contained, all replays "
          "bit-identical)", file=out)
    return 0


# ----------------------------------------------------------------------
# reprofsck — offline disk-image checking
# ----------------------------------------------------------------------


def reprofsck_main(argv: Sequence[str],
                   stdout: Optional[TextIO] = None) -> int:
    """Check saved device images for damage.

    ``reprofsck [--verbose] image...``

    Each *image* is a host file written by ``BlockDevice.save``. All
    findings carry stable ``DSK###`` codes (see repro.analyze.report);
    a torn journal tail is reported as a statistic, never a finding —
    it is the designed outcome of a crash, not damage. Exit status: 0
    when every image is clean, 1 when any image has findings, 2 on
    usage errors.
    """
    from repro.disk import fsck_image
    from repro.errors import DiskError

    out = stdout if stdout is not None else sys.stdout
    parser = _Parser("reprofsck")
    parser.add_argument("-v", "--verbose", action="store_true")
    parser.add_argument("images", nargs="+")
    args = parser.parse_intermixed_args(argv)

    dirty = 0
    for path in args.images:
        if not os.path.isfile(path):
            parser.error(f"no such image: {path}")
        try:
            result = fsck_image(path)
        except DiskError as error:
            print(f"{path}: unreadable: {error}", file=out)
            dirty += 1
            continue
        stats = result.stats
        if len(result.report):
            dirty += 1
            print(result.report.render(), file=out)
        else:
            print(f"{path}: clean", file=out)
        if args.verbose:
            inodes = ", ".join(f"{key}={count}" for key, count
                               in sorted(stats.inodes.items()))
            print(f"  generation {stats.generation}, applied txn "
                  f"{stats.applied_txid}, {stats.committed_txns} "
                  f"committed txn(s) in the journal "
                  f"({stats.replayed_txns} beyond the checkpoint), "
                  f"{stats.discarded_records} torn-tail record(s) "
                  f"discarded", file=out)
            print(f"  inodes: {inodes}; {stats.segments} public "
                  f"segment(s)", file=out)
    return 1 if dirty else 0


# ----------------------------------------------------------------------
# reprorr — whole-machine record/replay with a divergence oracle
# ----------------------------------------------------------------------

def _rr_load(path: str):
    from repro.errors import RRError
    from repro.rr import Recording

    if not os.path.isfile(path):
        raise UsageError(f"reprorr: no such recording: {path}")
    try:
        return Recording.load(path)
    except RRError as error:
        raise UsageError(f"reprorr: {path}: {error}")


def reprorr_main(argv: Sequence[str],
                 stdout: Optional[TextIO] = None) -> int:
    """Record, replay, and seek inside deterministic runs.

    ``reprorr record [-o FILE] [--interval N] [--planes P,P]
    [--rate F] [--seed N] [--kinds K,K] [--capacity N] [--nodes N]
    script.py [args...]``

    Records one run: the manifest (script, argv, script inputs, the
    serialised session — fault plans, seeds, cores, tracer — and the
    cluster topology) plus the full trace-event stream and periodic
    whole-machine checkpoints every ``--interval`` cycles (cluster runs
    checkpoint at round boundaries). ``--nodes N`` runs the script with
    ``REPRO_CLUSTER=N`` so cluster-aware scripts boot an N-node
    cluster; the input is stored in the manifest, so replays inherit
    it automatically.
    The recording is written to ``FILE`` (default ``<script>.rrr``).

    ``reprorr replay [--script PATH] recording.rrr``

    The divergence oracle: re-executes the recorded run from its
    manifest and compares the trace-event stream, per-boot cycle
    totals, checkpoint digests, and outcome. Exit 0 when bit-identical;
    exit 1 with the first divergent event and its cycle otherwise.

    ``reprorr seek --cycle N [--script PATH] recording.rrr``

    Time travel: restores the nearest checkpoint at or before cycle N
    (verifying its state digest) and re-executes forward, checking the
    event stream from cycle N onward is bit-identical — which also
    gives reverse-step: seek to any earlier cycle of the same
    recording.

    ``reprorr info recording.rrr`` prints the manifest summary.
    """
    out = stdout if stdout is not None else sys.stdout
    parser = _Parser("reprorr")
    modes = parser.add_subparsers(dest="mode", required=True)
    record = modes.add_parser("record")
    record.add_argument("-o", dest="output")
    record.add_argument("--interval", type=int, default=DEFAULT_INTERVAL)
    record.add_argument("--planes", type=_comma_list(_plane), default=[])
    record.add_argument("--rate", type=float, default=0.005)
    record.add_argument("--seed", type=int, default=1993)
    record.add_argument("--kinds", type=_comma_list(_event_kind))
    record.add_argument("--capacity", type=_positive_int)
    record.add_argument("--nodes", type=_positive_int)
    record.add_argument("script")
    record.add_argument("args", nargs=argparse.REMAINDER)
    replay, seek = modes.add_parser("replay"), modes.add_parser("seek")
    for rerun in (replay, seek):
        rerun.add_argument("--script")
        rerun.add_argument("recording")
    seek.add_argument("--cycle", type=int, required=True)
    modes.add_parser("info").add_argument("recording")
    args = parser.parse_args(argv)

    if args.mode == "info":
        print(_rr_load(args.recording).describe(), file=out)
        return 0

    if args.mode in ("replay", "seek"):
        script = args.script
        recording = _rr_load(args.recording)
        if script is None and recording.manifest.get("script") \
                and not os.path.isfile(recording.manifest["script"]):
            parser.error(f"recorded script "
                         f"{recording.manifest['script']!r} not found; "
                         f"pass --script")
        if args.mode == "replay":
            report = replay_script(recording, script)
            print(report.render(), file=out)
            return 0 if report.ok else 1
        result = seek_script(recording, args.cycle, script)
        print(result.render(), file=out)
        return 0 if result.digest_ok and result.suffix_identical else 1

    script, output = args.script, args.output
    if not os.path.isfile(script):
        parser.error(f"no such script: {script}")
    plans = _campaign_plans(args.planes, args.rate)

    inputs = script_inputs()
    if args.nodes is not None:
        inputs["REPRO_CLUSTER"] = str(args.nodes)
    extra = {} if args.capacity is None \
        else {"trace_capacity": args.capacity}
    recording = record_script(script, args.args, inputs=inputs,
                              interval=args.interval, plans=plans,
                              inject_seed=args.seed, trace_kinds=args.kinds,
                              **extra)
    if output is None:
        stem = os.path.splitext(os.path.basename(script))[0]
        output = f"{stem}.rrr"
    recording.save(output)
    size = os.path.getsize(output)
    print(f"recorded {script}: {len(recording.events)} event(s), "
          f"{len(recording.boots)} boot(s), "
          f"{len(recording.checkpoints)} checkpoint(s), outcome "
          f"{recording.outcome}", file=out)
    print(f"wrote {output} ({size} bytes)", file=out)
    return 0 if recording.outcome != "kernel-death" else 1


def _san_examples_dir() -> str:
    """The in-repo ``examples/`` directory (next to ``src/``)."""
    import repro as _repro

    package = os.path.dirname(os.path.abspath(_repro.__file__))
    return os.path.join(os.path.dirname(os.path.dirname(package)),
                        "examples")


def _san_replay(case, out: TextIO, output: Optional[str]) -> int:
    """Record one armed run of *case*, then time-travel to the first
    finding: seek the recording to the earliest racing access (or heap
    misuse) cycle and verify the suffix replays bit-identically."""
    holder = {}

    def runner() -> None:
        case.body()
        holder["report"] = active_run().sanitizer.report

    recording = record_call(runner, session=replace(
        current(), sanitize_limit=DEFAULT_REPORT_LIMIT))
    report = holder["report"]
    if report.clean:
        print(f"{case.name}: no findings to replay to", file=out)
        return 1
    if report.races:
        race = report.races[0]
        target = min(race.first.cycle, race.second.cycle)
        print(f"first racing pair ({race.kind} "
              f"{race.segment}+0x{race.offset:x}):", file=out)
        print(f"  first:  {race.first.render()}", file=out)
        print(f"  second: {race.second.render()}", file=out)
    else:
        finding = report.heap[0]
        target = finding.cycle
        print(f"first heap finding: {finding.render()}", file=out)
    if output is not None:
        recording.save(output)
        print(f"wrote {output} ({os.path.getsize(output)} bytes)",
              file=out)
    result = seek_call(recording, target, runner)
    print(result.render(), file=out)
    return 0 if result.digest_ok and result.suffix_identical else 1


def reprosan_main(argv: Sequence[str],
                  stdout: Optional[TextIO] = None) -> int:
    """The sanitizer front end — report, soak, and replay-to-race.

    ``reprosan list``

    Shows the seeded race/heap-misuse corpus
    (:func:`repro.sanitize.corpus.san_cases`), one line per case.

    ``reprosan run CASE [--limit N] [--replay] [-o FILE]``

    Arms the sanitizer, runs the named corpus case, and renders the
    deterministic report. Exit 0 when the case's expected finding
    fired; 1 otherwise. With ``--replay`` the case is instead run
    under the :mod:`repro.rr` recorder and the run is re-executed with
    a seek to the first racing access pair (earliest cycle of the
    pair), verifying the event suffix is bit-identical; ``-o FILE``
    additionally saves the recording.

    ``reprosan soak``

    CI's sanitize-soak: every corpus case is recorded once with
    ``SAN`` tracing and replayed once; each must fire its expected
    finding, and the replay must reproduce the ``SAN`` events and the
    printed report render bit-for-bit. Exit 1 on any miss or drift.

    ``reprosan sweep [DIR]``

    The false-positive gate: runs every ``examples/`` program (or
    every ``*.py`` under DIR) with the sanitizer armed and fails if
    *anything* fires — the examples are race-free by construction.
    """
    from repro.sanitize.corpus import case_named, san_cases

    out = stdout if stdout is not None else sys.stdout
    parser = _Parser("reprosan")
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("list")
    run = modes.add_parser("run")
    run.add_argument("case")
    run.add_argument("--limit", type=int, default=256)
    run.add_argument("--replay", action="store_true")
    run.add_argument("-o", dest="output")
    modes.add_parser("soak")
    modes.add_parser("sweep").add_argument(
        "directory", nargs="?", default=_san_examples_dir())
    args = parser.parse_args(argv)

    if args.mode == "list":
        for case in san_cases():
            print(f"{case.name:24s} [{case.kind}] {case.title}",
                  file=out)
        return 0

    if args.mode == "run":
        try:
            case = case_named(args.case)
        except KeyError:
            known = ", ".join(c.name for c in san_cases())
            parser.error(f"no corpus case {args.case!r} (known: {known})")
        if args.replay:
            return _san_replay(case, out, args.output)
        with contextlib.redirect_stdout(io.StringIO()):
            report = case.run(report_limit=args.limit)
        print(report.render(), file=out)
        fired = case.expect in report.render()
        print(f"expected {case.expect!r}: "
              f"{'fired' if fired else 'MISSING'}", file=out)
        return 0 if fired else 1

    if args.mode == "soak":
        session = recording_session(
            interval=0, trace_kinds=("SAN",),
            sanitize_limit=DEFAULT_REPORT_LIMIT)
        failures = 0
        for case in san_cases():
            def runner(case=case) -> None:
                try:
                    case.body()
                finally:
                    print(active_run().sanitizer.report.render())

            soak = soak_call(runner, session)
            fired = case.expect in soak.outcome.output
            verdict = "ok" if fired and soak.ok else \
                ("DRIFT" if fired else "MISSING")
            findings = soak.outcome.output.splitlines()[0] \
                .split(": ", 1)[1]
            print(f"{case.name:24s} {verdict:8s} {findings}", file=out)
            if verdict != "ok":
                failures += 1
                if not soak.report.ok:
                    print(soak.report.render(), file=out)
        print(f"soak: {len(san_cases()) - failures}/{len(san_cases())} "
              f"case(s) ok", file=out)
        return 0 if failures == 0 else 1

    # sweep
    directory = args.directory
    if not os.path.isdir(directory):
        parser.error(f"no such directory: {directory}")
    scripts = sorted(entry for entry in os.listdir(directory)
                     if entry.endswith(".py"))
    if not scripts:
        parser.error(f"no *.py scripts in {directory}")
    session = replace(current(), sanitize_limit=DEFAULT_REPORT_LIMIT)
    dirty = 0
    for script in scripts:
        path = os.path.join(directory, script)
        outcome = session.execute(script_runner(path))
        report, stats = outcome.run.sanitizer.report, \
            outcome.run.sanitizer.stats
        if outcome.status != "clean":
            dirty += 1
            print(f"{script:24s} {outcome.status}: {outcome.detail}",
                  file=out)
        elif report.clean:
            print(f"{script:24s} clean ({stats.accesses} access(es), "
                  f"{stats.hb_edges} hb edge(s))", file=out)
        else:
            dirty += 1
            print(f"{script:24s} {len(report.races)} race(s), "
                  f"{len(report.heap)} heap finding(s):", file=out)
            print(report.render(), file=out)
    print(f"sweep: {len(scripts) - dirty}/{len(scripts)} script(s) "
          f"clean", file=out)
    return 0 if dirty == 0 else 1


def load_archive(kernel: Kernel, proc: Process, path: str) -> Archive:
    data = kernel.vfs.read_whole(path, proc.uid, cwd=proc.cwd)
    return Archive.from_bytes(data)


def _load_any(kernel: Kernel, proc: Process, path: str) -> ObjectFile:
    try:
        return load_template(kernel, proc, path)
    except SimulationError as error:
        raise LinkError(f"{path!r} is not a HOF object: {error}")


#: The host tools, by the console-script name each is installed under.
HOST_TOOLS = {
    "reprotrace": reprotrace_main,
    "reprochaos": reprochaos_main,
    "repronet": repronet_main,
    "reprofsck": reprofsck_main,
    "reprorr": reprorr_main,
    "reprosan": reprosan_main,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The console entry point of every host tool; *argv* defaults to
    ``sys.argv``, program name first.

    The tool is the program name when installed as a console script
    (``reprochaos --seed 7 ...``). Otherwise (``python -m
    repro.tools.cli reprochaos --seed 7 ...``) it is the first argument,
    or ``reprotrace`` when that names no tool. A usage error prints one
    line on stderr and returns exit status 2.
    """
    args = list(sys.argv if argv is None else argv)
    tool = os.path.basename(args.pop(0))
    if tool not in HOST_TOOLS:
        tool = args.pop(0) if args and args[0] in HOST_TOOLS \
            else "reprotrace"
    try:
        return HOST_TOOLS[tool](args)
    except UsageError as error:
        print(error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
