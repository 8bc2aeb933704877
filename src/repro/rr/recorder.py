"""The per-boot recorder ``reprorr`` arms through a session.

A run whose session sets ``interval`` (see :mod:`repro.session`) gives
every boot a :class:`Recorder`, kept on ``kernel.recorder`` and in the
run's ``recorders`` list. A single machine checkpoints when its clock
crosses the interval; a :class:`~repro.net.Cluster` member switches to
round-boundary checkpoints instead (a globally consistent cut), and
the cluster's lead recorder takes one capture of the whole cluster.

Pay-for-use: with nothing armed, the only costs are one integer
comparison per :meth:`Clock.charge <repro.kernel.timing.Clock.charge>`
and one ``is None`` check per cluster round. A fault-free plain boot
stays pinned at its recorded cycle total with recording off (the E11
benchmark asserts this).
"""

from __future__ import annotations

from typing import List, Optional

from repro.kernel.timing import CHECKPOINT_NEVER

#: Default cycles between checkpoints when recording is armed.
DEFAULT_INTERVAL = 1_000_000


class Recorder:
    """Checkpoint collection for one booted kernel."""

    def __init__(self, kernel, interval: Optional[int]) -> None:
        self.kernel = kernel
        self.interval = interval
        self.checkpoints: List[tuple] = []  # (state, cycle, cursor, boot)
        self.cluster = None
        if interval:
            kernel.clock.on_checkpoint = self._on_clock
            kernel.clock.checkpoint_at = kernel.clock.cycles + interval

    # -- single-machine path ---------------------------------------------

    def _on_clock(self, clock) -> None:
        # Clustered members checkpoint at round boundaries instead;
        # leave the clock hook disarmed once the NIC is attached.
        if self.cluster is not None:
            return
        self.take_checkpoint()
        clock.checkpoint_at = clock.cycles + self.interval

    def take_checkpoint(self) -> None:
        """Capture this machine now (also the explicit-sync entry)."""
        from repro.rr.checkpoint import capture_machine

        self._store(capture_machine(self.kernel),
                    self.kernel.clock.cycles)

    # -- cluster path ----------------------------------------------------

    def attach_cluster(self, cluster) -> None:
        self.cluster = cluster
        self.kernel.clock.checkpoint_at = CHECKPOINT_NEVER

    def cluster_due(self) -> bool:
        return bool(self.interval) \
            and self.kernel.clock.cycles >= self._next_due

    def take_cluster_checkpoint(self) -> None:
        from repro.rr.checkpoint import capture_cluster

        self._store(capture_cluster(self.cluster),
                    self.kernel.clock.cycles)

    # -- shared ----------------------------------------------------------

    @property
    def _next_due(self) -> int:
        if not self.checkpoints:
            return self.interval or CHECKPOINT_NEVER
        return self.checkpoints[-1][1] + (self.interval
                                          or CHECKPOINT_NEVER)

    def _store(self, state: list, cycle: int) -> None:
        from repro.trace import tracer as _trace

        tracer = _trace.TRACER
        cursor = tracer.cursor() if tracer.enabled else 0
        boot = tracer.boot_index if tracer.enabled else 0
        self.checkpoints.append((state, cycle, cursor, boot))
