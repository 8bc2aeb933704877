"""repro.sanitize — shared-segment race detector + heap sanitizer.

The dynamic half of "reprosan": an Eraser-style lockset +
happens-before race detector over public shared segments, armed at the
VM load/store choke points, plus a shmalloc heap sanitizer (redzones,
use-after-free, double-free, leaks at segment close). The static half
lives in :mod:`repro.analyze.sanitize` (the ``SAN*`` reprolint family).

Typical use: every kernel booted inside a run whose session sets
``sanitize_limit`` joins the run's one sanitizer (see
:mod:`repro.session`)::

    with Session(sanitize_limit=256).run() as run:
        kernel = repro.boot().kernel     # joins run.sanitizer
        ...                              # run the workload
    print(run.sanitizer.report.render())

or, per-kernel: ``install_sanitizer(kernel)`` (what ``repro.boot(
sanitize=True)`` does). Reports are deterministic per seed, and the
sanitizer never charges the simulated clock.
"""

from repro.sanitize.report import (
    AccessSite,
    HeapFinding,
    RaceFinding,
    SanReport,
)
from repro.sanitize.sanitizer import (
    SanStats,
    Sanitizer,
    install_sanitizer,
    uninstall_sanitizer,
)
from repro.sanitize.shadow import (
    Access,
    ThreadState,
    WordState,
    happens_before,
    vc_join,
)

__all__ = [
    "Access",
    "AccessSite",
    "HeapFinding",
    "RaceFinding",
    "SanReport",
    "SanStats",
    "Sanitizer",
    "ThreadState",
    "WordState",
    "happens_before",
    "install_sanitizer",
    "uninstall_sanitizer",
    "vc_join",
]
