"""A deliberately nondeterministic script for the drift tests.

It boots a machine, then prints how many times it has already run in
this host process — a counter kept outside the simulation, so two runs
in one process print different lines while every simulated event and
cycle stays the same. A soak that records it and replays it must
report an ``output`` divergence.
"""

import sys

from repro import boot

runs = getattr(sys, "host_counter_runs", 0)
sys.host_counter_runs = runs + 1
boot().kernel.shutdown()
print(f"earlier runs in this process: {runs}")
