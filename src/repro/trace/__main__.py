"""``python -m repro.trace [-o DIR] script.py [args...]`` — the
reprotrace CLI (same as the ``reprotrace`` console script)."""

import sys

from repro.tools.cli import main

sys.exit(main(["reprotrace"] + sys.argv[1:]))
