"""Developer tools layered on the Hemlock toolchain.

* :mod:`hgen` — the §6 "Language Heterogeneity" experiment: generate
  declarations and access routines for a shared module in another
  language, from nothing but the module's symbol table.
* :mod:`cli` — the command-line front ends: the toolchain that runs
  inside the simulation (``lds``, ``toycc``, ``as``, ...) and the host
  tools (``reprotrace``, ``reprochaos``, ...).
"""

from repro.tools.hgen import (
    generate_toyc_header,
    generate_python_accessors,
    load_python_accessors,
)

__all__ = [
    "generate_toyc_header",
    "generate_python_accessors",
    "load_python_accessors",
]
