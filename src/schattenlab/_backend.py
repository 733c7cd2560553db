"""The enumeration kernels, as the rest of the package reaches them.

``_kernels_py`` is the only kernel implementation.  This module stays as
the single import point: library modules call ``kernels.<name>`` through
it, so a tracer that replaces attributes of ``schattenlab._backend.kernels``
(as ``perfbench/spans.py`` does) sees every kernel call, and
``BACKEND`` feeds ``schattenlab.kernel_backend`` in run provenance.
"""

from . import _kernels_py as kernels

BACKEND = "python"

__all__ = ["kernels", "BACKEND"]
