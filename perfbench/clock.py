"""The benchmark's clock: CPU seconds of this process and of the children it has waited for.

The machine this benchmark was designed on is a shared 2-core VM whose host
took a varying share of the CPU from it (the ``steal`` column of /proc/stat):
in one 10 s window 24%, and a fixed loop of NumPy and Python work took
0.62-1.53 s of wall time over eight repeats, while its CPU time stayed at
0.59-0.66 s.  Wall time measured the neighbours as much as the program; CPU
time leaves the stolen time out.  It also leaves out time spent waiting, for
example on ``fsync``.  The children's share covers the external adapter.

CPU time still moves with the speed at which the host runs the CPU it gives;
``speed.py`` scales it to a reference speed.  This module imports nothing
heavy, so that the benchmark can time the program's imports.
"""

from __future__ import annotations

import resource
import time


def cpu_s() -> float:
    """CPU seconds (user and system) used so far by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime
