"""Summary statistics, host speed, memory and host facts.

Host speed.  On a shared virtual machine the speed of the same code
drifts by up to 1.6x between states that last tens of seconds, longer
than one run, so raw wall times of identical code disagree from run to
run by more than any useful bound.  :class:`HostSpeed` therefore times a
fixed pure-Python reference loop (no analysis code) at quiescent points
of a run, and each timed sample is scaled by ``REFERENCE_S / loop
time``: the result is the sample's wall time on a host whose reference
loop takes ``REFERENCE_S``.  A change to the analysis moves the scaled
value exactly as it moves the wall time; a slow host phase moves both
the sample and the loop and cancels.  Raw wall times are printed too.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, Sequence


#: Nominal duration of one reference loop: the scaled unit's definition.
REFERENCE_S = 0.003
#: Loop iterations: 2.0-3.6 ms on the 2-CPU Xeon VM the bounds were set
#: on, so scaled values stay close to wall-clock ones there.
REFERENCE_N = 12000


def reference_loop(n: int = REFERENCE_N) -> float:
    """Seconds for a fixed dict/int workload, independent of the code
    under test."""
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        acc ^= key
    sorted(table.values())
    return time.perf_counter() - t0


class HostSpeed:
    """The latest host-speed reading, taken where nothing else of the
    benchmark runs.  ``scale`` converts a wall time just measured into
    reference time."""

    def __init__(self, interval: float = 0.5) -> None:
        self.interval = interval
        self.scale = 1.0
        self._last = -math.inf

    def probe(self, force: bool = False) -> None:
        """Read the host speed (best of five loops), at most once per
        ``interval`` unless ``force``."""
        if not force and time.perf_counter() - self._last < self.interval:
            return
        self.scale = REFERENCE_S / min(reference_loop() for _ in range(5))
        self._last = time.perf_counter()


def median(xs: Sequence[float]) -> float:
    return statistics.median(xs)


def p90(xs: Sequence[float]) -> float:
    """90th percentile (inclusive interpolation; needs 2+ samples)."""
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def gmean(xs: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def maxrss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its largest waited-for
    child) in MB; Linux reports ``ru_maxrss`` in KiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_fingerprint(root: Path) -> Dict[str, object]:
    """Facts that decide whether two results are comparable."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    commit = "none (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }
