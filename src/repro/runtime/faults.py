"""Fault injection for the parallel runtime.

The multiprocess backend (:mod:`repro.runtime.mp`) promises to survive
its own workers: a crashed, wedged, or babbling worker must cost the
batch a requeue, never an answer.  That promise is only worth anything
if the recovery paths actually run, so this module provides the
controlled failures the tests and ``repro bench --faults`` inject:

``kill``
    The worker calls :func:`os._exit` mid-chunk — the coordinator sees
    an ``EOFError`` on the pipe (the same signature as an OOM kill or a
    segfaulting native extension).
``hang``
    The worker sleeps for ``hang_s`` seconds before continuing — a
    straggler; with ``unit_timeout`` set the coordinator declares the
    deadline exceeded, kills the worker, and reassigns its chunk.
``exc``
    The worker raises :class:`InjectedFault`; the worker loop reports
    the traceback over the pipe (an ``("error", ...)`` message) and
    exits, exactly like a genuine engine bug escaping a query.
``garbage``
    The worker sends a malformed message on the result pipe — protocol
    corruption; the coordinator must treat the worker as compromised.

A :class:`FaultSpec` names one failure: the mode, which worker it
targets (``worker=None`` hits every worker), and how many work units
the worker completes before the fault fires (``after_units``).  Specs
fire at most once per worker *incarnation* — a respawned worker starts
a fresh :class:`FaultInjector`, so a persistent spec models a
reproducibly-crashy host while ``after_units`` models one-off failures.

A :class:`FaultPlan` is an immutable, picklable bundle of specs.  It
reaches workers one way: the ``faults`` field of
:class:`~repro.runtime.config.RuntimeConfig` (the facade hands it to
:class:`~repro.runtime.mp.MPExecutor`'s ``faults=`` argument), built
from :class:`FaultSpec` values or with :meth:`FaultPlan.single`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import RuntimeConfigError

__all__ = [
    "FAULT_MODES",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
]

FAULT_MODES = ("kill", "hang", "exc", "garbage")


class InjectedFault(RuntimeError):
    """The exception raised by ``exc``-mode faults inside a worker."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure (see the module docstring for the modes)."""

    mode: str
    #: Target worker id; ``None`` arms the spec on every worker.
    worker: Optional[int] = None
    #: Work units the worker completes before the fault fires (0 means
    #: the fault fires on the very first unit it is handed).
    after_units: int = 0
    #: Exit status for ``kill`` (any nonzero mimics an abnormal death).
    exit_code: int = 3
    #: Sleep length for ``hang``.  Finite by default so that a plan
    #: without a coordinator deadline still terminates eventually.
    hang_s: float = 600.0

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise RuntimeConfigError(
                f"fault mode must be one of {FAULT_MODES}, got {self.mode!r}"
            )
        if self.after_units < 0:
            raise RuntimeConfigError(
                f"after_units must be >= 0, got {self.after_units}"
            )
        if self.hang_s <= 0:
            raise RuntimeConfigError(f"hang_s must be > 0, got {self.hang_s}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable bundle of :class:`FaultSpec` entries."""

    specs: Tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    def for_worker(self, worker_id: int) -> Tuple[FaultSpec, ...]:
        """The specs armed on ``worker_id``."""
        return tuple(
            s for s in self.specs if s.worker is None or s.worker == worker_id
        )

    @classmethod
    def single(cls, mode: str, worker: Optional[int] = None,
               after_units: int = 0, **kw) -> "FaultPlan":
        """Convenience: a one-spec plan."""
        return cls((FaultSpec(mode, worker=worker, after_units=after_units, **kw),))


class FaultInjector:
    """Per-worker-incarnation fault driver.

    Lives inside the worker process; the worker loop calls
    :meth:`on_unit_start` before and :meth:`on_unit_end` after each
    work unit.  Each armed spec fires at most once per incarnation.
    """

    def __init__(self, plan: FaultPlan, worker_id: int, conn=None) -> None:
        self.worker_id = worker_id
        self.conn = conn
        self.specs: List[FaultSpec] = list(plan.for_worker(worker_id))
        self.units_done = 0
        self._fired: set = set()

    def on_unit_start(self) -> None:
        for i, spec in enumerate(self.specs):
            if i in self._fired or self.units_done < spec.after_units:
                continue
            self._fired.add(i)
            self._fire(spec)

    def on_unit_end(self) -> None:
        self.units_done += 1

    def _fire(self, spec: FaultSpec) -> None:
        if spec.mode == "kill":
            os._exit(spec.exit_code)
        elif spec.mode == "hang":
            time.sleep(spec.hang_s)
        elif spec.mode == "exc":
            raise InjectedFault(
                f"injected exception on worker {self.worker_id} "
                f"after {self.units_done} units"
            )
        elif spec.mode == "garbage":
            if self.conn is not None:
                try:
                    self.conn.send(("xyzzy", self.worker_id, "not-a-protocol-message"))
                except (BrokenPipeError, OSError):
                    pass
