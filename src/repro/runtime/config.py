"""RuntimeConfig — the consolidated public runtime configuration.

Everything that decides *how* a batch executes (as opposed to *what the
analysis computes*, which is :class:`~repro.core.engine.EngineConfig`)
lives here: the paper-mode, the backend, the worker count, and the
backend tuning/fault knobs that used to sprawl across
:class:`~repro.runtime.executor.ParallelCFL`'s keyword surface.

Callers pass it whole: ``Session.open(path, runtime=RuntimeConfig(...))``
through :mod:`repro.api`, ``ParallelCFL(build, runtime=...)`` inside
the runtime layer, and the runner passes it on to each executor it
makes (``MPExecutor(pag, runtime, ...)`` and so on), which reads what
it needs from it.  Every runtime default and range check is defined
here and nowhere else.  There is no keyword shim: the
pre-consolidation keywords raise ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import RuntimeConfigError

__all__ = ["RuntimeConfig", "MODES", "BACKENDS"]

#: The paper's four analysis configurations (Section IV-C).
MODES = ("seq", "naive", "D", "DQ")
#: Execution substrates: deterministic simulator, in-process on the
#: calling thread over one shared jump map, real threads, real
#: processes, the bulk matrix kernel, and the size-routed hybrid of the
#: matrix kernel and the in-process runner (matrix for large batches,
#: local for sparse ones).
BACKENDS = ("sim", "local", "threads", "mp", "matrix", "hybrid")


@dataclass(frozen=True)
class RuntimeConfig:
    """How a batch runs.  Validated eagerly on construction.

    ``cost_model`` applies to the ``sim`` backend only; ``chunk_size``,
    ``faults``, ``unit_timeout``, ``max_chunk_retries`` and
    ``max_respawns`` apply to the ``mp`` backend only (other backends
    ignore them).  Every default is defined here
    once: the command line leaves an unset flag to it
    (:meth:`from_flags`), and the executors read the values from the
    config they are made with instead of restating them.
    """

    #: seq / naive / D / DQ (Section IV-C).
    mode: str = "DQ"
    #: Worker count (see :attr:`effective_threads` for when it is 1).
    n_threads: int = 16
    #: sim / local / threads / mp / matrix / hybrid (see :data:`BACKENDS`).
    backend: str = "sim"
    #: mp dispatch granularity: units per message (None: auto).
    chunk_size: Optional[int] = None
    #: Simulated-time cost model (sim backend).
    cost_model: Optional[object] = None
    #: Fault-injection plan (:class:`repro.runtime.faults.FaultPlan`).
    faults: Optional[object] = None
    #: Per-chunk wall deadline in seconds (mp; None disables).
    unit_timeout: Optional[float] = None
    #: Requeues a chunk survives before quarantine (mp).
    max_chunk_retries: int = 2
    #: Total worker respawns across a batch (mp; None: 2 * workers).
    max_respawns: Optional[int] = None
    #: Batch size at which the ``hybrid`` backend routes to the bulk
    #: matrix kernel instead of the demand engine (None: the measured
    #: default, :data:`repro.core.scheduling.DEFAULT_BULK_CROSSOVER`).
    hybrid_crossover: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise RuntimeConfigError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.backend not in BACKENDS:
            raise RuntimeConfigError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.n_threads < 1:
            raise RuntimeConfigError(
                f"n_threads must be >= 1, got {self.n_threads}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise RuntimeConfigError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise RuntimeConfigError(
                f"unit_timeout must be > 0, got {self.unit_timeout}"
            )
        if self.max_chunk_retries < 0:
            raise RuntimeConfigError(
                f"max_chunk_retries must be >= 0, got {self.max_chunk_retries}"
            )
        if self.max_respawns is not None and self.max_respawns < 0:
            raise RuntimeConfigError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )
        if self.hybrid_crossover is not None and self.hybrid_crossover < 1:
            raise RuntimeConfigError(
                f"hybrid_crossover must be >= 1, got {self.hybrid_crossover}"
            )

    # ------------------------------------------------------------------
    @property
    def sharing(self) -> bool:
        """Data sharing is on for the D and DQ configurations."""
        return self.mode in ("D", "DQ")

    @property
    def scheduling(self) -> bool:
        """Query scheduling is on for DQ only."""
        return self.mode == "DQ"

    @property
    def effective_threads(self) -> int:
        """The worker count actually used: seq mode, and the backends
        that run on the calling thread (``local``, ``matrix`` and
        ``hybrid``, which routes between them), mean one worker."""
        if self.mode == "seq" or self.backend in ("local", "matrix", "hybrid"):
            return 1
        return self.n_threads

    @classmethod
    def from_flags(cls, **flags) -> "RuntimeConfig":
        """A config from command-line flags, where a flag left unset
        (``None``) keeps this class's default."""
        return cls(**{k: v for k, v in flags.items() if v is not None})

    def with_(self, **changes) -> "RuntimeConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)
