"""Wall-clock benchmark of the analysis: four workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload batch_mp --seed 1 --seconds 20 --trace 0

See ``perfbench/run.py`` for the workloads, the metrics and the output
contract.  Everything here drives the system through its public entry
points (``repro.api`` and the ``repro`` CLI) and changes nothing under
``src/``.
"""
