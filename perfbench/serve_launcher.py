"""Run the ``repro`` CLI with the benchmark's layer wrappers installed.

    python3 perfbench/serve_launcher.py SPANS.json serve FILE [options]

The traced ``serve_hover`` phase boots the daemon through this script
instead of ``python -m repro``: it wraps the layer entry points (see
``perfbench/trace.py``), runs the CLI unchanged until it exits (a
graceful drain), then writes every span it kept in memory to
``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.trace import Tracer
    from repro.cli import main as cli_main

    out, args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    with tracer:
        code = cli_main(args)
    out.write_text(json.dumps([list(s) for s in tracer.spans]))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
