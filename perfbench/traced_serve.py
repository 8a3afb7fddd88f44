"""Run ``repro serve`` with the benchmark's server-side spans recorded.

    python3 perfbench/traced_serve.py SPANS.json serve --port P [...]

Installs the wrappers of :data:`spans.SERVER_TARGETS`, hands the rest of
the command line to ``repro.cli.main`` and, once the server has stopped
(SIGTERM), writes every recorded span to ``SPANS.json``.  ``repro`` must
be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SERVER_TARGETS, SpanRecorder  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out, *command = argv
    recorder = SpanRecorder().install(SERVER_TARGETS)
    from repro.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
