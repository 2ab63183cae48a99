"""Run ``repro`` CLI arguments with the layer wrappers installed.

The traced twin of ``python -m repro ARGS``::

    python3 perfbench/traced_cli.py SPAN_DIR OP_ID -- ARGS...

Spans of this process and of every worker it forks land in ``SPAN_DIR``.
With no ARGS it only imports the CLI and installs the wrappers.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder  # noqa: E402


def main(argv) -> int:
    out_dir, op, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPAN_DIR OP_ID -- ARGS...")
    recorder = Recorder(Path(out_dir), op=op)
    with recorder.span("import.repro"):
        import repro.cli
    import tracing

    tracing.install(recorder)
    try:
        return repro.cli.main(cli_args) if cli_args else 0
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
