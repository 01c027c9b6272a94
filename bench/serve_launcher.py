"""Run ``speechacts serve`` under the benchmark's speed probe, and tracer.

Pins the process to one CPU, so that every thread of the server runs where
the probe samples, starts a :class:`speed.Probe`, installs the span
wrappers when TRACE is not ``-``, then hands over to the CLI with the
remaining arguments. The probe's samples (and the spans) are written when
the CLI returns, which for ``serve`` is after SIGINT stops the server.

Usage: python3 serve_launcher.py SRC_DIR SPEED.json TRACE.jsonl|- CLI_ARGS...
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


def main() -> int:
    src, speed_path, trace_arg, cli_args = sys.argv[1], Path(sys.argv[2]), sys.argv[3], sys.argv[4:]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import speed

    with speed.Probe() as probe:
        try:
            return serve(cli_args, None if trace_arg == "-" else Path(trace_arg))
        finally:
            probe.write(speed_path)


def serve(cli_args: list[str], trace_path: Path | None) -> int:
    tracer = None
    if trace_path:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.phase = "serve"
    from speechacts.cli import main as cli_main

    try:
        cli_main.main(args=cli_args, prog_name="speechacts", standalone_mode=False)
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        if tracer:
            tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main())
