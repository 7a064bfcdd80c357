"""Runs one midlime CLI command and stamps when the CLI became callable.

    BENCH_STAMP=stamp.json [BENCH_LAUNCH=<monotonic>] [BENCH_TRACE=1] \
        python3 bench/launch.py explain --audio clip.wav --out out/

The process imports midlime.cli exactly as `python3 -m midlime.cli` would,
records time.monotonic() once `main` can be called, runs it, and writes the
stamp file from the last exit hook, after worker threads have been joined
and the package's own exit hooks have run. CLOCK_MONOTONIC is system-wide on
Linux, so the parent can subtract its own launch time. With BENCH_TRACE=1
the layer boundaries are wrapped first, and the stamp file holds the spans
on its first line and, on its second, the time at which they were written.
"""

import atexit
import json
import os
import sys
import time

import midlime.cli

ready = time.monotonic()


def main() -> int:
    tracer = None
    if os.environ.get("BENCH_TRACE") == "1":
        import spans

        tracer = spans.Tracer(os.environ.get("BENCH_RUN_ID", "0"))
        launched = float(os.environ["BENCH_LAUNCH"])
        tracer.open("cli.root", start=launched)
        tracer.close(tracer.open("cli.setup", start=launched), end=ready)
        spans.install(tracer)
    # Exit hooks run last-registered first, so this one runs after any
    # that the package registers while the command runs.
    atexit.register(write_stamp, tracer)
    if tracer is None:
        return midlime.cli.main(sys.argv[1:])
    span = tracer.open("cli.main")
    try:
        return midlime.cli.main(sys.argv[1:])
    finally:
        tracer.close(span)
        tracer.open("cli.exit")


def write_stamp(tracer) -> None:
    """Spans so far, then the time they were written; `cli.exit` and
    `cli.root` are still open, and that time closes them."""
    with open(os.environ["BENCH_STAMP"], "w", encoding="utf-8") as fh:
        json.dump({"ready": ready,
                   "spans": tracer.spans if tracer is not None else None}, fh)
        fh.write("\n")
        fh.flush()
        fh.write(json.dumps({"written": time.monotonic()}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
