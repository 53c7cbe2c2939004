"""One pass of a workload in a fresh interpreter.

Usage: python3 child.py SPEC_JSON, with the package's ``src`` directory on
PYTHONPATH.  SPEC_JSON holds ``commands`` (argv lists), ``src`` (the
directory paraferm must be imported from), ``trace`` and ``spans`` (the file
that receives the pass's spans when tracing).

The pass pins itself to the CPU in SPEC_JSON (``cpu``), the core the
calibrator samples, imports paraferm and stamps the time and its CPU time
so far, then calls ``paraferm.cli.main(argv)`` once per command.  A traced
pass then runs the layer probes (probes.py) and writes its spans.  Call
start and end are on CLOCK_MONOTONIC (``time.monotonic``), the clock the
parent and the calibrator use; each call's CPU time is recorded too.  It
prints one JSON object: the set-up stamps, each call's start, end, CPU
time, exit code, error and report text, the peak resident set (taken before
the probes) and the probe CPU times.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def call(main, argv: list[str]):
    """Run one CLI call with its stdout captured:
    (start, end, cpu seconds, rc, error, text)."""
    buf = io.StringIO()
    error = None
    rc = None
    start = time.monotonic()
    cpu = time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
        error = f"SystemExit({exc.code!r})"
    except Exception as exc:  # a raising check is a failed check, not a crash
        error = repr(exc)
    cpu = time.process_time() - cpu
    end = time.monotonic()
    return start, end, cpu, rc, error, buf.getvalue()


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.sched_setaffinity(0, {spec["cpu"]})
    import paraferm.cli

    ready = time.monotonic()
    ready_cpu = time.process_time()
    if os.path.dirname(os.path.realpath(paraferm.__file__)) != os.path.join(spec["src"], "paraferm"):
        print(f"paraferm imported from {paraferm.__file__}, not {spec['src']}", file=sys.stderr)
        return 1
    recorder = None
    if spec["trace"]:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    # looked up per call so the traced wrapper is used when installed
    calls = [call(paraferm.cli.main, argv) for argv in spec["commands"]]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe_s = None
    if recorder is not None:
        import probes

        probe_s = probes.run_probes()
        recorder.dump(spec["spans"])
    json.dump(
        {
            "ready": ready,
            "ready_cpu": ready_cpu,
            "rss_kib": rss_kib,
            "probes": probe_s,
            "calls": [
                {"start": s, "end": e, "cpu": cpu, "rc": rc, "error": err, "text": text}
                for s, e, cpu, rc, err, text in calls
            ],
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
