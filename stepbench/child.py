"""Run one stepaudit CLI invocation in a fresh interpreter and report it.

Usage: ``python3 child.py SPEC`` where SPEC is a JSON object with keys
``root`` (the checkout holding ``src/stepaudit``), ``argv`` (CLI arguments,
or null to only import), ``trace`` (bool) and ``spans`` (file to write the
spans to in traced mode).  Prints one JSON line: ``setup_s`` (time to
import ``stepaudit.cli``), ``wall_s`` (time inside ``cli.main``),
``exit_code``, ``peak_rss_mb`` (peak resident memory) and, when traced, ``layers`` and ``calls``.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def peak_rss_mb() -> float:
    # On Linux ru_maxrss keeps the high-water mark of the process that forked
    # this one across exec, so it would report the parent's RSS; VmHWM starts
    # afresh with the new image.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import stepaudit.cli

    setup_s = time.perf_counter() - t0
    if not os.path.abspath(stepaudit.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"stepaudit imported from {stepaudit.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if spec["argv"] is not None:
        run = stepaudit.cli.main
        rec = None
        if spec["trace"]:
            import spans

            rec = spans.Recorder()
            result["missing_wrappers"] = spans.install(rec)
            run = rec.wrap(run, "cli", "main", "cli.main")
        t1 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result["exit_code"] = run(spec["argv"])
        except Exception:  # the parent counts this invocation as failed
            result["exit_code"] = None
            result["exception"] = traceback.format_exc(limit=8)
        result["wall_s"] = time.perf_counter() - t1
        if rec is not None:
            result["layers"] = spans.layer_metrics(rec.spans)
            result["calls"] = spans.call_counts(rec.spans)
            with open(spec["spans"], "w") as fh:
                json.dump([s._asdict() for s in rec.spans], fh)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
