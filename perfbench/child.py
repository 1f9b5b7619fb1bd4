"""One CLI invocation in a fresh interpreter, timed from the inside.

Usage: python child.py RESULT_JSON TRACE -- ginprod-arguments...

Imports ``ginprod.cli`` (the set-up a CLI user pays on every call), then
runs ``ginprod.cli.main`` on the arguments with stdout going wherever the
parent pointed it. With TRACE = 1 the public functions of every layer are
wrapped in timing spans for the duration of the call and restored after.
RESULT_JSON receives monotonic-clock timestamps (comparable with the
parent's ``time.perf_counter`` on Linux), process CPU seconds, peak RSS
and, when traced, the span summary. The exit status is the CLI's.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        print("usage: child.py RESULT_JSON TRACE -- ARGS...", file=sys.stderr)
        return 2

    import ginprod.cli

    ready = time.perf_counter()
    cpu_ready = time.process_time()
    expected = os.path.join(os.environ["PERFBENCH_SRC"], "ginprod")
    if os.path.dirname(os.path.abspath(ginprod.cli.__file__)) != os.path.abspath(expected):
        print(f"ginprod imported from {ginprod.cli.__file__}, not {expected}", file=sys.stderr)
        return 2

    record: dict = {"ready": ready}
    if trace == "1":
        import spans

        recorder = spans.Recorder()
        restore = spans.install(recorder)
        try:
            status = ginprod.cli.main(argv)
        finally:
            restore()
        record["left_wrapped"] = spans.wrapped_bindings()
        record["spans"] = recorder.summary()
    else:
        status = ginprod.cli.main(argv)
    sys.stdout.flush()
    record.update(
        done=time.perf_counter(),
        cpu_s=time.process_time() - cpu_ready,
        status=status,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
