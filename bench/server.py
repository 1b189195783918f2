"""Command server: imports ``tagstab.cli`` once, then forks one fresh child
process per command execution.

Start-up prints one JSON line with the import time.  Each request is one
JSON line on stdin; the server forks, waits for the child and answers with
one JSON line holding the child's exit status.  The child sends stdout and
stderr to files, times only ``tagstab.cli.main(argv)`` and writes its
result as JSON.  Forking skips the ~1.2 s import per execution; the child
still starts with no state from any earlier command.

With ``"trace": true`` the child wraps the program's public functions
before the call and writes the spans; with ``"held"`` it loads one log
under tracemalloc and reports the bytes the loaded corpus holds.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
import warnings


def _run(request: dict, cli) -> dict:
    if "held" in request:
        import tracemalloc

        from tagstab.ingest import ingest_tag_log

        tracemalloc.start()
        loaded = ingest_tag_log(request["held"])
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        del loaded
        return {"rc": 0, "held_mb": held / 2**20}

    runtime_warnings = 0
    shown = warnings.showwarning

    def count(message, category, *args, **kwargs):
        nonlocal runtime_warnings
        if issubclass(category, RuntimeWarning):
            runtime_warnings += 1
        shown(message, category, *args, **kwargs)

    warnings.showwarning = count
    tracer = None
    main = cli.main
    if request.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        traced_main = cli.main

        def main(argv):
            return tracer.call(f"cli.{argv[0]}", traced_main, argv)

    start = time.perf_counter()
    cpu = time.process_time()
    rc = main(request["argv"])
    seconds = time.perf_counter() - start
    cpu = time.process_time() - cpu
    sys.stdout.flush()
    result = {
        "rc": rc,
        "seconds": seconds,
        "cpu_s": cpu,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "runtime_warnings": runtime_warnings,
    }
    if tracer is not None:
        tracer.dump(request["spans"], runtime_warnings=runtime_warnings)
    return result


def _child(request: dict, cli) -> None:
    code = 0
    try:
        out = open(request.get("out", os.devnull), "w", encoding="utf-8")
        err = open(request["err"], "w", encoding="utf-8")
        # The server's own stdout is the reply pipe: keep every write of the
        # child, Python-level or not, away from it.
        os.dup2(out.fileno(), 1)
        os.dup2(err.fileno(), 2)
        sys.stdout, sys.stderr = out, err
        result = _run(request, cli)
        out.close()
        with open(request["result"], "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    except BaseException:  # report anything, then leave without cleanup
        traceback.print_exc()
        code = 1
    finally:
        sys.stderr.flush()
        os._exit(code)


def main() -> None:
    start = time.perf_counter()
    import tagstab.cli as cli

    import_s = time.perf_counter() - start
    reply = sys.stdout
    reply.write(json.dumps({"import_s": import_s, "tagstab": os.path.dirname(cli.__file__)}) + "\n")
    reply.flush()
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            _child(request, cli)
        _, status = os.waitpid(pid, 0)
        reply.write(json.dumps({"status": os.waitstatus_to_exitcode(status)}) + "\n")
        reply.flush()


if __name__ == "__main__":
    main()
