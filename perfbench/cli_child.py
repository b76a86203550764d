"""Run one weylurn CLI request with its library calls traced.

    python3 perfbench/cli_child.py FD ARGS...

weylurn must be importable (PYTHONPATH=src).  The request's stdout,
stderr and exit status are those of `python -m weylurn ARGS...`.  When it
ends, however it ends, one JSON object goes to file descriptor FD: the
clock readings at the start and end of the command, and per span name
the calls, busy seconds and self seconds.
"""

import json
import os
import sys

import tracing
import weylurn.cli


def main() -> None:
    fd, args = int(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer()
    modules = {name: sys.modules[f"weylurn.{name}"] for name in ("algebra", "histories", "poly", "series")}
    tracer.rebind(modules, tracing.INNER_CALLS)
    tracer.rebind({"cli": weylurn.cli}, [("cli", attr, name) for attr, name in tracing.CLI_CALLS])
    start = tracing.clock()
    try:
        weylurn.cli.main(args=args, prog_name="weylurn")
    finally:
        end = tracing.clock()
        layers, _ = tracing.summarize(tracer.spans)
        with os.fdopen(fd, "w") as out:
            json.dump({"start": start, "end": end, "layers": layers}, out)


if __name__ == "__main__":
    main()
