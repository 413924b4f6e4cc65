"""``python -m foulkes.cli`` with spans, for the traced ``verify-cli`` run.

Measures process start plus ``import foulkes.cli`` against the spawn time
the parent put in the environment, wraps the names ``foulkes.cli`` imports,
runs ``main`` with the command line, and writes its spans and the memo sizes
to the file named in the environment.  Exits with ``main``'s status.
"""

import os
import sys

import spans as tracing

import foulkes.cli  # noqa: E402  (start-up cost being measured)

startup_s = tracing.startup_since_spawn()


def run() -> int:
    tracer = tracing.Tracer()
    tables = tracing.install(tracer)
    main = tracer.wrap("cli.main", foulkes.cli.main)
    tracer.recording = True
    try:
        code = main(sys.argv[1:])
    finally:
        tracer.recording = False
        sys.stdout.flush()
        tracer.dump(
            os.environ[tracing.SPAN_FILE_ENV],
            {"startup_s": startup_s, "memo": tracing.memo_sizes(tables)},
        )
    return code


if __name__ == "__main__":
    sys.exit(run())
