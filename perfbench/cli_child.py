#!/usr/bin/env python3
"""A synthsel command-line process with span tracing installed.

    python3 perfbench/cli_child.py SPANS_JSON <synthsel arguments...>

Times the import of ``synthsel.cli``, installs the tracer, runs the
command and writes the spans and the import time to ``SPANS_JSON``.
``PYTHONPATH`` must point at the checkout's ``src``.
"""

import sys
import time

from tracing import OP, Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import synthsel.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.call(OP, synthsel.cli.main, (argv,), note={"kind": argv[0]})
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
