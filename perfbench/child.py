"""The measured process: one ``discoccg`` batch in a fresh interpreter.

Usage: python3 -m perfbench.child RECORD.json TRACE SPANS.tsv -- <discoccg args>

Times ``discoccg.cli.main`` from after the import to its return and writes
the wall time, the import time and the peak resident memory to RECORD.json.
With TRACE=1 the layer boundaries are wrapped first (see ``tracer``); the
per-layer metrics go into the record and the spans into SPANS.tsv.
"""

from __future__ import annotations

import json
from collections import Counter
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    record_path, trace, spans_path, sep, *cli_args = argv
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    from discoccg import cli
    import_s = time.perf_counter() - t0
    expected = (Path.cwd() / "src" / "discoccg").resolve()
    if Path(cli.__file__).resolve().parent != expected:
        print(f"discoccg imported from {cli.__file__}, not {expected}", file=sys.stderr)
        return 3

    tracer = None
    if trace == "1":
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    finally:
        wall = time.perf_counter() - start
        sys.stdout.flush()
        if tracer is not None:
            tracer.uninstall()
    record = {"rc": rc, "wall_s": wall, "import_s": import_s,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        from perfbench.tracer import aggregate

        record["layers"] = aggregate(tracer.spans, tracer.counters)
        record["span_calls"] = Counter(span[0] for span in tracer.spans)
        tracer.write_tsv(spans_path)
    Path(record_path).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
