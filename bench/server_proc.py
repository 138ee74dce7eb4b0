"""Run one mmfuse FusionServer on an ephemeral loopback port.

Usage: python3 bench/server_proc.py [--spans PATH]

Binds ``FusionServer(("127.0.0.1", 0))`` and prints ``PORT <n>`` once it
listens; that line is the ready signal the benchmark times set-up against.
Each ``stats`` line read on stdin is answered with one JSON line: process
CPU seconds, peak RSS and, when traced, the per-layer totals. End of stdin
shuts the server down. With ``--spans`` every layer is hooked first and the
kept spans are written to PATH on exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _stats(tracer) -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    out = {"cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss}
    if tracer is not None:
        out["totals"] = tracer.totals()
        out["absent"] = tracer.absent
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))

    tracer = None
    if args.spans is not None:
        from tracer import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)

    from mmfuse.server import FusionServer

    server = FusionServer(("127.0.0.1", 0))
    loop = threading.Thread(target=server.serve_forever, name="serve", daemon=True)
    loop.start()
    try:
        print(f"PORT {server.server_address[1]}", flush=True)
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps(_stats(tracer)), flush=True)
    finally:
        server.shutdown()
        server.server_close()
        loop.join(timeout=5)
        if tracer is not None:
            tracer.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
