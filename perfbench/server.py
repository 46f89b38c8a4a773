"""Server entry point of the ``serve_socket`` workload.

Runs an :class:`~repro.distrib.server.AlignmentServer` in its own process
with the workload's configuration.  It prints one JSON line with its port
once it listens, serves until a client sends the ``shutdown`` op (or
SIGTERM), then prints one JSON line with its peak resident set, the
server-side failure counters and, when traced, where its spans went.

    python3 perfbench/server.py --state PATH [--trace-out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def socket_config(state_path: str):
    from repro.api import AlignConfig, ServiceConfig

    from inputs import SOCKET_CACHE_CAPACITY, XDROP

    return AlignConfig(
        engine="batched",
        xdrop=XDROP,
        service=ServiceConfig(
            transport="process",
            num_workers=1,
            worker_policy="batch",
            state_path=state_path,
            cache_capacity=SOCKET_CACHE_CAPACITY,
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    from repro.distrib.server import AlignmentServer

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer().install()
    server = AlignmentServer(socket_config(args.state))
    print(json.dumps({"port": server.port, "pid": os.getpid()}), flush=True)
    server.serve_forever(install_signal_handlers=True)
    snapshot = server.service.metrics_snapshot()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace_out)
    # ru_maxrss is in KiB on Linux; the largest reaped child is the worker.
    peak_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    print(
        json.dumps(
            {
                "peak_rss_mb": peak_kib / 1024.0,
                "crashes": snapshot.value("repro_worker_crash_total", default=0.0),
                "redeliveries": snapshot.value(
                    "repro_durable_redelivered_total", default=0.0
                ),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
