"""Run the database server in its own process for the ``http_mixed`` workload.

Usage (from the checkout root)::

    python3 perfbench/server_launcher.py --dir DIR --seed N --preload K --out REPORT [--trace]

The launcher opens ``GraphDatabase(path=DIR, thread_safe=True)``, creates
the ``bench`` graph with an index on ``Event.key`` and the firing audit
trigger, preloads ``K`` Events, and serves it with ``DatabaseServer`` on a
free port.  It talks to the benchmark over its standard output:

* ``READY <port>`` once the server accepts connections;
* with ``--trace``, SIGUSR1 starts span recording (``RECORDING``) and
  SIGUSR2 stops it (``STOPPED``); the wrappers are installed before the
  server starts, so the recorder sees the same entry points as in-process;
* SIGINT shuts the server down gracefully (drain, checkpoint, close), then
  the launcher writes its report — peak resident memory and, when traced,
  per-layer span totals and counter deltas — as JSON to ``REPORT`` and
  exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import sys

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRAPH = "bench"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--preload", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None, help="where to write the spans when traced")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.database import GraphDatabase
    from repro.server.app import DatabaseServer

    recorder = tracing.Recorder() if args.trace else None
    if recorder is not None:
        tracing.instrument(recorder)

    database = GraphDatabase(path=args.dir, thread_safe=True, lock_timeout=30.0)
    session = database.graph(GRAPH)
    session.graph.create_property_index("Event", "key")
    session.create_trigger(workloads.AUDIT_TRIGGER)
    (query, parameters), _values = workloads.preload_events(args.seed, args.preload)
    session.run(query, parameters).consume()
    server = DatabaseServer(database, host="127.0.0.1", port=0)
    window: dict[str, dict[str, int]] = {}

    def start_recording() -> None:
        window["before"] = tracing.harvest(session)
        recorder.enabled = True
        print("RECORDING", flush=True)

    def stop_recording() -> None:
        recorder.enabled = False
        window["after"] = tracing.harvest(session)
        print("STOPPED", flush=True)

    async def serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGINT, stop.set)
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        if recorder is not None:
            loop.add_signal_handler(signal.SIGUSR1, start_recording)
            loop.add_signal_handler(signal.SIGUSR2, stop_recording)
        print(f"READY {server.port}", flush=True)

        async def stop_when_orphaned() -> None:
            # Only the benchmark stops this process; once it is gone, stop.
            parent = os.getppid()
            while os.getppid() == parent:
                await asyncio.sleep(1.0)
            stop.set()

        watcher = asyncio.create_task(stop_when_orphaned())
        try:
            await stop.wait()
        finally:
            watcher.cancel()
            await server.stop()

    asyncio.run(serve())

    report: dict = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        report["layers"] = tracing.layer_totals(recorder.span_lists())
        report["bytes_written"] = recorder.bytes_written
        if "after" in window:
            report["counters"] = tracing.counter_delta(window["after"], window["before"])
        if args.spans:
            recorder.dump(args.spans)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(report, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
