"""One shard-worker process of the ``fleet_socket`` workload.

Runs the public ``serve_worker`` with this worker's ``ShardEndpoint``s
plus one control address the hub talks to.  The hub has no other way to
see inside a worker, and the fleet has no global clock, so the control
address does two jobs:

* every control frame is acknowledged.  Frames on one connection are
  handled in order, so an acknowledgement means everything the hub sent
  this worker before it has been processed and its output written;
* ``snap``/``reset``/``fold`` record a snapshot — CPU, peak RSS, the
  endpoints' own counters and (traced) the folded spans — and rewrite
  the dump file the hub reads when the run is over.

Control frames reuse the ``Attach`` wire message (its one field is a
JSON scalar), so the codec needs no new tag.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    path, n_shards, shard_ids, worker_no, dump_path, traced = argv
    root = Path(__file__).resolve().parents[2]
    sys.path[0:0] = [str(root), str(root / "src")]

    from repro.events.sharding import Attach, ShardEndpoint, ShardPlan
    from repro.net.transport import serve_worker

    from benchmarks.budget import trace
    from benchmarks.budget.common import cpu_seconds, peak_rss_mb

    tracer = None
    if traced == "1":
        tracer = trace.Tracer()
        trace.install(tracer)
    plan = ShardPlan(int(n_shards))
    shard_addrs = {sid: f"shard-{sid}" for sid in range(plan.n_shards)}
    endpoints: list[ShardEndpoint] = []
    snapshots: list[dict] = []

    def build(send):
        for sid in map(int, shard_ids.split(",")):
            endpoints.append(ShardEndpoint(sid, plan, shard_addrs[sid], send, shard_addrs))
        me = f"ctl-{worker_no}"

        def control(src, payload) -> None:
            command = payload.client
            if command == "reset" and tracer is not None:
                tracer.clear()
            if command != "sync":
                snapshots.append(snapshot(command))
                scratch = dump_path + ".part"
                with open(scratch, "w") as handle:
                    json.dump(snapshots, handle)
                os.replace(scratch, dump_path)
            send(me, src, Attach(f"ack-{worker_no}"))

        handlers = {endpoint.addr: endpoint.handle for endpoint in endpoints}
        handlers[me] = control
        return handlers

    def snapshot(command: str) -> dict:
        out = {
            "command": command,
            "cpu_s": cpu_seconds(),
            "peak_rss_mb": peak_rss_mb(),
            "processed": {e.shard_id: e.notifications_processed for e in endpoints},
        }
        if tracer is not None and command == "fold":
            out["folded"] = {
                label: [f.count, f.self_s] for label, f in tracer.fold().items()
            }
            out["tallies"] = dict(tracer.tallies)
            out["index_ops"] = trace.index_ops(tracer)
        return out

    asyncio.run(serve_worker(path, build))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
