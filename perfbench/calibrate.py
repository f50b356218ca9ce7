"""Measure the request rate the ``serve_open`` mix sustains.

Closed loop: ``CALLERS`` concurrent callers each send the next request
of the mix as soon as the previous one returns, which keeps the
gateway's one shard always busy for ``SECONDS``. The completed requests
per second are the sustainable rate; ``serve_open.RATE_RPS`` is frozen
at about a quarter of it. Run from the repository root::

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import asyncio
import itertools
import os
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 60.0
CALLERS = 4


async def saturate() -> float:
    from perfbench import serve_open as so
    from perfbench.common import clock

    asyncio.get_running_loop().set_default_executor(
        ThreadPoolExecutor(max_workers=so.SHARDS))
    snapshots = so.make_snapshots(0)
    gw = so._gateway(None)
    await so._warm(gw, snapshots)
    # Requests in schedule order, due times ignored, cycled as needed.
    requests = itertools.cycle(so.make_schedule(0, SECONDS))
    stop = clock() + SECONDS
    done = 0

    async def caller():
        nonlocal done
        while clock() < stop:
            rq = next(requests)
            ticket = await gw.submit(*so.geometry(rq.structure), rq.rhs,
                                     **so._submit_kwargs(rq, snapshots,
                                                         None))
            await ticket.result()
            done += 1

    t0 = clock()
    await asyncio.gather(*(caller() for _ in range(CALLERS)))
    rate = done / (clock() - t0)
    await gw.close()
    return rate


def main() -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    rate = asyncio.run(saturate())
    print(f"sustained {rate:.3f} req/s with {CALLERS} callers; "
          f"a quarter: {rate / 4:.3f} req/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
