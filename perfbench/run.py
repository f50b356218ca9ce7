"""Wall-clock benchmark of the DBSR solver stack, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload hpcg_mg --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``hpcg_mg`` — PCG + 3-level multigrid with the DBSR SYMGS smoother
  (closed loop, one caller);
* ``ilu_rotate`` — coefficient snapshots repacked through a
  ``PlanCache`` and solved by ILU(0)-PCG (closed loop, one caller);
* ``serve_open`` — a fixed Poisson arrival schedule of mixed kernel
  requests through ``SolveGateway`` (open loop).

Every input is generated before timing starts (the right-hand sides and
coefficients from ``--seed``), and every output is checked. Times
are reported at a fixed reference pace of the host, measured beside
each timed interval (``perfbench/pace.py``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same loop with the benchmark's own spans around each call into a layer
and prints the per-layer metrics. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    from perfbench.catalog import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _workload(name: str):
    if name == "hpcg_mg":
        from perfbench import hpcg_mg as mod
    elif name == "ilu_rotate":
        from perfbench import ilu_rotate as mod
    else:
        from perfbench import serve_open as mod
    return mod


def result(values: dict, tally, traced: bool) -> dict:
    """The output object; every metric of the mode, in catalogue order.

    A per-layer metric the workload never produced is a layer it never
    calls and reads 0.
    """
    from perfbench.catalog import END_TO_END, MAX_UNATTRIBUTED, PER_LAYER

    values = dict(values)
    if traced:
        values["error_rate"] = tally.failed / max(1, tally.attempted)
        share = values.get("bench.unattributed_share", 0.0)
        tally.check(share <= MAX_UNATTRIBUTED,
                    f"unattributed share {share:.3f} > "
                    f"{MAX_UNATTRIBUTED:g}")
    catalogue = PER_LAYER if traced else END_TO_END
    metrics = {}
    for name, unit, *_ in catalogue:
        v = float(values.get(name, 0.0))
        if not math.isfinite(v):
            tally.check(False, f"metric {name} is not finite")
            v = 0.0
        metrics[name] = {"value": v, "unit": unit}
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def one_malloc_arena() -> None:
    """Keep glibc's allocator to one arena for the whole process.

    ``serve_open`` runs kernels on a worker thread. By default glibc
    may give that thread an arena of its own, and whether it did made
    alternate runs about 10% larger and slower: a lottery in the C
    library, not a property of the program. No-op off glibc.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(-8, 1)  # M_ARENA_MAX


def one_cpu() -> None:
    """Run the benchmark, and every thread it starts, on one CPU.

    The pace units (``perfbench/pace.py``) should share a core with
    the work they pace: a VM's vCPUs may sit on host cores with
    different neighbours, and a thread on the other vCPU (the gateway's
    worker, or the caller after a migration) would run at a pace the
    units never saw. The lowest-numbered CPU the process may use is
    taken. No-op where affinity cannot be set.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no repro package under {ROOT}/src; run from a "
              "full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    one_malloc_arena()
    one_cpu()
    mod = _workload(args.workload)
    values, tally, notes = mod.run(args.seed, args.seconds,
                                   bool(args.trace))
    out = result(values, tally, bool(args.trace))
    for line in notes:
        print(line)
    for why in tally.notes:
        print(f"FAILED: {why}")
    for why in tally.problems:
        print(f"CHECK FAILED: {why}")
    for name, m in out["metrics"].items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
