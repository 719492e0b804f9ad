#!/usr/bin/env python3
"""A recoverable key-value store, end to end.

Four threads put into a persistent chained-hash KV store, the ``pkv``
crash fixture (:mod:`repro.workloads.recoverable`).  Its crash safety
comes entirely from one ofence per put: the out-of-place entry is
*ordered* before the bucket head that names it, so on
ordering-preserving hardware a recovered pointer can never dangle.

Act one crashes the store on ASAP at a series of instants and runs its
recovery procedure on each crash image, then sweeps 50 crash points with
the campaign engine, which judges every point with the same procedure.
Act two runs the same sweep on the ``asap_no_undo`` ablation with a wide
flush window; the store jams one memory controller, and the recovery
procedure flags dangling pointers.

Run:  python examples/recoverable_kvstore.py
"""

from repro.crashtest import CrashPointSpec, run_campaign
from repro.sim.config import MachineConfig
from repro.workloads.registry import get_workload


def main() -> None:
    store = get_workload("pkv")
    print("--- ASAP: crash anywhere, recover cleanly ---")
    for crash_cycle in (400, 1200, 3000, 6000, 10**8):
        state = CrashPointSpec("pkv", "asap", crash_cycle).simulate()
        recovery = store.recover(state)
        when = "end" if crash_cycle == 10**8 else f"cycle {crash_cycle:>5}"
        print(f"crash at {when}: {recovery.entries_found:2d} entries, "
              f"{len(recovery.values)} keys, "
              f"{'clean' if recovery.clean else 'DANGLING POINTERS'}")
    (cell,) = run_campaign(["pkv"], models=["asap"]).cells
    print(f"campaign: {len(cell.results)} crash points, "
          f"{len(cell.failures)} failing")
    print()
    print("Every recovered chain was intact: the entry a head names is")
    print("always durable, because the entry was ordered before the head.")
    print()

    print("--- the same store on unsound hardware (no undo records) ---")
    (cell,) = run_campaign(
        ["pkv"], models=["asap_no_undo"],
        machine=MachineConfig(pb_inflight_max=32),
    ).cells
    dangling = [r for r in cell.failures
                if any(v.startswith("pkv: dangling pointer")
                       for v in r.oracle_violations)]
    print(f"dangling-pointer recoveries: {len(dangling)} of "
          f"{len(cell.results)} crash points")
    print(f"e.g. {dangling[0].oracle_violations[0]}")
    print(f"minimized to {cell.failure['media_lines']} surviving media "
          f"line(s) at cycle {cell.failure['crash_cycle']}")
    print("Eager flushing without recovery information lets a bucket head")
    print("outlive the entry it names; the store's own recovery procedure")
    print("detects the corruption -- but the data is gone.")


if __name__ == "__main__":
    main()
