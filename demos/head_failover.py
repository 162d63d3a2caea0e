"""Kill a cluster head mid-flow and compare the two recovery stories.

A five-node chain carries a steady 4 packets/s flow through a cluster head.
At t=10 s that head's battery is zeroed. In baseline mode (cbrp) the orphaned
members fall all the way back to the undecided state and re-run the election;
in enhanced mode (ecbrp) the pre-designated secondary head is promoted in
place and the next hop is spliced, so no node ever leaves the cluster and the
flow never stalls.

Run:  python3 demos/head_failover.py
"""

from cbrsim import run_failover_trace
from cbrsim.traces import FAILOVER_KILL_TIME

for mode, label in (("cbrp", "baseline (lowest-id election, no secondary)"),
                    ("ecbrp", "enhanced (weighted election + secondary head)")):
    result = run_failover_trace(mode)
    m = result.metrics
    print(f"{label}")
    print(f"  packets: {m.packets_delivered}/{m.packets_sent} delivered, "
          f"{m.total_dropped} dropped")
    print(f"  delivered after the head died (t>={FAILOVER_KILL_TIME:.0f}s): "
          f"{result.delivered_after_kill}")
    print(f"  cluster reformations (nodes forced back to undecided): "
          f"{m.cluster_reformations}")
    # The hop path actually taken by the last delivered packet tells the
    # recovery story: the dead head 0 is replaced on the fly.
    hop_records = result.sim.records("hop")
    last_pid = max(pid for _t, pid, _from, to in hop_records if to == 3)
    hops = [frm for _t, pid, frm, _to in hop_records if pid == last_pid] + [3]
    print(f"  last packet's path 4->3: {hops}\n")
