"""Watch a small network organize itself into clusters.

Nine stationary nodes are dropped in a 400 m x 400 m arena. Every node starts
undecided, broadcasts periodic HELLOs, and after two intervals the weighted
election picks the best-connected, least-mobile nodes as cluster heads.
Everyone else joins the lowest-weight head it can hear, and each head then
designates its lowest-weight member as the standby (secondary) head.

Run:  python3 demos/cluster_formation.py
"""

from cbrsim import ScenarioConfig, write_snapshot
from cbrsim.geometry import Position
from cbrsim.scenario import build_simulation

POSITIONS = {
    0: (60, 340),  1: (120, 300), 2: (70, 270),
    3: (210, 210), 4: (260, 260), 5: (290, 220),
    6: (330, 60),  7: (370, 110), 8: (260, 40),
}

config = ScenarioConfig(node_count=len(POSITIONS), protocol_mode="ecbrp",
                        duration_s=10.0, seed=1, node_speed_mps=0.0, flows=0)
sim = build_simulation(
    config, positions={i: Position(x, y) for i, (x, y) in POSITIONS.items()})
sim.trace = []
sim.run_until(config.duration_s)

print("role assignments after formation:")
for node in sim.nodes.values():
    extra = ""
    if node.role == "head":
        members = sorted(node.member_ids)
        extra = f"  members={members} secondary={node.secondary}"
    elif node.role == "member":
        extra = f"  cluster head={node.head_id}"
    print(f"  node {node.node_id}: {node.role:9s} weight={node.weight_now():6.2f}{extra}")

elections = sim.records("election")
print(f"\nelections held: {len(elections)}")
for t, head, weight, contested in elections:
    print(f"  t={t:4.1f}s  node {head} won with weight {weight:.2f} "
          f"against {list(contested) or 'no contenders'}")

write_snapshot(sim, "cluster_formation.svg")
print("\nwrote cluster_formation.svg (blue = heads, black = members)")
