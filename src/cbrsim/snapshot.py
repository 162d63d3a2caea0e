"""SVG topology snapshots: blue heads, black members, red dead nodes, gray
undecided nodes, with cluster-membership edges."""

from __future__ import annotations

from .engine import ROLE_DEAD, ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED, Simulator

ROLE_COLORS = {
    ROLE_HEAD: "#1f6fe0",        # blue
    ROLE_MEMBER: "#000000",      # black
    ROLE_DEAD: "#d62728",        # red
    ROLE_UNDECIDED: "#909090",   # gray (extension)
}

_MARGIN = 20.0
_NODE_RADIUS = 5.0


def render_snapshot(sim: Simulator, range_circles: bool = False,
                    weight_labels: bool = False) -> str:
    cfg = sim.config
    width = cfg.area_width_m + 2 * _MARGIN
    height = cfg.area_height_m + 2 * _MARGIN

    def sx(x: float) -> float:
        return x + _MARGIN

    def sy(y: float) -> float:
        # SVG y grows downward; flip so the arena origin is bottom-left.
        return cfg.area_height_m - y + _MARGIN

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}" '
        f'width="{width:g}" height="{height:g}">',
        f'<rect x="{_MARGIN:g}" y="{_MARGIN:g}" width="{cfg.area_width_m:g}" '
        f'height="{cfg.area_height_m:g}" fill="white" stroke="#cccccc"/>',
    ]

    # Membership edges first so markers draw on top.
    for node in sim.nodes.values():
        if node.role == ROLE_MEMBER:   # its head is a node of the run
            head = sim.nodes[node.head_id]
            parts.append(
                f'<line x1="{sx(node.pos.x):.1f}" y1="{sy(node.pos.y):.1f}" '
                f'x2="{sx(head.pos.x):.1f}" y2="{sy(head.pos.y):.1f}" '
                f'stroke="#bbbbbb" stroke-width="1"/>')

    for node in sim.nodes.values():
        if range_circles:
            parts.append(
                f'<circle cx="{sx(node.pos.x):.1f}" cy="{sy(node.pos.y):.1f}" '
                f'r="{cfg.tx_range_m:g}" fill="none" stroke="#7fb2ff" '
                f'stroke-dasharray="4 3"/>')

    for node in sim.nodes.values():
        color = ROLE_COLORS[node.role]
        parts.append(
            f'<circle cx="{sx(node.pos.x):.1f}" cy="{sy(node.pos.y):.1f}" '
            f'r="{_NODE_RADIUS:g}" fill="{color}" data-node="{node.node_id}" '
            f'data-role="{node.role}"/>')
        label = str(node.node_id)
        if weight_labels and node.role != ROLE_DEAD:
            weight = node.election_weight()   # None in cbrp: no label
            if weight is not None:
                label += f" w={weight:.2f}"
        parts.append(
            f'<text x="{sx(node.pos.x) + 7:.1f}" y="{sy(node.pos.y) - 7:.1f}" '
            f'font-size="9" fill="#444444">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts)


def write_snapshot(sim: Simulator, path: str, **kwargs) -> None:
    svg = render_snapshot(sim, **kwargs)
    try:
        with open(path, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise OSError(f"cannot write snapshot to {path!r}: {exc}") from exc
