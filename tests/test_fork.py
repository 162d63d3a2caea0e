"""Forking a running simulation. Every event on the queue is plain data (see
engine's docstring), so a copy.deepcopy or a pickle round trip of a
Simulator taken halfway through a run is a second, independent run: the
copy and the original each run on to the committed trace digest of the
unforked run, and a delivery batch open at the fork is delivered once in
each."""

import copy
import json
import pickle

import pytest

from cbrsim import build_simulation
from cbrsim.node import Node
from conftest import add_node, bare_sim
from refresh_trace_digests import TABLE, cases, lines_digest, run_lines

EXPECTED = json.loads(TABLE.read_text())
CASES = cases()


def pickled(sim):
    return pickle.loads(pickle.dumps(sim))


FORKS = {"deepcopy": copy.deepcopy, "pickle": pickled}


@pytest.mark.parametrize("name", list(CASES))
def test_forks_at_half_time_and_their_parent_reach_the_committed_digest(name):
    config = CASES[name]
    sim = build_simulation(config)
    sim.trace = []
    sim.run_until(config.duration_s / 2)
    runs = {label: fork(sim) for label, fork in FORKS.items()}
    runs["parent"] = sim   # run last: a fork that shared its state would have moved it
    digests = {label: lines_digest(run_lines(run, config.duration_s))
               for label, run in runs.items()}
    assert digests == dict.fromkeys(runs, EXPECTED[name])


@pytest.mark.parametrize("fork", list(FORKS))
def test_a_delivery_batch_open_at_the_fork_is_delivered_once_in_each_copy(fork, monkeypatch):
    on_hello = Node.on_hello

    def spy(node, hello, sender_id):
        node.sim.record("heard", node.node_id, sender_id)
        on_hello(node, hello, sender_id)
    monkeypatch.setattr(Node, "on_hello", spy)
    sim = bare_sim(propagation_delay_s=0.5)
    for node_id in range(3):
        add_node(sim, node_id, 20.0 * node_id, 0.0)
    sim.nodes[0].send_hello()   # opens the batch, due at 0.5 s
    copied = FORKS[fork](sim)
    # Nothing was scheduled since: the copy's HELLO joins the copy's batch.
    copied.nodes[2].send_hello()
    assert len(sim._queue) == len(copied._queue) == 1
    sim.run_until(1.0)
    copied.run_until(1.0)
    assert sim.records("heard") == [(0.5, 1, 0), (0.5, 2, 0)]
    assert copied.records("heard") == [(0.5, 1, 0), (0.5, 2, 0), (0.5, 0, 2), (0.5, 1, 2)]
