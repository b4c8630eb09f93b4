"""Branch-and-bound against the brute-force oracle: every small graph is
proven at its optimum, and a search stopped by its node budget still
returns a valid bracket."""

import time
from itertools import combinations

from slabel.core import build_graph, sl_value
from slabel.exact import branch_and_bound, brute_force
from slabel.instances import gen_gnm


def test_proves_optimum_on_every_graph_up_to_five_nodes():
    checked = 0
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            opt, _ = brute_force(g)
            res = branch_and_bound(g)
            assert res.stats.proven_optimal
            assert res.lower_bound == res.upper_bound == opt
            assert sl_value(g, res.labeling) == opt
            checked += 1
    assert checked == 1 + 2 + 8 + 64 + 1024


def test_proves_gnm_18_40_1():
    g = gen_gnm(18, 40, 1)
    res = branch_and_bound(g)
    assert res.stats.proven_optimal
    assert res.lower_bound == res.upper_bound == 174
    assert sl_value(g, res.labeling) == 174
    assert res.stats.open_bound is None
    assert res.stats.bound_calls >= 1 and res.stats.cache_hits >= 1


def test_node_limit_returns_bracket():
    g = gen_gnm(18, 40, 1)
    res = branch_and_bound(g, node_limit=1)
    assert not res.stats.proven_optimal
    assert res.stats.explored == 1
    assert res.lower_bound <= 174 <= res.upper_bound
    assert res.upper_bound == sl_value(g, res.labeling)
    assert res.lower_bound == min(res.stats.open_bound, res.upper_bound)


def test_time_limit_is_checked_before_every_expansion():
    # One expansion here runs up to 100 residual bounds; checking the clock
    # only every 64 expansions overran a 0.5 s limit by about 14 s.
    g = gen_gnm(100, 250, 2)
    started = time.perf_counter()
    res = branch_and_bound(g, time_limit=0.5)
    assert time.perf_counter() - started < 5.0
    assert not res.stats.proven_optimal
    assert res.lower_bound <= res.upper_bound == sl_value(g, res.labeling)
