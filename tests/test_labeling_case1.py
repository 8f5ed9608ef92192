import gc
import itertools
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_case1
from reference_case1 import arc_values
from conftest import random_desk_instance, random_multipliers, relax_value
from coverage_routing import bundle, labeling_case1
from coverage_routing.bundle import evaluate_dual_function
from coverage_routing.errors import SchemaError
from coverage_routing.instance import build_index_table, generate_instance
from coverage_routing.labeling_case1 import fill_bytes, solve_case1
from coverage_routing.oracle import oracle_relaxation
from coverage_routing.relaxation import PathTiming, RelaxCoeffs, build_coeffs


def brute_force_best(values, n, exit_id, vbar):
    """Best route value, summed in path order, and the number of routes
    that reach it exactly."""
    rows = values.tolist()
    best = -np.inf
    ties = 0
    for r in range(1, n + 1):
        for perm in itertools.permutations(range(1, n + 1), r):
            if vbar != 0 and vbar not in perm:
                continue
            nodes = (0,) + perm + (exit_id,)
            val = sum(rows[i][j] for i, j in zip(nodes[:-1], nodes[1:]))
            if val > best:
                best = val
                ties = 1
            elif val == best:
                ties += 1
    return best, ties


class TestSolveCase1:
    def test_two_waypoint_network_exhaustive(self):
        inst = generate_instance(41, 2, 4, coverage_radius=35.0)
        table = build_index_table(inst)
        coeffs = build_coeffs(table, np.zeros(len(table.target_ids)), "I")
        fill = solve_case1(coeffs)
        for vbar in coeffs.idle_set:
            values = table.matrix(arc_values(coeffs, vbar), fill=-1e300)
            expect, _ = brute_force_best(values, 2, 3, vbar)
            got = fill.results[vbar]
            assert got.value == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_negative_arc_values_still_exact(self, rng):
        # strongly negative multipliers push many net rates negative
        for _ in range(5):
            inst = random_desk_instance(rng, n_range=(2, 4), m_range=(2, 5))
            table = build_index_table(inst)
            lam = random_multipliers(rng, len(table.target_ids), scale=10.0)
            coeffs = build_coeffs(table, lam, "I")
            fill = solve_case1(coeffs)
            for vbar in coeffs.idle_set:
                values = table.matrix(arc_values(coeffs, vbar), fill=-1e300)
                expect, _ = brute_force_best(values, table.n, table.exit_id,
                                             vbar)
                got = fill.results[vbar]
                assert got.value == pytest.approx(expect, rel=1e-9, abs=1e-9)

    def test_route_visits_idle_candidate(self, rng):
        for _ in range(5):
            inst = random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6))
            table = build_index_table(inst)
            coeffs = build_coeffs(table, np.zeros(len(table.target_ids)), "I")
            fill = solve_case1(coeffs)
            for vbar in coeffs.idle_set:
                if vbar != 0:
                    assert vbar in fill.results[vbar].nodes

    def test_reconstruction_resums_value(self, rng):
        inst = random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6))
        table = build_index_table(inst)
        lam = random_multipliers(rng, len(table.target_ids))
        coeffs = build_coeffs(table, lam, "I")
        fill = solve_case1(coeffs)
        for vbar in coeffs.idle_set:
            got = fill.results[vbar]
            values = table.matrix(arc_values(coeffs, vbar), fill=-1e300)
            interior = got.nodes[1:-1]
            resum = sum(values[i, j] for i, j in
                        zip((0,) + interior, interior)) + \
                values[got.nodes[-2], table.exit_id]
            assert resum == pytest.approx(got.value, abs=1e-9)

    def test_one_label_per_state(self, rng):
        """The table keeps exactly one label per (node, visited set) state
        and its value equals the best path-order sum bit for bit.  The last
        input is one where a rule comparing rounded ``value + detour cost``
        sums across visited sets would prune the optimal label at idle
        candidate 3."""
        cases = []
        for _ in range(5):
            inst = random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6))
            table = build_index_table(inst)
            lam = random_multipliers(rng, len(table.target_ids))
            cases.append((inst, table, lam))
        inst = generate_instance(986341, 4, 2, case="I", coverage_radius=25.0)
        table = build_index_table(inst)
        cases.append((inst, table, np.zeros(len(table.target_ids))))
        for inst, table, lam in cases:
            coeffs = build_coeffs(table, lam, "I")
            n = table.n
            fill = solve_case1(coeffs)
            states = len(coeffs.idle_set) * n * 2 ** (n - 1)
            assert fill.labels_alive == fill.labels_stored == states
            for vbar in coeffs.idle_set:
                values = table.matrix(arc_values(coeffs, vbar), fill=-1e300)
                expect, _ = brute_force_best(values, n, table.exit_id, vbar)
                assert fill.results[vbar].value == expect

    # (seed, waypoints, targets, coverage radius, multiplier, idle candidate,
    # route): inputs with several exactly optimal routes, and the route the
    # former per-label search returned for each
    TIED = [
        (5, 2, 2, 25.0, 0.0, 1, (0, 2, 1, 3)),
        (7, 4, 4, 15.0, -2.0, 0, (0, 4, 1, 2, 3, 5)),
        (9, 6, 2, 10.0, 0.0, 0, (0, 5, 3, 2, 1, 7)),
        (12, 4, 1, 10.0, -2.0, 0, (0, 4, 3, 1, 5)),
        (14, 6, 3, 25.0, -2.0, 4, (0, 4, 5, 2, 7)),
        (18, 5, 3, 10.0, -2.0, 0, (0, 5, 1, 6)),
        (19, 6, 4, 15.0, 0.0, 1, (0, 6, 4, 2, 3, 1, 7)),
        (23, 5, 4, 25.0, 0.0, 0, (0, 5, 2, 4, 6)),
        (26, 3, 3, 25.0, -2.0, 3, (0, 2, 3, 1, 4)),
        (38, 5, 3, 25.0, 0.0, 5, (0, 5, 1, 4, 3, 6)),
    ]

    @pytest.mark.parametrize("seed,n,m,radius,lam,vbar,route", TIED)
    def test_tied_optimum_keeps_route(self, seed, n, m, radius, lam, vbar,
                                      route):
        """Among exactly tied optima the table returns the route the former
        per-label search did: smallest predecessor per state, then the first
        best completion by end node, visited-set size and sorted visited
        set.  The fill covers every idle candidate at once, and the others
        must not change the tie rule of this one."""
        inst = generate_instance(seed, n, m, case="I", coverage_radius=radius)
        table = build_index_table(inst)
        coeffs = build_coeffs(table, np.full(len(table.target_ids), lam), "I")
        values = table.matrix(arc_values(coeffs, vbar), fill=-1e300)
        expect, ties = brute_force_best(values, n, table.exit_id, vbar)
        assert vbar in coeffs.idle_set
        got = solve_case1(coeffs).results[vbar]
        assert ties > 1
        assert got.value == expect
        assert got.nodes == route

    @pytest.mark.parametrize("nets,route", [
        # equal sizes: {1, 2, 5} comes before {1, 3, 4} by sorted waypoints
        ({(0, 3): 1, (3, 4): 1, (4, 1): 1, (0, 2): 1, (2, 5): 1, (5, 1): 1,
          (1, 6): 1}, (0, 2, 5, 1, 6)),
        # {1, 4} comes before {1, 2, 3} by size
        ({(0, 2): 1, (2, 3): 1, (3, 1): 1, (0, 4): 2, (4, 1): 1, (1, 6): 1},
         (0, 4, 1, 6)),
    ])
    def test_tied_visited_sets_keep_route(self, nets, route):
        """Where several visited sets reach the best value at the best end
        node, the smaller set wins, then the one with the first smaller
        waypoint.  Idling at waypoint 1 earns 10 per unit time, every arc
        takes 1 and earns 10 plus its entry in ``nets``, so those arcs are
        worth their entry and every other arc -10 at idle candidate 1:
        exactly two routes share the best value 4."""
        inst = generate_instance(1, 5, 1, case="I", coverage_radius=25.0)
        table = build_index_table(inst)
        assert len(table.target_ids) == 1
        table.coverage_rate = np.zeros((len(table.arcs), 1))
        for arc, net in nets.items():
            table.coverage_rate[table.arc_id[arc]] = 10.0 + net
        table.wp_cov = np.zeros((table.n, 1))
        table.wp_cov[0] = 10.0
        table.priorities = np.ones(1)
        table.min_time = table.max_time = np.ones(len(table.arcs))
        coeffs = build_coeffs(table, np.zeros(1), "I")
        assert coeffs.idle_set == (0, 1)
        got = solve_case1(coeffs).results[1]
        assert (got.nodes, got.value) == (route, 4.0)
        assert repr(got) == repr(reference_case1.solve_case1(coeffs)[1])

    def test_three_way_battery(self, rng):
        for _ in range(25):
            inst = random_desk_instance(rng, n_range=(2, 6), m_range=(2, 8))
            table = build_index_table(inst)
            m = len(table.target_ids)
            lam = random_multipliers(rng, m) if rng.random() < 0.5 else np.zeros(m)
            got = relax_value(table, inst, lam, "I")
            orc = oracle_relaxation(table, inst, lam, "I")
            assert abs(got.value - orc.value) <= 1e-8 * max(1.0, abs(orc.value))

    @pytest.mark.parametrize("state_bytes,table_bytes",
                             [(1, 1), (400, 1), (400, 10 ** 4)])
    def test_chunked_fill_matches_one_chunk(self, rng, monkeypatch,
                                            state_bytes, table_bytes):
        """Byte budgets so small that every layer takes several gathers and
        the candidates several tables give the results of one chunk: the
        same values, the same timed routes, repr for repr, and the same
        counts."""
        def content(best):
            return (best.values,
                    {vbar: repr(bt) for vbar, bt in best.results.items()},
                    best.labels_stored, best.labels_alive)

        cases = []
        for _ in range(6):
            inst = random_desk_instance(rng, n_range=(3, 6), m_range=(2, 6))
            table = build_index_table(inst)
            lam = random_multipliers(rng, len(table.target_ids))
            cases.append(build_coeffs(table, lam, "I"))
        assert any(len(c.idle_set) > 2 for c in cases)
        whole = [content(solve_case1(c)) for c in cases]
        monkeypatch.setattr(labeling_case1, "STATE_CHUNK_BYTES", state_bytes)
        monkeypatch.setattr(labeling_case1, "TABLE_CHUNK_BYTES", table_bytes)
        chunked = [content(solve_case1(c)) for c in cases]
        assert chunked == whole
        assert all(r != whole[0] for r in whole[1:])

    @pytest.mark.parametrize("table_bytes", [labeling_case1.TABLE_CHUNK_BYTES,
                                             1])
    def test_dual_evaluation_times_one_route(self, monkeypatch, table_bytes):
        """A case-I dual evaluation compares every candidate's value but
        builds no timed route; in a fill of one chunk it traces none either
        (a fill of one candidate per chunk traces each chunk's routes
        before it fills the next).  The first read of the value's ``best``
        builds the maximizing candidate's timed route, and only it; later
        reads return that route."""
        built, traced = [], []
        init = PathTiming.__init__
        real_trace = labeling_case1._trace

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        def trace(*args):
            traced.append(args[2])
            return real_trace(*args)

        one_chunk = table_bytes == labeling_case1.TABLE_CHUNK_BYTES
        monkeypatch.setattr(PathTiming, "__init__", counted)
        monkeypatch.setattr(labeling_case1, "_trace", trace)
        monkeypatch.setattr(labeling_case1, "TABLE_CHUNK_BYTES", table_bytes)
        inst = generate_instance(0, 6, 60, case="I", coverage_radius=20.0)
        table = build_index_table(inst)
        lam = np.zeros(len(table.target_ids))
        candidates = len(build_coeffs(table, lam, "I").idle_set)
        assert candidates > 2
        value = evaluate_dual_function(table, lam, "I")
        assert built == []
        assert len(traced) == (0 if one_chunk else candidates)
        best = value.best
        assert len(built) == 1 and built[0] is best
        assert len(traced) == (1 if one_chunk else candidates)
        assert value.best is best
        assert len(built) == 1


def test_routes_are_traced_once_on_demand(monkeypatch):
    """A case-I dual evaluation traces no route; reading the maximizing
    candidate's route traces it, and building the evaluation's cuts then
    traces every other candidate's once.  The value table lives until the
    last of them is traced, and no longer, though the evaluation's result
    still does."""
    calls, tables = [], []
    real_trace, real_fill = labeling_case1._trace, labeling_case1._fill

    def trace(dp, w, k, *args):
        calls.append(k)
        return real_trace(dp, w, k, *args)

    def fill(*args):
        dp = real_fill(*args)
        tables.append(weakref.ref(dp))
        return dp

    monkeypatch.setattr(labeling_case1, "_trace", trace)
    monkeypatch.setattr(labeling_case1, "_fill", fill)
    inst = generate_instance(0, 6, 60, case="I", coverage_radius=20.0)
    table = build_index_table(inst)
    value = evaluate_dual_function(table, np.zeros(len(table.target_ids)), "I")
    vbars = list(value.routes.values)
    assert len(vbars) > 2 and len(tables) == 1
    assert calls == []
    best = value.best
    assert calls == [vbars.index(value.vbar)] and best.vbar == value.vbar
    assert tables[0]() is not None
    bundle._candidate_cuts(value, table, "I")
    assert sorted(calls) == list(range(len(vbars)))
    gc.collect()
    assert tables[0]() is None
    assert value.routes.results[value.vbar] == value.best
    assert len(calls) == len(vbars)


def test_one_fill_computes_the_net_rates_once(monkeypatch):
    # every candidate's bound times and arc values come from the net-rate
    # matrix that the evaluation's one build_coeffs call made, also when
    # every route is traced and timed: the fill looks up no row of it
    built, calls = [], []
    real_build, real_rates = bundle.build_coeffs, RelaxCoeffs.net_rates

    def build(*args):
        built.append(real_build(*args))
        return built[-1]

    def counted(self, vbar):
        calls.append(vbar)
        return real_rates(self, vbar)

    monkeypatch.setattr(bundle, "build_coeffs", build)
    monkeypatch.setattr(RelaxCoeffs, "net_rates", counted)
    inst = generate_instance(0, 6, 60, case="I", coverage_radius=20.0)
    table = build_index_table(inst)
    value = evaluate_dual_function(table, np.zeros(len(table.target_ids)), "I")
    assert len(built) == 1 and len(built[0].idle_set) > 2
    assert all(value.routes.results.values())
    assert calls == []


def test_size_guard_flips_between_21_and_22_waypoints(monkeypatch):
    """The byte formula allows 21 waypoints and refuses 22 without building
    either table, and the guard refuses a fill just above the limit (checked
    on a small instance with the limit one byte below its fill).  The
    formula's index-array term is the size of the cached arrays."""
    limit = labeling_case1.MAX_TABLE_BYTES
    assert fill_bytes(21) <= limit < fill_bytes(22)
    assert fill_bytes(21) >= 2 ** 21 * 22 * 8 + 21 * 2 ** 20 * 8
    n = 5
    cached = sum(a.nbytes for layer in labeling_case1._layers(n)
                 for a in layer)
    assert cached == 8 * n * 2 ** (n - 1)
    inst = generate_instance(41, n, 4, coverage_radius=35.0)
    table = build_index_table(inst)
    coeffs = build_coeffs(table, np.zeros(len(table.target_ids)), "I")
    monkeypatch.setattr(labeling_case1, "MAX_TABLE_BYTES", fill_bytes(n) - 1)
    with pytest.raises(SchemaError, match="5 waypoints"):
        solve_case1(coeffs)
    monkeypatch.setattr(labeling_case1, "MAX_TABLE_BYTES", fill_bytes(n))
    assert solve_case1(coeffs).results


def test_fill_stays_within_fill_bytes(monkeypatch):
    """With one candidate per table chunk, a fill never holds more than
    :func:`fill_bytes`: each chunk's tables are freed before the next
    chunk is filled, and the completion scan adds no table-sized
    temporaries.  At 16 waypoints a float column of all masks, copied out
    of the table per candidate, would already exceed the formula's slack
    for temporaries."""
    monkeypatch.setattr(labeling_case1, "TABLE_CHUNK_BYTES", 1)
    for n in (13, 16):
        inst = generate_instance(0, n, 3, coverage_radius=20.0)
        table = build_index_table(inst)
        coeffs = build_coeffs(table, np.zeros(len(table.target_ids)), "I")
        assert len(coeffs.idle_set) > 2
        cached = sum(a.nbytes for layer in labeling_case1._layers(n)
                     for a in layer)
        tracemalloc.start()
        try:
            solve_case1(coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak + cached <= fill_bytes(n)


def _integer_coeffs(table, ints):
    """Case-I coefficients at zero multipliers after giving ``table``
    coverage rates, priorities and arc time bounds that are integers from 0
    to 2 (priorities and times from 1), drawn by ``ints(*shape, low=0)``."""
    m = len(table.target_ids)
    arcs = len(table.arcs)
    table.coverage_rate = ints(arcs, m)
    table.wp_cov = ints(table.n, m)
    table.priorities = ints(m, low=1)
    table.min_time = ints(arcs, low=1)
    table.max_time = np.maximum(table.min_time, ints(arcs, low=1))
    return build_coeffs(table, np.zeros(m), "I")


def _assert_matches_reference(coeffs, chunked):
    """Every idle candidate's timed route, repr for repr, equals the one the
    frozen reference fills, traces and times; with ``chunked``, both fill
    one candidate per chunk with one state per gather."""
    tables, states = (1, 1) if chunked else (
        labeling_case1.TABLE_CHUNK_BYTES, labeling_case1.STATE_CHUNK_BYTES)
    with mock.patch.multiple(labeling_case1, TABLE_CHUNK_BYTES=tables,
                             STATE_CHUNK_BYTES=states):
        got = solve_case1(coeffs)
        expect = reference_case1.solve_case1(coeffs)
    assert list(got.results) == list(coeffs.idle_set)
    assert got.values == {v: bt.value for v, bt in expect.items()}
    assert ({v: repr(bt) for v, bt in got.results.items()}
            == {v: repr(bt) for v, bt in expect.items()})


@st.composite
def _tied_inputs(draw):
    """Case-I coefficients whose coverage rates, priorities and arc time
    bounds are integers from 0 to 2 (priorities and times from 1), so that
    many routes tie exactly on value, end node and visited set (also across
    visited sets of different sizes); and whether to fill one candidate per
    chunk with one state per gather."""
    n = draw(st.integers(3, 6))
    inst = generate_instance(draw(st.integers(0, 10 ** 6)), n,
                             draw(st.integers(1, 3)), case="I",
                             coverage_radius=25.0)
    assume(inst.targets)

    def ints(*shape, low=0):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.integers(low, 2), min_size=size,
                                      max_size=size)),
                        dtype=float).reshape(shape)

    return (_integer_coeffs(build_index_table(inst), ints),
            draw(st.booleans()))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_tied_inputs())
def test_routes_match_per_candidate_reference(inputs):
    """Every idle candidate's timed route, repr for repr, equals the one the
    per-candidate scan of ``reference_case1`` traces and times after its
    frozen ``argmax`` fill, on inputs full of exact ties and in fills of one
    candidate per chunk."""
    _assert_matches_reference(*inputs)


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_and_top_bit_networks_match_reference(n, chunked):
    """One and two waypoints, which the tied inputs above never draw, and
    the idle stop at the highest mask bit (``vbar == n``): on integer
    tables full of exact ties every timed route equals the frozen
    reference's, repr for repr."""
    rng = np.random.default_rng(n)

    def ints(*shape, low=0):
        return rng.integers(low, 3, size=shape).astype(float)

    top = 0
    for seed in range(12):
        inst = generate_instance(seed, n, 2, case="I", coverage_radius=25.0)
        if inst.targets:
            coeffs = _integer_coeffs(build_index_table(inst), ints)
            top += n in coeffs.idle_set
            _assert_matches_reference(coeffs, chunked)
    assert top >= 3


@pytest.mark.parametrize("several", [False, True])
@pytest.mark.parametrize("edge", ["on-a-boundary", "one-state-short",
                                  "inside-a-group"])
@pytest.mark.parametrize("n", [1, 2, *range(6, 11)])
def test_chunks_at_end_node_group_edges_match_reference(n, edge, several):
    """A layer's states are ordered by end node, and the fill adds the arc
    values of whole end-node groups, or of one group, per chunk.  Gathers
    sized to end exactly on a group boundary of the widest layer, one state
    short of one, and inside one group (the other layers then fall on or
    off their own boundaries), in fills of one candidate or of several: on
    integer tables full of exact ties every value and timed route equals
    the frozen reference's, repr for repr.  The first layer is written
    directly, not gathered; at one waypoint it is the whole fill, and at
    two the one gathered layer follows it."""
    rng = np.random.default_rng(n)

    def ints(*shape, low=0):
        return rng.integers(low, 3, size=shape).astype(float)

    inst = generate_instance(n, n, 4, case="I", coverage_radius=25.0)
    coeffs = _integer_coeffs(build_index_table(inst), ints)
    assert len(coeffs.idle_set) > min(n, 2)
    kc = len(coeffs.idle_set) if several else 1
    per = math.comb(n - 1, (n - 1) // 2)  # states per end node, widest
    states = {"on-a-boundary": per, "one-state-short": per - 1,
              "inside-a-group": per // 2 + 1}[edge]
    with mock.patch.multiple(
            labeling_case1,
            TABLE_CHUNK_BYTES=labeling_case1.TABLE_CHUNK_BYTES if several
            else 1,
            STATE_CHUNK_BYTES=states * (n + 1) * kc * 8):
        got = solve_case1(coeffs)
        expect = reference_case1.solve_case1(coeffs)
    assert ({v: repr(got.values[v]) for v in coeffs.idle_set}
            == {v: repr(bt.value) for v, bt in expect.items()})
    assert ({v: repr(bt) for v, bt in got.results.items()}
            == {v: repr(bt) for v, bt in expect.items()})


def _both_engines(w, vexit, vbars):
    """Each candidate's (value, route) from the package's fill of one chunk
    and from the frozen reference's, for the arc values ``w[k, i, j]`` of
    arcs ``i -> j`` and ``vexit[k, j-1]`` of arcs ``j -> exit``."""
    n = w.shape[1] - 1
    best, trace = labeling_case1._fill_chunk(n, n + 1, w, vexit, vbars)
    got = [(float(value), trace(k)[0]) for k, value in enumerate(best)]
    dp, par = reference_case1.fill(
        n, np.ascontiguousarray(w.transpose(2, 0, 1)))
    return got, reference_case1.best_routes(n, n + 1, dp, par, vexit, vbars)


def test_route_through_neg_arcs_matches_reference():
    """Every arc into the idle stop carries the missing-arc value ``_NEG``,
    so the candidate's best route takes one.  Its other arc values are
    absorbed, every route through the stop ties at exactly ``_NEG``, and
    the tie rules alone pick the route: end node 1 first, then the smaller
    visited set."""
    rng = np.random.default_rng(7)
    n = 4
    w = rng.integers(-3, 4, size=(2, n + 1, n + 1)).astype(float)
    w[:, :, 3] = labeling_case1._NEG
    vexit = rng.integers(-3, 4, size=(2, n)).astype(float)
    got, expect = _both_engines(w, vexit, (0, 3))
    assert got == expect
    assert got[1] == (labeling_case1._NEG, (0, 3, 1, n + 1))
    assert [repr(value) for value, _ in got] == [
        repr(value) for value, _ in expect]


@pytest.mark.parametrize("exit_value,best", [
    (1.0, (2.0, (0, 1, 3))),  # both complete to 2: the smaller set wins
    (0.5, (1.5 + 2.0 ** -52, (0, 2, 1, 3))),  # no rounding, no tie
])
def test_completions_that_round_equal_tie(exit_value, best):
    """Two states at the best end node have values 1 and 1 + 2^-52.  Where
    their completions round to the same value, the smaller visited set
    wins, as in the frozen reference, though its state is not the end
    node's peak: the tie is on completed values, not on state values.
    Where they complete apart, the peak's route wins although the other
    state lies within a few ulps of it."""
    w = np.full((1, 3, 3), -8.0)
    w[0, 0, 1] = 1.0  # path 0, 1 is worth 1
    w[0, 0, 2] = 2.0 ** -52
    w[0, 2, 1] = 1.0  # path 0, 2, 1 is worth 1 + 2^-52
    vexit = np.array([[exit_value, -8.0]])
    got, expect = _both_engines(w, vexit, (0,))
    assert got == expect == [best]


@st.composite
def _case1_inputs(draw, radii=(5.0, 10.0, 15.0, 25.0)):
    """A generated case-I instance with at least one target, at one of the
    coverage ``radii``, and multipliers that are zero or random and
    non-positive."""
    inst = generate_instance(draw(st.integers(0, 10 ** 6)),
                             draw(st.integers(1, 6)), draw(st.integers(1, 6)),
                             case="I",
                             coverage_radius=draw(st.sampled_from(radii)))
    m = len(inst.targets)
    assume(m > 0)
    if draw(st.booleans()):
        lam = np.zeros(m)
    else:
        lam = np.array(draw(st.lists(st.floats(-10.0, 0.0),
                                     min_size=m, max_size=m)))
    return inst, lam


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_case1_inputs())
def test_fill_is_exact_and_matches_oracle(inputs):
    inst, lam = inputs
    table = build_index_table(inst)
    coeffs = build_coeffs(table, lam, "I")
    fill = solve_case1(coeffs)
    assert set(fill.results) == set(coeffs.idle_set)
    for vbar in coeffs.idle_set:
        values = table.matrix(arc_values(coeffs, vbar), fill=-1e300)
        expect, _ = brute_force_best(values, table.n, table.exit_id, vbar)
        assert fill.results[vbar].value == expect
    got = relax_value(table, inst, lam, "I")
    orc = oracle_relaxation(table, inst, lam, "I")
    assert abs(got.value - orc.value) <= 1e-8 * max(1.0, abs(orc.value))


@pytest.mark.parametrize("table_bytes", [labeling_case1.TABLE_CHUNK_BYTES, 1])
@settings(derandomize=True, deadline=None, max_examples=150)
@given(inputs=_case1_inputs((10.0, 25.0, 40.0)))
def test_values_come_before_routes_and_match_them(table_bytes, inputs):
    """Each candidate's value comes from the value half of the completion
    scan, before any route is chosen in a fill of one chunk, and equals bit
    for bit both the path-order sum of the arc values of the route that the
    route half traces later and the frozen reference's value, in fills of
    one chunk and of one candidate per chunk.  At radius 40 most targets
    are covered from every arc, so many visited sets tie."""
    inst, lam = inputs
    coeffs = build_coeffs(build_index_table(inst), lam, "I")
    one_chunk = table_bytes == labeling_case1.TABLE_CHUNK_BYTES
    scans = []
    real_ends = labeling_case1._best_ends

    def best_ends(*args):
        scans.append(len(args[3]))
        return real_ends(*args)

    with mock.patch.multiple(labeling_case1, TABLE_CHUNK_BYTES=table_bytes,
                             _best_ends=best_ends):
        got = solve_case1(coeffs)
        values = {vbar: repr(value) for vbar, value in got.values.items()}
        if one_chunk:
            assert scans == []
        routes = got.results
        expect = reference_case1.solve_case1(coeffs)
    assert sum(scans) == len(coeffs.idle_set)
    resums = {}
    for k, (vbar, route) in enumerate(routes.items()):
        total = 0.0  # the fill's sums, in path order
        for arc, t in zip(route.arcs, route.times):
            total += coeffs.net.item(k, arc) * t
        resums[vbar] = repr(total)
    assert values == resums
    assert values == {vbar: repr(bt.value) for vbar, bt in expect.items()}
