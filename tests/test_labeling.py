"""What the layered case-II search relies on: each store is layer
ordered."""

import numpy as np

from conftest import random_desk_instance, random_multipliers
from coverage_routing.instance import build_index_table
from coverage_routing.labeling_case2 import (RATIO_PER_DISTANCE, RATIO_SLOPE,
                                             Case2Solver)
from coverage_routing.relaxation import build_coeffs


def _battery(rng, case, count):
    """Desk instances with their coefficients at zero and at random
    multipliers."""
    for _ in range(count):
        inst = random_desk_instance(rng, case=case)
        table = build_index_table(inst)
        m = len(table.target_ids)
        for lam in (np.zeros(m), random_multipliers(rng, m)):
            yield inst, table, build_coeffs(table, lam, case)


def test_case2_stores_are_layer_ordered(rng):
    """Visited-set sizes never decrease along a store's rows, so each layer
    is one contiguous row range."""
    killed = 0
    for inst, table, coeffs in _battery(rng, "II", 8):
        for vbar in coeffs.idle_set:
            for mode in (RATIO_SLOPE, RATIO_PER_DISTANCE):
                solver = Case2Solver(coeffs, vbar, mode)
                solver.solve()
                for st in solver.stores:
                    sizes = [bin(int(m)).count("1") for m in st.masks[:st.size]]
                    assert sizes == sorted(sizes)
                    killed += st.size - int(st.alive[:st.size].sum())
    assert killed > 0
