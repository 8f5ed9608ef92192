"""End-to-end fuzzing of the input domain.

Hypothesis draws whole instance documents.  Their numeric fields are
log-uniform over [1e-300, 1e300], with zeros and negative values mixed in.
Each document goes through ``load_instance``, ``run_dual`` (two iterations,
in both cases) and ``covroute solve``.  A draw ends in one of two ways:
exit 0, 2 or 3, with only finite numbers in the record, the witness and the
meta file; or exit 4, with nothing on stdout.  Any warning fails the draw.
"""

import contextlib
import io
import json
import math
import operator
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (FAR_TARGET, HUGE_ARC, NO_TARGETS, ROUTE_OVERFLOW,
                      TIME_OVERFLOW, singular_rate_document, solve_outputs)
from coverage_routing.bundle import run_dual
from coverage_routing.cli import main
from coverage_routing.errors import (CoverageRoutingError,
                                     InfeasibleInstanceError)
from coverage_routing.instance import build_index_table, load_instance

_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
#: coordinates: zero or either sign
_COORD = st.one_of(st.just(0.0), _MAGNITUDE, _MAGNITUDE.map(operator.neg))
#: every other field: positive, except zero or negative one draw in twenty
#: each
_FIELD = st.tuples(st.integers(0, 19), _MAGNITUDE).map(
    lambda p: 0.0 if p[0] == 0 else -p[1] if p[0] == 1 else p[1])


@st.composite
def documents(draw):
    """An instance document with 1 to 3 interior waypoints and 0 to 3
    targets, every numeric field drawn."""
    n = draw(st.integers(1, 3))
    vehicle = {key: draw(_FIELD) for key in (
        "coverage_factor", "coverage_radius", "speed_min", "speed_max",
        "energy_max")}
    # the speeds are in order in nine draws of ten, so that most documents
    # get past that check
    if draw(st.integers(0, 9)):
        vehicle["speed_min"], vehicle["speed_max"] = sorted(
            (vehicle["speed_min"], vehicle["speed_max"]))
    return {
        "deadline": draw(_FIELD),
        "physics": {"beta": draw(_FIELD), "gamma": draw(_FIELD)},
        "vehicle": vehicle,
        "waypoints": [{"id": k, "x": draw(_COORD), "y": draw(_COORD)}
                      for k in range(n + 2)],
        "targets": [
            {"id": k, "x": draw(_COORD), "y": draw(_COORD),
             **{key: draw(_FIELD) for key in (
                 "risk_factor", "priority", "risk_radius", "min_coverage")}}
            for k in range(draw(st.integers(0, 3)))],
    }


#: the document of :data:`NO_TARGETS` with a deadline of 401 digits
HUGE_DEADLINE = dict(NO_TARGETS, deadline=10 ** 400)


def _expected_exit(doc: dict, case: str) -> int:
    """4 when the document is refused; otherwise 0, 2 or 3 after checking
    that ``run_dual`` keeps every number finite, in both cases."""
    try:
        inst = load_instance(doc)
        table = build_index_table(inst)
    except CoverageRoutingError as exc:
        assert not isinstance(exc, InfeasibleInstanceError)
        return 4
    codes = {}
    for c in ("I", "II"):
        try:
            res = run_dual(inst, c, iter_limit=2, table=table)
        except InfeasibleInstanceError:
            codes[c] = 3
            continue
        sol = res.solution
        numbers = [res.dual_bound, res.lower_bound, res.initial_bound,
                   sol.objective, sol.idle_time, *res.best_lam, *sol.times,
                   *(v for _, v in sol.per_target_coverage)]
        assert all(map(math.isfinite, numbers)), numbers
        assert res.lower_bound <= res.dual_bound
        codes[c] = 0 if res.status == "converged" else 2
    return codes[case]


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(documents(), st.sampled_from(["I", "II"]))
@example(NO_TARGETS, "I")
@example(NO_TARGETS, "II")
@example(HUGE_DEADLINE, "I")
@example(TIME_OVERFLOW["arc"], "I")
@example(singular_rate_document(*ROUTE_OVERFLOW["idle"][:3]), "I")
@example(singular_rate_document(*FAR_TARGET), "II")
@example(singular_rate_document(*HUGE_ARC), "I")
def test_every_document_solves_or_is_refused(doc, case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = _expected_exit(doc, case)
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "inst.json", Path(tmp) / "res.json"
            path.write_text(json.dumps(doc))
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["solve", str(path), "--case", case,
                             "--iter-limit", "2", "--out", str(out)])
            if code == 4:
                assert stdout.getvalue() == ""
            elif code != 3:
                solve_outputs(out)
    assert code == want, (code, want)
