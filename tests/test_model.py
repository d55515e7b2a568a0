import numpy as np
import pytest

from drpe.generator import random_instance
from drpe.model import (
    BaseCostModel,
    DroneTour,
    Instance,
    InvalidOperationError,
    Operation,
    RechargingLeg,
    TourStructureError,
    build_tour,
    check_instance,
    operation_flight_time,
    tour_makespan,
    validate_tour,
)


def _two_rl_instance(cd_wv=3.0):
    # one destination, two RLs; all drone hops cd_wv, rover instant
    c_d = np.array([[0.0, cd_wv, cd_wv],
                    [cd_wv, 0.0, 1.0],
                    [cd_wv, 1.0, 0.0]])
    c_r = np.zeros((2, 2))
    return Instance(n_d=1, n_r=2, c_d=c_d, c_r=c_r, w0=0, wt=0, e_max=10.0)


def test_flight_time_symmetric_return():
    inst = _two_rl_instance(3.0)
    op = Operation(0, (0,), 0)
    assert operation_flight_time(op, inst) == 6.0


def test_flight_time_collinear_chain():
    # destinations on a line at unit spacing, RL at the origin
    dest = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    rls = np.array([[0.0, 0.0], [4.0, 0.0]])
    from drpe.generator import metrics_from_coords
    c_d, c_r = metrics_from_coords(dest, rls, 1.0)
    inst = Instance(n_d=3, n_r=2, c_d=c_d, c_r=c_r, w0=0, wt=1, e_max=10.0)
    assert operation_flight_time(Operation(0, (0, 1, 2), 1), inst) == pytest.approx(4.0, abs=1e-12)


def test_empty_operation_rejected():
    with pytest.raises(InvalidOperationError):
        Operation(0, (), 0)
    with pytest.raises(InvalidOperationError):
        Operation(0, (1, 1), 0)


def test_operation_makespan_max_of_sides():
    inst = _two_rl_instance(3.5)
    flight = operation_flight_time(Operation(0, (0,), 1), inst)
    inst.c_r = np.array([[0.0, 4.0], [4.0, 0.0]])
    # flight 7 vs rover 4
    assert BaseCostModel(inst).cost(flight, inst.c_r[0, 1]) == (7.0, True)
    inst.c_r = np.array([[0.0, 9.0], [9.0, 0.0]])
    # rover-bound, drone waits
    assert BaseCostModel(inst).cost(flight, inst.c_r[0, 1]) == (9.0, True)


def test_worked_example_values(worked_instance, worked_tour):
    inst = worked_instance
    ops = worked_tour.operations()
    assert operation_flight_time(ops[0], inst) == pytest.approx(4.0, abs=1e-12)
    model = BaseCostModel(inst)
    for op, want in zip(ops, (4.0, 7.0, 7.0)):
        flight = operation_flight_time(op, inst)
        makespan, _ = model.cost(flight, inst.c_r[op.start_rl, op.end_rl])
        assert makespan == pytest.approx(want, abs=1e-12)
    assert worked_tour.makespan == pytest.approx(22.0, abs=1e-12)
    report = validate_tour(worked_tour, inst)
    assert report.passed
    assert report.recomputed_makespan == pytest.approx(22.0, abs=1e-12)


def test_tour_makespan_simple_sums(worked_instance):
    inst = _two_rl_instance(5.0)
    tour = build_tour(inst, [RechargingLeg(0, 0), Operation(0, (0,), 0),
                             RechargingLeg(0, 0)])
    assert tour.makespan == 10.0


def test_trivial_leg_insertion_invariance(worked_instance, worked_tour):
    # splicing a trivial leg + re-splitting an operation is not allowed, but
    # pure trivial-leg bookkeeping must not change the makespan
    inst = worked_instance
    base = tour_makespan(worked_tour, inst)
    for el in worked_tour.elements:
        if isinstance(el, RechargingLeg) and el.trivial:
            assert inst.c_r[el.from_rl, el.to_rl] == 0.0
    assert base == worked_tour.makespan


def test_broken_chaining_raises(worked_instance):
    inst = worked_instance
    bad = DroneTour(elements=(RechargingLeg(0, 0), Operation(0, (0,), 0),
                              RechargingLeg(1, 4)), makespan=0.0)
    with pytest.raises(TourStructureError):
        tour_makespan(bad, inst)
    report = validate_tour(bad, inst)
    assert not report.passed and not report.checks["structure"]


def test_foreign_element_is_a_structure_failure(worked_instance):
    # an element at an operation position that is not an Operation
    bad = DroneTour((RechargingLeg(0, 0), 5, RechargingLeg(0, 0)), 0.0)
    report = validate_tour(bad, worked_instance)
    assert not report.passed and not report.checks["structure"]
    assert "element 1 breaks the leg/operation alternation" in report.messages


def test_validation_catches_missing_destination(worked_instance, worked_tour):
    inst = worked_instance
    elements = list(worked_tour.elements)
    elements[1] = Operation(0, (0,), 0)
    elements[3] = Operation(0, (1,), 1)  # destination 2 dropped
    bad = DroneTour(elements=tuple(elements), makespan=worked_tour.makespan)
    report = validate_tour(bad, inst)
    assert not report.checks["coverage"]


def test_validation_catches_energy_violation(worked_instance, worked_tour):
    inst = worked_instance
    inst2 = Instance(n_d=inst.n_d, n_r=inst.n_r, c_d=inst.c_d, c_r=inst.c_r,
                     w0=inst.w0, wt=inst.wt, e_max=6.9)  # ops 2 and 3 fly 7
    report = validate_tour(worked_tour, inst2)
    assert not report.checks["energy"]
    assert report.checks["coverage"]


def test_validation_reports_out_of_range_indices(worked_instance, worked_tour):
    # 5 RLs and 5 destinations: RL 99 would raise in numpy indexing, while
    # destination 5 (RL 0's row of c_d) and index -1 (the last row) would
    # silently read another node's times
    cases = {
        "rl_range": [(5, Operation(3, (3, 4), 99)), (5, Operation(-1, (3, 4), 4)),
                     (4, RechargingLeg(1, -1))],
        "destination_range": [(5, Operation(3, (3, 5), 4)),
                              (5, Operation(3, (-1, 4), 4))],
    }
    for check, edits in cases.items():
        for pos, el in edits:
            elements = list(worked_tour.elements)
            elements[pos] = el
            bad = DroneTour(elements=tuple(elements), makespan=worked_tour.makespan)
            report = validate_tour(bad, worked_instance)
            assert not report.passed and not report.checks[check]
            assert report.recomputed_makespan is None


def test_validation_catches_stale_makespan(worked_instance, worked_tour):
    stale = DroneTour(elements=worked_tour.elements, makespan=21.0)
    report = validate_tour(stale, worked_instance)
    assert not report.checks["makespan"]


def test_makespan_dominates_parts():
    for seed in range(5):
        inst = random_instance(seed, n_d=5, n_r=3)
        model = BaseCostModel(inst)
        for v in range(inst.n_d):
            for w in range(inst.n_r):
                for wp in range(inst.n_r):
                    flight = operation_flight_time(Operation(w, (v,), wp), inst)
                    m, _ = model.cost(flight, inst.c_r[w, wp])
                    assert m >= flight - 1e-12
                    assert m >= inst.c_r[w, wp] - 1e-12


def test_check_instance_flags_problems():
    inst = _two_rl_instance()
    assert check_instance(inst) == []
    bad = Instance(n_d=1, n_r=2,
                   c_d=np.array([[0, 10, 1], [10, 0, 1], [1, 1, 0.0]]),
                   c_r=np.zeros((2, 2)), w0=0, wt=0, e_max=25.0)
    problems = check_instance(bad)
    assert any("triangle" in p for p in problems)
