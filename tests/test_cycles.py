import pytest

from permdec import (
    FinitaryProduct,
    Found,
    Fuel,
    Identity,
    Transposition,
    even_zigzag,
)
from permdec import cycles as cyc


def _finitary_decider_truth(fp):
    mapping = fp.support_mapping()
    labels = {}
    for start in mapping:
        if start in labels:
            continue
        cycle = [start]
        v = mapping[start]
        while v != start:
            cycle.append(v)
            v = mapping.get(v, v)
        m = min(cycle)
        for c in cycle:
            labels[c] = m
    return lambda x, y: labels.get(x, x) == labels.get(y, y)


FIX = FinitaryProduct([(0, 1), (1, 2), (5, 9), (9, 12)])


def test_decider_one_infinite_on_finitary():
    truth = _finitary_decider_truth(FIX)
    w = cyc.decider_one_infinite(FIX)
    for x in range(15):
        for y in range(15):
            assert w.payload(x, y) == truth(x, y)


def test_decider_one_infinite_on_the_evens_cycle():
    w = cyc.decider_one_infinite(even_zigzag())
    assert w.payload(0, 8)
    assert w.payload(6, 4)
    assert not w.payload(0, 3)
    assert not w.payload(3, 7)


def test_decider_few_infinite():
    from permdec.selfcheck import evens_odds
    w = cyc.decider_few_infinite(evens_odds(), reps=[0, 1])
    assert w.payload(2, 8)
    assert w.payload(3, 9)
    assert not w.payload(2, 9)
    # a listed representative as either argument lands at once
    pairs = [(0, 3), (3, 0), (0, 1), (1, 3), (0, 4), (2, 3)]
    assert [w.payload(x, y, Fuel(1000)) for x, y in pairs] == \
        [False, False, False, True, True, False]


def test_witness_conversion_cycle():
    truth = _finitary_decider_truth(FIX)
    w = cyc.CycleWitness(cyc.DECIDER, lambda x, y, fu=None: truth(x, y), FIX)
    for target in (cyc.MIN_REP, cyc.UNIQUE_REP, cyc.CHAR_VALUE,
                   cyc.TRANSVERSAL):
        w2 = cyc.witness_convert(w, target)
        assert w2.kind == target
    # a full loop back to a decider must still decide correctly
    w3 = cyc.witness_convert(
        cyc.witness_convert(w, cyc.TRANSVERSAL), cyc.DECIDER)
    for x in range(12):
        for y in range(12):
            assert w3.payload(x, y) == truth(x, y)


def test_min_rep_from_decider():
    truth = _finitary_decider_truth(FIX)
    w = cyc.CycleWitness(cyc.DECIDER, lambda x, y, fu=None: truth(x, y), FIX)
    mr = cyc.witness_convert(w, cyc.MIN_REP)
    assert mr.payload(12) == 5
    assert mr.payload(2) == 0
    assert mr.payload(7) == 7


def test_char_value_back_to_min_rep():
    w = cyc.CycleWitness(cyc.CHAR_VALUE, lambda x, fu=None: x % 3, Identity())
    mr = cyc.witness_convert(w, cyc.MIN_REP)
    assert mr.payload(7) == 1
    assert mr.payload(9) == 0


def test_transversal_decider_consumes_fuel():
    w = cyc.CycleWitness(cyc.TRANSVERSAL, lambda e, fu=None: 0, even_zigzag())
    d = cyc.witness_convert(w, cyc.DECIDER)
    fuel = Fuel(100_000)
    assert d.payload(0, 4, fuel)
    assert fuel.used > 0


def test_reachability_semidecider():
    out = cyc.reachability_semidecider(even_zigzag(), 0, 8, Fuel(100))
    assert isinstance(out, Found) and out.value == 2
    out = cyc.reachability_semidecider(even_zigzag(), 0, 3, Fuel(50))
    assert not isinstance(out, Found)


def test_unknown_conversion_target_rejected():
    w = cyc.CycleWitness(cyc.DECIDER, lambda x, y, fu=None: x == y, Identity())
    with pytest.raises(ValueError):
        cyc.witness_convert(w, "nonsense")
