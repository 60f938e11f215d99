import pytest

from permdec import (
    Exhausted,
    FinitaryProduct,
    Found,
    Fuel,
    Identity,
    Transposition,
    decider_from_normal,
    even_zigzag,
)
from permdec import cycles as cyc


def _finitary_cycle_min(fp):
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
    return lambda x: labels.get(x, x)


def _finitary_decider_truth(fp):
    lo = _finitary_cycle_min(fp)
    return lambda x, y: lo(x) == lo(y)


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


D, M, U, C, T = (cyc.DECIDER, cyc.MIN_REP, cyc.UNIQUE_REP, cyc.CHAR_VALUE,
                 cyc.TRANSVERSAL)
# source -> target -> the kinds the conversion steps through
ROUTES = {
    D: {D: (), M: (M,), U: (M, U), C: (M, C), T: (M, T)},
    M: {D: (D,), M: (), U: (U,), C: (C,), T: (T,)},
    U: {D: (D,), M: (M,), U: (), C: (C,), T: (M, T)},
    C: {D: (D,), M: (M,), U: (M, U), C: (), T: (M, T)},
    T: {D: (D,), M: (D, M), U: (D, M, U), C: (D, M, C), T: ()},
}
ZIG = even_zigzag()
# (subject, least member of x's cycle, a member other than the least where
# the cycle has one): FIX's cycles are {0, 1, 2}, {5, 9, 12} and fixed
# points; ZIG's are the evens and fixed odd points
SUBJECTS = [
    ("finitary", FIX, _finitary_cycle_min(FIX),
     lambda x: {0: 2, 1: 2, 2: 2, 5: 12, 9: 12, 12: 12}.get(x, x)),
    ("zigzag", ZIG, lambda x: x if x % 2 else 0, lambda x: x if x % 2 else 2),
]
WIN = 14


def _sources(f, lo, other):
    return {
        D: cyc.CycleWitness(D, lambda x, y, fu=None: lo(x) == lo(y), f),
        M: cyc.CycleWitness(M, lambda x, fu=None: lo(x), f),
        U: cyc.CycleWitness(U, lambda x, fu=None: other(x), f),
        C: cyc.CycleWitness(C, lambda x, fu=None: 1000 + lo(x), f),
        # meets every cycle, each of them more than once
        T: cyc.CycleWitness(T, lambda e, fu=None: other(e // 2), f),
    }


def _answers_as_the_truth(w, lo):
    pts = range(WIN)
    if w.kind == D:
        assert all(w.payload(x, y) == (lo(x) == lo(y)) for x in pts for y in pts)
        return
    p = w.payload
    if w.kind == T:
        # every cycle met in the window is met by the transversal
        assert {lo(x) for x in pts} <= {lo(p(e)) for e in range(2 * WIN)}
        return
    assert all((p(x) == p(y)) == (lo(x) == lo(y)) for x in pts for y in pts)
    if w.kind == M:
        assert [p(x) for x in pts] == [lo(x) for x in pts]
    if w.kind == U:
        assert all(lo(p(x)) == lo(x) for x in pts)


def test_witness_conversion_cycle(monkeypatch):
    """Every (source, target) route takes its fixed steps, and answers as
    the truth, on both subjects."""
    steps = []
    real = cyc._convert_step

    def counting(w, target):
        steps.append(target)
        out = real(w, target)
        assert isinstance(out, cyc.CycleWitness) and out.kind == target
        return out

    monkeypatch.setattr(cyc, "_convert_step", counting)
    for name, f, lo, other in SUBJECTS:
        for source, w in _sources(f, lo, other).items():
            for target in cyc.KINDS:
                steps.clear()
                out = cyc.witness_convert(w, target)
                assert tuple(steps) == ROUTES[source][target], (name, source, target)
                assert out.kind == target and out.subject is f
                _answers_as_the_truth(out, lo)
                # and back to a decider, one more step from any kind
                steps.clear()
                back = cyc.witness_convert(out, D)
                assert len(steps) == (target != D)
                _answers_as_the_truth(back, lo)


@pytest.mark.parametrize("kind", [M, U, C])
def test_a_label_witness_decides_by_comparing_labels(kind):
    # the normal form's minimum search spends no fuel on a piecewise map; a
    # route through the transversal dovetail ran out of a 10**7 budget at
    # (0, 9000)
    w = decider_from_normal(ZIG)
    d = cyc.witness_convert(cyc.CycleWitness(kind, w.payload, ZIG), D)
    assert d.payload(0, 2000, Fuel(1))
    assert not d.payload(0, 2001, Fuel(1))
    assert d.payload(0, 9000, Fuel(1))


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


def test_transversal_decider_answers_same_point_at_once():
    w = cyc.CycleWitness(cyc.TRANSVERSAL, lambda e, fu=None: e, even_zigzag())
    d = cyc.witness_convert(w, cyc.DECIDER)
    assert d.payload(4001, 4001, Fuel(1))


def test_reachability_semidecider_probe_counts():
    # one probe per power tried: k = 0, -1, 1, -2, 2 reaches 8
    assert cyc.reachability_semidecider(even_zigzag(), 0, 8, Fuel(100)) == Found(2, 5)
    assert cyc.reachability_semidecider(even_zigzag(), 0, 3, Fuel(50)) == Exhausted(50)


def test_reachability_semidecider():
    out = cyc.reachability_semidecider(even_zigzag(), 0, 8, Fuel(100))
    assert isinstance(out, Found) and out.value == 2
    out = cyc.reachability_semidecider(even_zigzag(), 0, 3, Fuel(50))
    assert not isinstance(out, Found)


def test_unknown_conversion_target_rejected():
    w = cyc.CycleWitness(cyc.DECIDER, lambda x, y, fu=None: x == y, Identity())
    with pytest.raises(ValueError):
        cyc.witness_convert(w, "nonsense")
