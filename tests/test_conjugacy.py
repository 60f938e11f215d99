from permdec import (
    Compose,
    CycleEqOf,
    FinitaryProduct,
    Identity,
    Inverse,
    OpaqueEq,
    Transposition,
    even_zigzag,
    is_isomorphism_on_window,
    perm_eval,
    perm_eval_inv,
)
from permdec import conjugacy as cj
from permdec import cycles as cyc


def _check_conjugates(f, g, h, window=60):
    # f = h^-1 g h on the window
    for x in range(window):
        assert perm_eval_inv(h, perm_eval(g, perm_eval(h, x))) == \
            perm_eval(f, x)


def test_same_partition_inverse_pair():
    f = even_zigzag()
    g = Inverse(even_zigzag())
    w = cyc.decider_one_infinite(f)
    h = cj.conjugator_same_partition(f, g, w)
    _check_conjugates(f, g, h)


def test_same_partition_finite_cycles():
    f = FinitaryProduct([(0, 1), (1, 2)])   # 3-cycle on {0, 1, 2}
    g = Inverse(f)                          # same support, reversed cycle
    eq = OpaqueEq(lambda x, y: x == y or (x < 3 and y < 3))
    w = cyc.CycleWitness(
        cyc.DECIDER, lambda a, b, fu=None: a == b or (a < 3 and b < 3), f)
    h = cj.conjugator_same_partition(f, g, w, eq=eq)
    _check_conjugates(f, g, h, window=30)


def test_conjugator_from_isomorphism():
    f = even_zigzag()
    # the parity swap carries the even cycle onto an odd one
    theta = _parity_swap()
    g = cj.conjugate_perm(f, theta)
    w = cyc.decider_one_infinite(f)
    c = cj.conjugator_from_isomorphism(f, g, theta, w)
    _check_conjugates(f, g, c, window=40)


def _parity_swap():
    from permdec import PiecewiseResidue, Rule
    return PiecewiseResidue([Rule(2, 0, "affine", 1, 1),
                             Rule(2, 1, "affine", 1, -1)])


def test_isomorphism_from_conjugator():
    f = even_zigzag()
    theta = _parity_swap()
    g = cj.conjugate_perm(f, theta)
    # a conjugator is itself an isomorphism of the two cycle partitions
    assert is_isomorphism_on_window(
        theta, CycleEqOf(f, "one_infinite"), CycleEqOf(g, "one_infinite"), 40)


def test_conjugate_perm_moves_cycles():
    f = even_zigzag()
    theta = _parity_swap()
    g = cj.conjugate_perm(f, theta)
    # g acts on the odds exactly as f acts on the evens
    for x in range(0, 40, 2):
        assert perm_eval(g, x + 1) == perm_eval(f, x) + 1
    assert perm_eval(g, 4) == 4
