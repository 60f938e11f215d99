"""Deterministic verification suites.

Each criterion function returns a list of (label, passed) entries computed
against brute-force oracles at desk scale.  The CLI `selfcheck` subcommand
and the acceptance tests both run these; all randomness is seeded.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional

from . import machine
from .core import (
    Exhausted,
    Found,
    Fuel,
    delta,
    delta_inv,
    mu_search,
    pack3,
    pair,
    unpack3,
    unpair,
    xi_search,
)
from .equivalence import (
    CycleEqOf,
    EqExpr,
    FibersOf,
    Full,
    ImageEq,
    ModFun,
    Modulo,
    OpaqueEq,
    Singletons,
    TableThenIdentity,
    block_decider,
    block_index,
    eq_decide,
    is_isomorphism_on_window,
    least_representative,
    nth_block_decider,
)
from .permutation import (
    Compose,
    DeltaSucc,
    FinitaryProduct,
    Identity,
    Inverse,
    OrbitCache,
    PermExpr,
    PiecewiseResidue,
    Rule,
    Transposition,
    perm_eval,
    perm_eval_inv,
    eta_encode,
    even_zigzag,
    window_bijection_check,
)
from . import cycles as cyc
from .normalform import (
    RhoCardConst,
    RhoConst,
    _normal_min_search,
    decider_from_normal,
    normal_min_with_probes,
    normality_report,
    normalize,
    perm_from_rho,
    seminormal_cf_decider,
    seminormal_from_rho,
)
from .conjugacy import conjugator_from_isomorphism, conjugator_same_partition
from . import gadgets as gd
from . import products as pr


# ---------------------------------------------------------------------------
# shared fixtures and oracles


def evens_odds() -> PiecewiseResidue:
    """Two infinite normal cycles: one on the evens, one on the odds."""
    return PiecewiseResidue([
        Rule(0, 2, "const", 0, 0),
        Rule(4, 2, "affine", 1, -4),
        Rule(4, 0, "affine", 1, 4),
        Rule(0, 3, "const", 0, 1),
        Rule(4, 3, "affine", 1, -4),
        Rule(4, 1, "affine", 1, 4),
    ])


def evens_block_eq() -> EqExpr:
    return OpaqueEq(lambda x, y: x == y or (x % 2 == 0 and y % 2 == 0),
                    label="evens-block")


def three_cycle_evens() -> PermExpr:
    """The evens cycle, the finite cycle (1 3 5), everything else fixed."""
    return Compose(even_zigzag(), FinitaryProduct([(1, 3), (3, 5)]))


def three_cycle_evens_eq() -> EqExpr:
    return OpaqueEq(
        lambda x, y: x == y or (x % 2 == 0 and y % 2 == 0)
        or (x in (1, 3, 5) and y in (1, 3, 5)),
        label="evens+135")


def _random_finitary(rng: random.Random, points: int = 40,
                     swaps: int = 8) -> FinitaryProduct:
    ts = []
    for _ in range(rng.randrange(1, swaps + 1)):
        a = rng.randrange(points)
        b = rng.randrange(points)
        ts.append((a, b))
    return FinitaryProduct(ts)


def _finitary_cycles(fp: FinitaryProduct) -> dict[int, int]:
    """Point -> least element of its cycle, for all support points."""
    mapping = fp.support_mapping()
    labels: dict[int, int] = {}
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
    return labels


def _orbit_min(p: PermExpr, x: int) -> int:
    """Least element of x's cycle for normal p, found by walking p's orbit.
    It reads no _cycle_min hook, which answers from the relation p was
    built from, so it holds p's actual cycles to that relation."""
    return _normal_min_search(p, x, Fuel())[0]


def _finitary_eq(fp: FinitaryProduct) -> EqExpr:
    labels = _finitary_cycles(fp)
    return OpaqueEq(lambda x, y: labels.get(x, x) == labels.get(y, y),
                    label="finitary-cycles")


# ---------------------------------------------------------------------------
# core invariants


def criterion_core() -> list[tuple[str, bool]]:
    out = []

    ok = all(delta(delta_inv(j)) == j for j in range(4000))
    ok = ok and all(delta_inv(delta(k)) == k for k in range(-2000, 2000))
    ok = ok and [delta_inv(j) for j in range(5)] == [0, -1, 1, -2, 2]
    out.append(("delta is the signed zig-zag bijection", ok))

    ok = all(unpair(pair(x, y)) == (x, y) for x in range(60) for y in range(60))
    ok = ok and all(pair(*unpair(z)) == z for z in range(4000))
    ok = ok and (pair(0, 0), pair(0, 1), pair(1, 0)) == (0, 1, 2)
    ok = ok and unpack3(pack3(7, 11, 13)) == (7, 11, 13)
    out.append(("pair coding is a bijection with the pinned corner values", ok))

    preds = [lambda k: k * k > 50, lambda k: k == 0, lambda k: k < -3,
             lambda k: k % 7 == 3]
    ok = True
    for p in preds:
        xi = xi_search(p, Fuel.unbounded())
        mu = mu_search(lambda i: p(delta_inv(i)), Fuel.unbounded())
        ok = ok and isinstance(xi, Found) and isinstance(mu, Found)
        ok = ok and xi.value == delta_inv(mu.value) and xi.probes == mu.probes
    out.append(("xi search equals mu search through delta", ok))

    f = Fuel(5)
    r = mu_search(lambda x: False, f)
    ok = isinstance(r, Exhausted) and r.probes == 5 and f.remaining == 0
    f2 = Fuel(10)
    r2 = mu_search(lambda x: x == 3, f2)
    ok = ok and isinstance(r2, Found) and r2.probes == 4 and f2.remaining == 6
    shared = Fuel(6)
    mu_search(lambda x: x == 3, shared)
    r3 = mu_search(lambda x: False, shared)
    ok = ok and isinstance(r3, Exhausted) and r3.probes == 2
    out.append(("fuel budgets are shared and account every probe", ok))

    codes = [c for _, c in gd.halting_fixtures() + gd.looping_fixtures()]
    ok = True
    for code in codes:
        prev = False
        for n in range(0, 50):
            cur = machine.halts_within(code, n)
            if prev and not cur:
                ok = False
            prev = cur
    ok = ok and not any(machine.halts_within(c, 0) for c in codes)
    out.append(("halts_within is monotone and false at zero steps", ok))

    return out


# ---------------------------------------------------------------------------
# criterion 1: the four representations of an equivalence agree


def _equiv_fixtures() -> list[tuple[str, EqExpr]]:
    return [
        ("singletons", Singletons()),
        ("full", Full()),
        ("mod-2", Modulo(2)),
        ("mod-7", Modulo(7)),
        ("fibers-mod-5", FibersOf(ModFun(5))),
        ("fibers-table", FibersOf(TableThenIdentity({0: 3, 1: 3, 2: 3, 9: 12}))),
        ("image-mod-3", ImageEq(Modulo(3), FinitaryProduct([(0, 5), (1, 2)]))),
        ("cycles-evens", CycleEqOf(even_zigzag(), "one_infinite")),
        ("cycles-finitary", CycleEqOf(FinitaryProduct([(0, 1), (2, 3), (3, 4)]),
                                      "one_infinite")),
        ("halting-blocks", gd.halting_equivalence("cf")),
    ]


def criterion_representations(window: int = 200) -> list[tuple[str, bool]]:
    out = []
    for name, eq in _equiv_fixtures():
        lab = [least_representative(eq, x) for x in range(window)]

        ok = all(eq_decide(eq, x, y) == (lab[x] == lab[y])
                 for x in range(window) for y in range(x, window))

        for x in range(0, window, 17):
            bd = block_decider(eq, x)
            ok = ok and all(bd(y) == (lab[y] == lab[x]) for y in range(window))

        reps = [r for r in range(window) if lab[r] == r]
        for x in range(0, window, 13):
            ok = ok and block_index(eq, x) == reps.index(lab[x])

        if len(reps) <= 25:
            indices = list(range(len(reps)))
        else:
            indices = sorted({i for i in (list(range(10)) + [47, 101, len(reps) - 1])
                              if i < len(reps)})
        for i in indices:
            bd = nth_block_decider(eq, i, Fuel(500_000))
            if isinstance(bd, Exhausted):
                ok = False
                continue
            r = reps[i]
            ok = ok and all(bd(y) == (lab[y] == r) for y in range(0, window, 7))
        # past the last discoverable block the enumeration must not lie
        if len(reps) < 5:
            tail = nth_block_decider(eq, len(reps) + 3, Fuel(3000))
            ok = ok and isinstance(tail, Exhausted)

        out.append((f"representations agree: {name}", ok))
    return out


# ---------------------------------------------------------------------------
# criterion 2: conjugator synthesis


def criterion_conjugators() -> list[tuple[str, bool]]:
    rng = random.Random(20240817)
    cases: list[tuple[str, PermExpr, PermExpr, PermExpr, EqExpr, EqExpr]] = []

    for i in range(10):
        f = _random_finitary(rng)
        eq = _finitary_eq(f)
        h = conjugator_same_partition(f, Inverse(f), cyc.eq_witness(eq, f), eq=eq)
        cases.append((f"finitary inverse pair {i}", f, Inverse(f), h, eq, eq))

    for i in range(7):
        f = _random_finitary(rng)
        theta = _random_finitary(rng)
        g = Compose(theta, Compose(Inverse(f), Inverse(theta)))
        eq = _finitary_eq(f)
        h = conjugator_from_isomorphism(f, g, theta, cyc.eq_witness(eq, f), eq=eq)
        cases.append((f"finitary via isomorphism {i}", f, g, h,
                      eq, ImageEq(eq, theta)))

    g0 = even_zigzag()
    eqe = evens_block_eq()
    eo = evens_odds()
    f7 = three_cycle_evens()
    eq7 = three_cycle_evens_eq()

    h = conjugator_same_partition(g0, Inverse(g0), cyc.eq_witness(eqe, g0), eq=eqe)
    cases.append(("evens cycle vs inverse", g0, Inverse(g0), h, eqe, eqe))
    h = conjugator_same_partition(g0, g0, cyc.eq_witness(eqe, g0), eq=eqe)
    cases.append(("evens cycle vs itself", g0, g0, h, eqe, eqe))
    m2 = Modulo(2)
    h = conjugator_same_partition(eo, Inverse(eo), cyc.eq_witness(m2, eo), eq=m2)
    cases.append(("evens/odds vs inverse", eo, Inverse(eo), h, m2, m2))
    h = conjugator_same_partition(eo, eo, cyc.eq_witness(m2, eo), eq=m2)
    cases.append(("evens/odds vs itself", eo, eo, h, m2, m2))
    theta = Transposition(0, 1)
    g = Compose(theta, Compose(eo, Inverse(theta)))
    h = conjugator_from_isomorphism(eo, g, theta, cyc.eq_witness(m2, eo), eq=m2)
    cases.append(("evens/odds via swap isomorphism", eo, g, h,
                  m2, ImageEq(m2, theta)))
    theta = FinitaryProduct([(0, 2), (1, 5)])
    g = Compose(theta, Compose(Inverse(g0), Inverse(theta)))
    h = conjugator_from_isomorphism(g0, g, theta, cyc.eq_witness(eqe, g0), eq=eqe)
    cases.append(("evens cycle via finitary isomorphism", g0, g, h,
                  eqe, ImageEq(eqe, theta)))
    h = conjugator_same_partition(f7, Inverse(f7), cyc.eq_witness(eq7, f7), eq=eq7)
    cases.append(("evens plus 3-cycle vs inverse", f7, Inverse(f7), h,
                  eq7, eq7))
    ds = DeltaSucc()
    full = Full()
    h = conjugator_same_partition(ds, Inverse(ds), cyc.eq_witness(full, ds),
                                  eq=full)
    cases.append(("one-cycle successor vs inverse", ds, Inverse(ds), h,
                  full, full))

    out = []
    for name, f, g, h, eqf, eqg in cases:
        ok = all(perm_eval(f, x) == perm_eval_inv(h, perm_eval(g, perm_eval(h, x)))
                 for x in range(400))
        ok = ok and is_isomorphism_on_window(h, eqf, eqg, 300)
        out.append((f"conjugator: {name}", ok))
    return out


# ---------------------------------------------------------------------------
# criterion 3: normal forms


def criterion_normalize() -> list[tuple[str, bool]]:
    rng = random.Random(20240818)
    fixtures = [
        ("evens cycle", even_zigzag(), evens_block_eq()),
        ("evens/odds cycles", evens_odds(), Modulo(2)),
        ("finitary", _random_finitary(rng), None),
        ("evens plus 3-cycle", three_cycle_evens(), three_cycle_evens_eq()),
    ]
    out = []
    for name, f, eq in fixtures:
        if eq is None:
            eq = _finitary_eq(f)
        w = cyc.eq_witness(eq, f)
        fp = normalize(f, w, eq=eq)

        report = normality_report(fp, 2000)
        out.append((f"normalize is normal on the window: {name}",
                    report.all_normal))

        eql = [least_representative(eq, x) for x in range(300)]
        nml = [_orbit_min(fp, x) for x in range(300)]
        ok = all((eql[x] == eql[y]) == (nml[x] == nml[y])
                 for x in range(300) for y in range(x + 1, 300))
        out.append((f"normalize preserves the cycle decider: {name}", ok))

        fp2 = normalize(fp, decider_from_normal(fp), eq=eq)
        ok = all(perm_eval(fp2, x) == perm_eval(fp, x) for x in range(400))
        out.append((f"normalize is idempotent: {name}", ok))

    for name, f, dist in [
        ("evens cycle", even_zigzag(), lambda x: abs(delta_inv(x // 2)) if x % 2 == 0 else 0),
        ("evens/odds cycles", evens_odds(), lambda x: abs(delta_inv(x // 2))),
    ]:
        ok = True
        for _ in range(100):
            x = rng.randrange(4000)
            d = dist(x)
            _, probes = normal_min_with_probes(f, x)
            if probes > 2 * (math.ceil(math.log2(d + 1)) + 2):
                ok = False
        out.append((f"normal_min probe bound: {name}", ok))
    return out


# ---------------------------------------------------------------------------
# criterion 4: permutability from rho


def _mixed_eq() -> EqExpr:
    # one finite block {0..9}, one infinite block (evens >= 10), singletons
    def rel(x, y):
        if x == y:
            return True
        if x < 10 and y < 10:
            return True
        return x >= 10 and y >= 10 and x % 2 == 0 and y % 2 == 0
    return OpaqueEq(rel, label="mixed-blocks")


def criterion_permutability() -> list[tuple[str, bool]]:
    out = []

    def matches(eq: EqExpr, p: PermExpr, n: int = 300) -> bool:
        eql = [least_representative(eq, x) for x in range(n)]
        pl = [_orbit_min(p, x) for x in range(n)]
        return all((eql[x] == eql[y]) == (pl[x] == pl[y])
                   for x in range(n) for y in range(x + 1, n))

    greater_fixtures = [
        ("mod-3 all-infinite", Modulo(3), RhoConst(True)),
        ("full one-cycle", Full(), RhoConst(True)),
        ("mixed blocks", _mixed_eq(),
         lambda y: y < 9 or (y >= 10 and y % 2 == 0)),
    ]
    for name, eq, rho in greater_fixtures:
        fp = perm_from_rho(eq, rho)
        ok = window_bijection_check(fp, 2000)
        ok = ok and matches(eq, fp)
        out.append((f"perm_from_rho: {name}", ok))

    fp = perm_from_rho(Full(), RhoConst(True))
    ds = DeltaSucc()
    ok = all(perm_eval(fp, x) == perm_eval(ds, x) for x in range(500))
    out.append(("perm_from_rho on the full relation is the zig-zag successor", ok))

    card_fixtures = [
        ("mod-5 all-infinite", Modulo(5), RhoCardConst(0),
         lambda x: False),
        ("blocks of three", OpaqueEq(lambda x, y: x // 3 == y // 3,
                                     label="triples"),
         RhoCardConst(3), lambda x: True),
        ("mixed blocks", _mixed_eq(),
         lambda x: 10 if x < 10 else (0 if x % 2 == 0 else 1),
         lambda x: x < 10 or x % 2 == 1),
    ]
    rng = random.Random(20240819)
    for name, eq, rho, cf_truth in card_fixtures:
        sp = seminormal_from_rho(eq, rho)
        ok = window_bijection_check(sp, 2000)
        ok = ok and matches(eq, sp)
        dec = seminormal_cf_decider(sp)
        pts = [rng.randrange(1500) for _ in range(100)]
        ok = ok and all(dec(x) == cf_truth(x) for x in pts)
        out.append((f"seminormal_from_rho: {name}", ok))
    return out


# ---------------------------------------------------------------------------
# criterion 5: the halting gadget


def criterion_halting() -> list[tuple[str, bool]]:
    out = []
    hard = gd.cf_hard_perm()
    for label, code in gd.halting_fixtures():
        h = machine.halting_step(code, 5000)
        ok = h is not None
        if ok:
            # explicit cycle closure: the block of <code,0> is {0,...,h-1}
            start = pair(code, 0)
            cur = start
            seen = []
            for _ in range(h):
                seen.append(cur)
                cur = perm_eval(hard, cur)
            ok = cur == start and len(set(seen)) == h
            ok = ok and sorted(seen) == [pair(code, i) for i in range(h)]
        out.append((f"halting program closes its cycle: {label}", ok))
    for label, code in gd.looping_fixtures():
        ok = machine.certify_loops_forever(code)
        # the structural certificate implies the unhalted block never ends;
        # sanity-walk a few steps without seeing closure
        start = pair(code, 0)
        cur = start
        seen = {start}
        for _ in range(8):
            cur = perm_eval(hard, cur)
            if cur in seen:
                ok = False
            seen.add(cur)
        out.append((f"looping program certified infinite: {label}", ok))
    return out


# ---------------------------------------------------------------------------
# criterion 6: inter-reductions


def _gadget_cycle_len(gadget: PermExpr, start: int, cap: int) -> Optional[int]:
    cur = start
    for i in range(1, cap + 1):
        cur = perm_eval(gadget, cur)
        if cur == start:
            return i
    return None


def criterion_interred() -> list[tuple[str, bool]]:
    rng = random.Random(20240820)
    perms = [_random_finitary(rng, points=40, swaps=8) for _ in range(20)]
    out = []

    ok = True
    for g in perms:
        labels = _finitary_cycles(g)
        sizes: dict[int, int] = {}
        for p, m in labels.items():
            sizes[m] = sizes.get(m, 0) + 1
        gadget, j = gd.odd_length_gadget(g)
        for x in range(50):
            n = sizes.get(labels.get(x, x), 1)
            got = _gadget_cycle_len(gadget, j(x), 2 * n + 3)
            if got != 2 * n + 1:
                ok = False
    out.append(("odd-length gadget: cycle lengths are 2n+1", ok))

    ok = True
    for g in perms[:8]:
        labels = _finitary_cycles(g)
        f, embed = gd.reduce_cd_to_cf(g)
        for x in range(30):
            for y in range(x, 30):
                related = labels.get(x, x) == labels.get(y, y)
                finite = _gadget_cycle_len(f, embed(x, y), 120) is not None
                if related != finite:
                    ok = False
    out.append(("cycle decidability reduces to cycle finiteness", ok))

    ok = True
    for g in perms[:8]:
        labels = _finitary_cycles(g)
        sizes: dict[int, int] = {}
        for p, m in labels.items():
            sizes[m] = sizes.get(m, 0) + 1
        f2, j, jp = gd.reduce_cf_to_cd(g)
        for x in range(30):
            n = sizes.get(labels.get(x, x), 1)
            # brute both sides: [x]_g is finite (always, here) and j(x) must
            # reach j'(x) under the square within the odd cycle length
            target = jp(x)
            cur = j(x)
            reached = False
            for _ in range(2 * n + 2):
                if cur == target:
                    reached = True
                    break
                cur = perm_eval(f2, cur)
            if not reached:
                ok = False
    out.append(("cycle finiteness reduces to cycle decidability", ok))

    # infinite side of the biconditional on the evens cycle
    g0 = even_zigzag()
    f2, j, jp = gd.reduce_cf_to_cd(g0)
    target = jp(0)
    cur = j(0)
    hit = False
    for _ in range(400):
        if cur == target:
            hit = True
            break
        cur = perm_eval(f2, cur)
    out.append(("infinite cycle stays unrelated under the square", not hit))
    return out


# ---------------------------------------------------------------------------
# criterion 7: the conjugacy reduction


def criterion_conjreduction() -> list[tuple[str, bool]]:
    out = []

    ident = Identity()
    w = cyc.CycleWitness(cyc.DECIDER, lambda x, y, fu=None: x == y, ident)
    f1, w1 = gd.conj_reduction_perm(ident, w, 0)
    ok = all(perm_eval(f1, u) == u for u in range(200))
    ok = ok and all(w1.payload(0, u) == (u == 0) for u in range(200))
    out.append(("identity base point gives only finite cycles", ok))

    g0 = even_zigzag()
    eqe = evens_block_eq()
    f2, w2 = gd.conj_reduction_perm(g0, cyc.eq_witness(eqe, g0), 0, eq=eqe)
    orb = OrbitCache(g0)
    kval: dict[int, int] = {}
    for u in range(0, 500, 2):
        kval[u] = orb.find_k(0, u)
    block = sorted(u for u in kval if kval[u] % 2 == 0)
    ok = all(w2.payload(0, u) == (u % 2 == 0 and kval[u] % 2 == 0)
             for u in range(500))
    ok = ok and block[:6] == [0, 6, 8, 14, 16, 22]
    ok = ok and w2.payload(0, 8) and not w2.payload(0, 4)
    for u in range(500):
        if u % 2 == 1 or kval.get(u, 1) % 2 == 1:
            ok = ok and perm_eval(f2, u) == u
    # the surviving block carries one normal infinite cycle
    for i, b in enumerate(block[:-2]):
        t = delta(delta_inv(i) + 1)
        if t < len(block):
            ok = ok and perm_eval(f2, b) == block[t]
    out.append(("evens base point gives one infinite cycle plus fixed points",
                ok))
    return out


# ---------------------------------------------------------------------------
# criterion 8: products with finitary permutations


def _apply_ts(ts: list[tuple[int, int]], x: int, inverse: bool = False) -> int:
    order = ts if inverse else list(reversed(ts))
    for a, b in order:
        if x == a:
            x = b
        elif x == b:
            x = a
    return x


def _ground_truth(fwd: Callable[[int], int], bwd: Callable[[int], int],
                  domain: list[int], cap: int = 400):
    comp: dict[int, int] = {}
    finite: dict[int, bool] = {}
    next_id = [0]
    for x in domain:
        if x in comp:
            continue
        visited = [x]
        closed = False
        cur = x
        for _ in range(cap):
            cur = fwd(cur)
            if cur == x:
                closed = True
                break
            visited.append(cur)
        if not closed:
            cur = x
            for _ in range(cap):
                cur = bwd(cur)
                visited.append(cur)
        cid = next(
            (comp[v] for v in visited if v in comp), None)
        if cid is None:
            cid = next_id[0]
            next_id[0] += 1
        for v in visited:
            comp[v] = cid
            finite[v] = closed
    rel = lambda x, y: comp[x] == comp[y]
    return rel, (lambda x: finite[x])


def criterion_products() -> list[tuple[str, bool]]:
    rng = random.Random(20240821)
    out = []
    g0 = even_zigzag()
    eqe = evens_block_eq()
    eo = evens_odds()
    f7 = three_cycle_evens()
    eq7 = three_cycle_evens_eq()

    def fixture(i: int):
        kind = i % 5
        if kind == 0:
            f = _random_finitary(rng, points=50, swaps=5)
            return f, _finitary_eq(f), (lambda x: True)
        if kind == 1:
            return Identity(), Singletons(), (lambda x: True)
        if kind == 2:
            return g0, eqe, (lambda x: x % 2 == 1)
        if kind == 3:
            return eo, Modulo(2), (lambda x: False)
        return f7, eq7, (lambda x: x % 2 == 1)

    ok_dec = True
    ok_cf = True
    for i in range(50):
        a_ts = [(rng.randrange(50), rng.randrange(50))
                for _ in range(rng.randrange(1, 4))]
        b_ts = [(rng.randrange(50), rng.randrange(50))
                for _ in range(rng.randrange(1, 4))]
        f, eqf, cff = fixture(i)
        expr, w, cf = pr.finitary_product(
            eta_encode(a_ts), f, eta_encode(b_ts), cyc.eq_witness(eqf, f), cff)

        def fwd(x, _a=a_ts, _b=b_ts, _f=f):
            return _apply_ts(_a, perm_eval(_f, _apply_ts(_b, x)))

        def bwd(x, _a=a_ts, _b=b_ts, _f=f):
            return _apply_ts(_b, perm_eval_inv(_f, _apply_ts(_a, x, True)), True)

        pts = sorted(set(range(100))
                     | {p for t in a_ts + b_ts for p in t})
        rel, fin = _ground_truth(fwd, bwd, pts)
        if not all(perm_eval(expr, x) == fwd(x) for x in pts):
            ok_dec = False
        for xi, x in enumerate(pts):
            for y in pts[xi:]:
                if w.payload(x, y) != rel(x, y):
                    ok_dec = False
        if not all(cf(x) == fin(x) for x in pts):
            ok_cf = False
    out.append(("finitary products: decider matches brute force", ok_dec))
    out.append(("finitary products: finiteness matches brute force", ok_cf))

    cff = lambda x: x % 2 == 1
    w, cf = pr.transposition_times_cf(0, 4, g0, cyc.eq_witness(eqe, g0), cff)
    ok = perm_eval(w.subject, 0) == 0
    ok = ok and not w.payload(0, 2) and w.payload(2, 6)
    ok = ok and cf(0) and not cf(2) and cf(1)
    out.append(("split case: (0 4) after the evens cycle isolates 0", ok))

    cf7 = lambda x: x % 2 == 1
    w, cf = pr.transposition_times_cf(0, 1, f7, cyc.eq_witness(eq7, f7), cf7)
    ok = w.payload(3, 8) and not cf(3) and not cf(8) and cf(7)
    out.append(("fuse case: (0 1) merges the 3-cycle into the evens", ok))

    weo, cfeo = pr.transposition_times_cf(0, 1, eo, cyc.eq_witness(Modulo(2), eo),
                                          lambda x: False)
    ok = weo.payload(0, 3) and not weo.payload(0, 2) and not cfeo(0)
    ok = ok and perm_eval(weo.subject, 3) == 0 and perm_eval(weo.subject, 2) == 1
    out.append(("ray case: (0 1) recombines the evens and odds half-rays", ok))

    def uniform(x, y, _f=f7, _eq=eq7, _cf=cf7):
        w, _ = pr.transposition_times_cf(x, y, _f, cyc.eq_witness(_eq, _f), _cf)
        return w.payload

    rec = pr.cf_from_product_deciders(f7, cyc.eq_witness(eq7, f7), uniform, 0)
    ok = all(rec(x) == cf7(x) for x in range(300))
    fa = FinitaryProduct([(0, 1), (2, 3)])
    rec2 = pr.cf_from_product_deciders(
        fa, cyc.eq_witness(_finitary_eq(fa), fa),
        lambda x, y: (lambda u, v, fu=None: True), None)
    ok = ok and all(rec2(x) for x in range(300))
    out.append(("finiteness recovered from the product decider family", ok))
    return out


# ---------------------------------------------------------------------------
# suite registry


SUITES: dict[str, list[Callable[[], list[tuple[str, bool]]]]] = {
    "core": [criterion_core],
    "equiv": [criterion_representations],
    "conj": [criterion_conjugators],
    "normal": [criterion_normalize, criterion_permutability],
    "gadget": [criterion_halting, criterion_interred, criterion_conjreduction],
    "product": [criterion_products],
}

SUITE_ORDER = ("core", "equiv", "conj", "normal", "gadget", "product")


def run_suite(name: str) -> list[tuple[str, bool]]:
    out = []
    for fn in SUITES[name]:
        out.extend(fn())
    return out


def run_all(names: Optional[list[str]] = None) -> list[tuple[str, str, bool]]:
    chosen = names if names else list(SUITE_ORDER)
    results = []
    for name in chosen:
        for label, ok in run_suite(name):
            results.append((name, label, ok))
    return results
