"""Seeded inputs, op lists and oracles for the permdec benchmark.

A workload is built from its seed alone, without importing permdec: the
inputs are JSON texts in the format of ``permdec.serialize``, the ops are a
fixed list of top-level library calls, and every expected answer comes from
code in this file (its own pairing, its own register-machine interpreter,
its own cycle walks), never from the library under test.

The seed only relabels points, picks residues, transpositions and program
codes.  The make-up of each workload (cycle types, block sizes, halting
times, code lengths) is fixed, so that the work done per round barely moves
from one seed to the next.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional


# ---------------------------------------------------------------------------
# arithmetic of our own, used by the oracles


def cantor(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + x


def uncantor(z: int) -> tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    x = z - w * (w + 1) // 2
    return x, w - x


def delta_inv(j: int) -> int:
    """0, 1, 2, 3, 4, ... -> 0, -1, 1, -2, 2, ..."""
    return j // 2 if j % 2 == 0 else -((j + 1) // 2)


def zigzag(k: int) -> int:
    """Index reached by k steps from the minimum of an infinite normal cycle."""
    return 2 * k if k >= 0 else -2 * k - 1


def zigzag_finite(k: int, n: int) -> int:
    """Index reached by k steps from the minimum of a normal cycle of size n."""
    k %= n
    if 2 * k <= n - 1:
        return 2 * k
    return 2 * (n - k) - 1


def apply_ts(ts: list[tuple[int, int]], x: int, inverse: bool = False) -> int:
    """A product of transpositions, rightmost applied first."""
    for a, b in (ts if inverse else reversed(ts)):
        if x == a:
            x = b
        elif x == b:
            x = a
    return x


def cycles_of(ts: list[tuple[int, int]]) -> list[list[int]]:
    """Cycles (each sorted) of the product, over the points it moves or names."""
    seen: set[int] = set()
    out = []
    for start in sorted({p for t in ts for p in t}):
        if start in seen:
            continue
        cyc = [start]
        v = apply_ts(ts, start)
        while v != start:
            cyc.append(v)
            v = apply_ts(ts, v)
        seen.update(cyc)
        out.append(sorted(cyc))
    return out


def cycle_ts(points: list[int]) -> list[tuple[int, int]]:
    """Transpositions whose product is one cycle through the given points."""
    return [(points[0], p) for p in points[1:]]


def machine_halting_time(code: int, cap: int) -> Optional[int]:
    """Transitions until program `code`, run on its own code, rests on a HALT
    position; None if it does not within cap.  Follows the instruction set
    and numbering in the docstring of permdec/machine.py: length and payload
    from one unpairing, instructions by repeated unpairing, opcode mod 3,
    register mod 2, jump target mod (length + 1), position length is a
    virtual HALT."""
    n, payload = uncantor(code)
    raw = []
    for _ in range(max(n - 1, 0)):
        c, payload = uncantor(payload)
        raw.append(c)
    if n > 0:
        raw.append(payload)
    prog = []
    for c in raw:
        op, arg = uncantor(c)
        op %= 3
        if op == 0:
            prog.append(("inc", arg % 2, 0))
        elif op == 1:
            r, t = uncantor(arg)
            prog.append(("decjz", r % 2, t % (n + 1)))
        else:
            prog.append(("halt", 0, 0))

    def halted(ip: int) -> bool:
        return ip >= len(prog) or prog[ip][0] == "halt"

    regs = [code, 0]
    ip = 0
    for t in range(1, cap + 1):
        if not halted(ip):
            op, r, target = prog[ip]
            if op == "inc":
                regs[r] += 1
                ip += 1
            elif regs[r] == 0:
                ip = target
            else:
                regs[r] -= 1
        if halted(ip):
            return t
    return None


# ---------------------------------------------------------------------------
# JSON inputs in permdec.serialize's format


def _n(v: int) -> str:
    return str(int(v))


def j_finitary(ts: list[tuple[int, int]]) -> dict:
    return {"kind": "finitary_product",
            "transpositions": [[_n(a), _n(b)] for a, b in ts]}


def j_rule(modulus: int, residue: int, kind: str, a: int, b: int) -> dict:
    return {"modulus": _n(modulus), "residue": _n(residue), "kind": kind,
            "a": _n(a), "b": _n(b)}


def class_rules(r: int, m: int, normal: bool) -> list[dict]:
    """Rules making the class r mod m one infinite cycle: the normal zig-zag
    a_i -> a_(delta(delta_inv(i)+1)) with a_i = r + m*i, or its inverse."""
    if normal:
        return [j_rule(0, r + m, "const", 0, r),
                j_rule(2 * m, r + m, "affine", 1, -2 * m),
                j_rule(2 * m, r, "affine", 1, 2 * m)]
    return [j_rule(0, r, "const", 0, r + m),
            j_rule(2 * m, r, "affine", 1, -2 * m),
            j_rule(2 * m, r + m, "affine", 1, 2 * m)]


def j_piecewise(rules: list[dict]) -> dict:
    return {"kind": "piecewise_residue", "rules": rules, "check_window": "10000"}


def _text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# plans


@dataclass(slots=True)
class Op:
    """One top-level library call: `call` names an entry of ``CALLS``."""

    call: str
    args: tuple
    expected: object = None


@dataclass
class Plan:
    texts: dict[str, str]
    ops: list[Op]
    # extra relational checks over the answers: (indices, predicate on the
    # answers at those indices); every index of a failing check counts failed
    relations: list[tuple[tuple[int, ...], Callable[..., bool]]] = field(default_factory=list)
    # the kind of work the ops mostly do, which names the slice of fixed work
    # their times are read against (run.YARDSTICKS)
    yardstick: str = "interpreter"

    def failed_ops(self, answers: list) -> set[int]:
        bad = {i for i, (op, ans) in enumerate(zip(self.ops, answers))
               if op.expected is not None and ans != op.expected}
        bad.update(i for i, ans in enumerate(answers) if isinstance(ans, Raised))
        for idx, pred in self.relations:
            vals = [answers[i] for i in idx]
            if any(isinstance(v, Raised) for v in vals) or not pred(*vals):
                bad.update(idx)
        return bad


class Raised:
    """The answer of an op that raised; never equal to an expected value."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"Raised({self.exc!r})"


def walk_ops(name: str, members: Callable[[int], int], size: Optional[int],
             steps: int, backward: bool = False) -> list[Op]:
    """perm_eval steps from a block minimum along a normal cycle; each step
    starts from the expected previous point, so one wrong answer fails one op."""
    call = "eval_inv" if backward else "eval"
    sign = -1 if backward else 1
    ops = []
    for k in range(1, steps + 1):
        if size is None:
            prev, cur = members(zigzag(sign * (k - 1))), members(zigzag(sign * k))
        else:
            prev = members(zigzag_finite(sign * (k - 1), size))
            cur = members(zigzag_finite(sign * k, size))
        ops.append(Op(call, (name, prev), cur))
    return ops


# cd2cf: cycle decidability of finitary permutations through the
# inter-reduction to cycle finiteness (InterredCFPerm)

CD_PERMS = 16
CD_POINTS = 40
CD_CYCLE_TYPE = (9, 7, 5, 4, 3, 2)
CD_UNRELATED = 24
CD_WALK_CAP = 120


def plan_cd2cf(seed: int) -> Plan:
    rng = random.Random(f"cd2cf/{seed}")
    texts: dict[str, str] = {}
    ops: list[Op] = []
    for gi in range(CD_PERMS):
        labels = rng.sample(range(CD_POINTS), sum(CD_CYCLE_TYPE))
        ts: list[tuple[int, int]] = []
        pos = 0
        for n in CD_CYCLE_TYPE:
            ts += cycle_ts(labels[pos:pos + n])
            pos += n
        name = f"g{gi}"
        texts[name] = _text({"kind": "interred_cf", "f": j_finitary(ts)})

        cycles = cycles_of(ts)
        label = {p: c[0] for c in cycles for p in c}
        questions: list[tuple[int, int, Optional[int]]] = []
        for cyc in cycles:
            # least |k| with g^k(x) = y is the size of the block of index 0
            for k in range(1, len(cyc) // 2 + 1):
                x = rng.choice(cyc)
                y = x
                for _ in range(k):
                    y = apply_ts(ts, y)
                questions.append((x, y, k))
        x = rng.randrange(CD_POINTS)
        questions.append((x, x, 1))
        unrelated = 0
        while unrelated < CD_UNRELATED:
            x, y = rng.randrange(CD_POINTS), rng.randrange(CD_POINTS)
            if label.get(x, x) != label.get(y, y):
                questions.append((x, y, None))
                unrelated += 1
        for x, y, size in questions:
            z = cantor(x, y)
            steps = size if size is not None else CD_WALK_CAP
            ops += walk_ops(name, lambda i, z=z: cantor(z, i), size, steps)
    return Plan(texts, ops)


# halting: cycle walks of cf_hard_perm() at <code, 0>

HALT_TIMES = (24, 32, 40, 48, 56, 64, 72)
HALT_LOOPERS = 7
HALT_WALK_CAP = 100
HALT_CODES = 3000
HALT_LOOPER_MAX_LENGTH = 6


def halting_candidates() -> tuple[dict[int, list[int]], list[int]]:
    """Codes below HALT_CODES by exact halting time, and short codes that do
    not halt within four walk caps (the walk reaches index 2 * cap)."""
    by_time: dict[int, list[int]] = {h: [] for h in HALT_TIMES}
    loopers = []
    for code in range(HALT_CODES):
        h = machine_halting_time(code, 4 * HALT_WALK_CAP)
        if h in by_time:
            by_time[h].append(code)
        elif h is None and uncantor(code)[0] <= HALT_LOOPER_MAX_LENGTH:
            loopers.append(code)
    return by_time, loopers


def plan_halting(seed: int) -> Plan:
    rng = random.Random(f"halting/{seed}")
    by_time, loopers = halting_candidates()
    walks = [(rng.choice(by_time[h]), h) for h in HALT_TIMES]
    walks += [(code, None) for code in rng.sample(loopers, HALT_LOOPERS)]
    rng.shuffle(walks)
    texts = {"hard": _text({"kind": "coproduct_perm",
                            "family": {"kind": "halting_family", "variant": "cf"},
                            "rho": {"kind": "rho_halting_cf"}})}
    ops: list[Op] = []
    for code, h in walks:
        steps = h if h is not None else HALT_WALK_CAP
        ops += walk_ops("hard", lambda i, c=code: cantor(c, i), h, steps)
    return Plan(texts, ops)


# normalform: normal forms against serialized witnesses, permutations built
# from rho, and a conjugator between a permutation and its normal form

NF_ZIG_MODULUS = 3
NF_RES_MODULUS = 4
NF_RHO_MODULUS = 5
NF_SEMI_MODULUS = 3
NF_FIN_POINTS = 40
NF_FIN_CYCLE_TYPE = (8, 6, 5, 3, 2)
NF_MIN_WINDOW = 320
NF_WALK_STEPS = 48
NF_CONJ_WINDOW = 120


def plan_normalform(seed: int) -> Plan:
    rng = random.Random(f"normalform/{seed}")
    texts: dict[str, str] = {}
    ops: list[Op] = []
    relations: list = []

    # "zig": one class mod 3 is an inverse-normal infinite cycle, the rest
    # is fixed; witness: the cycle partition with at most one infinite cycle
    r_zig = rng.randrange(NF_ZIG_MODULUS)
    zig = j_piecewise(class_rules(r_zig, NF_ZIG_MODULUS, normal=False))
    texts["zig"] = _text(zig)
    texts["zig_eq"] = _text({"kind": "cycle_eq_of", "perm": zig,
                             "strategy": "one_infinite", "reps": []})

    # "res": every class mod 4 an infinite cycle, each normal or inverse
    res_normal = [rng.random() < 0.5 for _ in range(NF_RES_MODULUS)]
    rules = []
    for r in range(NF_RES_MODULUS):
        rules += class_rules(r, NF_RES_MODULUS, res_normal[r])
    texts["res"] = _text(j_piecewise(rules))
    texts["res_eq"] = _text({"kind": "modulo", "m": _n(NF_RES_MODULUS)})

    # "fin": a finitary permutation; witness: fibers of its cycle-minimum table
    labels = rng.sample(range(NF_FIN_POINTS), sum(NF_FIN_CYCLE_TYPE))
    ts: list[tuple[int, int]] = []
    pos = 0
    for n in NF_FIN_CYCLE_TYPE:
        ts += cycle_ts(labels[pos:pos + n])
        pos += n
    fin_cycles = cycles_of(ts)
    fin_block = {p: c for c in fin_cycles for p in c}
    texts["fin"] = _text(j_finitary(ts))
    texts["fin_eq"] = _text({"kind": "fibers_of", "fun": {
        "kind": "table_then_identity",
        "table": [[_n(p), _n(c[0])] for p, c in sorted(fin_block.items())]}})

    # relations and rho for perm_from_rho / seminormal_from_rho
    texts["rho_eq"] = _text({"kind": "modulo", "m": _n(NF_RHO_MODULUS)})
    texts["rho"] = _text({"kind": "rho_const", "value": True})
    texts["semi_eq"] = _text({"kind": "modulo", "m": _n(NF_SEMI_MODULUS)})
    texts["semi_rho"] = _text({"kind": "rho_card_const", "c": "0"})

    ops += [Op("normalize", ("zig_n", "zig", "zig_eq"), "from_rho"),
            Op("normalize", ("res_n", "res", "res_eq"), "from_rho"),
            Op("normalize", ("fin_n", "fin", "fin_eq"), "from_rho"),
            Op("perm_from_rho", ("rho_n", "rho_eq", "rho"), "from_rho"),
            Op("seminormal_from_rho", ("semi_n", "semi_eq", "semi_rho"),
               "seminormal_from_rho"),
            Op("conjugator", ("conj", "res", "res_n", "res_eq"),
               "conjugator_same_partition")]

    def residue_block(m: int, r: int) -> Callable[[int], int]:
        return lambda i: r + m * i

    def zig_min(x: int) -> int:
        return r_zig if x % NF_ZIG_MODULUS == r_zig else x

    # (normal permutation, block minimum of x, blocks to walk)
    targets = [
        ("zig_n", zig_min, [(residue_block(NF_ZIG_MODULUS, r_zig), None)]),
        ("res_n", lambda x: x % NF_RES_MODULUS,
         [(residue_block(NF_RES_MODULUS, r), None) for r in range(NF_RES_MODULUS)]),
        ("fin_n", lambda x: fin_block[x][0] if x in fin_block else x,
         [(c.__getitem__, len(c)) for c in fin_cycles]),
        ("rho_n", lambda x: x % NF_RHO_MODULUS,
         [(residue_block(NF_RHO_MODULUS, r), None) for r in range(NF_RHO_MODULUS)]),
        ("semi_n", lambda x: x % NF_SEMI_MODULUS,
         [(residue_block(NF_SEMI_MODULUS, r), None) for r in range(NF_SEMI_MODULUS)]),
    ]
    for name, block_min, blocks in targets:
        for members, size in blocks:
            steps = NF_WALK_STEPS if size is None else size
            ops += walk_ops(name, members, size, steps)
            ops += walk_ops(name, members, size, steps, backward=True)
        ops += [Op("normal_min", (name, x), block_min(x))
                for x in range(NF_MIN_WINDOW)]

    # conjugator h with res = h^-1 g h, g the normal form of res: check
    # h(res(x)) = g(h(x)) and that h is injective on the window
    m = NF_RES_MODULUS

    def res_fwd(x: int) -> int:
        r, i = x % m, x // m
        step = 1 if res_normal[r] else -1
        return r + m * zigzag(delta_inv(i) + step)

    def g_fwd(x: int) -> int:
        r, i = x % m, x // m
        return r + m * zigzag(delta_inv(i) + 1)

    h_at: dict[int, int] = {}
    for x in range(NF_CONJ_WINDOW):
        for p in (x, res_fwd(x)):
            if p not in h_at:
                h_at[p] = len(ops)
                ops.append(Op("eval", ("conj", p)))
    for x in range(NF_CONJ_WINDOW):
        relations.append(((h_at[x], h_at[res_fwd(x)]),
                          lambda hx, hfx: g_fwd(hx) == hfx))
    window = tuple(h_at[x] for x in range(NF_CONJ_WINDOW))
    relations.append((window, lambda *hs: len(set(hs)) == len(hs)))
    return Plan(texts, ops, relations)


# products: finitary_product(a, f, b) with eta-coded a and b, then decider
# and finiteness queries

# builds that are only built: their latency is the eta decode, and the 14s
# fill ranks 3-32 of a round's latencies, so op_p99_ms sits on them
PR_DECODE_SIZES = (16, 15) + (14,) * 30
# builds that are queried: short codes, many builds, so the counts average
PR_QUERIED_BUILDS = 240
PR_QUERIED_SIZES = (1, 2, 3, 4, 5, 6, 7, 8)
PR_DECIDES = 7
PR_CF = 3
PR_QUERY_POINTS = 60
PR_WALK_CAP = 2000


def _pr_transposition(rng: random.Random) -> tuple[int, int]:
    # a + b in {88, 89}: every transposition code lies in [3916, 4094], so
    # the bit length of an eta code depends on its length, not on the seed
    s = rng.choice((88, 89))
    a = rng.randrange(s + 1)
    if 2 * a == s:
        a += 1
    return a, s - a


def j_eta(ts: list[tuple[int, int]]) -> int:
    codes = [cantor(a, b) for a, b in ts]
    acc = codes[-1]
    for v in reversed(codes[:-1]):
        acc = cantor(v, acc)
    return cantor(len(codes), acc)


# base permutations: (text, own forward map, own inverse, finite-cycle test)
def _zig_fwd(x: int) -> int:
    if x % 2:
        return x
    return 2 * zigzag(delta_inv(x // 2) + 1)


def _zig_bwd(x: int) -> int:
    if x % 2:
        return x
    return 2 * zigzag(delta_inv(x // 2) - 1)


def _delta_succ(x: int) -> int:
    return zigzag(delta_inv(x) + 1)


def _delta_pred(x: int) -> int:
    return zigzag(delta_inv(x) - 1)


def _eo_fwd(x: int) -> int:
    return 2 * zigzag(delta_inv(x // 2) + 1) + x % 2


def _eo_bwd(x: int) -> int:
    return 2 * zigzag(delta_inv(x // 2) - 1) + x % 2


# name -> (input, own forward map, own inverse, own finite-cycle test, the
# serialized relation the caller turns into the cycle witness, as the CLI does)
PR_BASES = {
    "zigzag": (j_piecewise(class_rules(0, 2, normal=True)),
               _zig_fwd, _zig_bwd, lambda x: x % 2 == 1, None),
    "delta_succ": ({"kind": "delta_succ"},
                   _delta_succ, _delta_pred, lambda x: False, None),
    "identity": ({"kind": "identity"},
                 lambda x: x, lambda x: x, lambda x: True, {"kind": "singletons"}),
    "evens_odds": (j_piecewise(class_rules(0, 2, True) + class_rules(1, 2, True)),
                   _eo_fwd, _eo_bwd, lambda x: False, {"kind": "modulo", "m": "2"}),
}
PR_BASE_ORDER = ("zigzag", "delta_succ", "evens_odds", "identity")


def brute_components(fwd: Callable[[int], int], bwd: Callable[[int], int],
                     points: list[int], cap: int) -> tuple[dict[int, int], dict[int, bool]]:
    """Cycle id and finiteness of each point, by walking the composed map:
    a walk that returns within cap is a finite cycle; otherwise the points
    reached within cap steps either way share the point's infinite cycle."""
    comp: dict[int, int] = {}
    finite: dict[int, bool] = {}
    for x in points:
        if x in comp:
            continue
        seen = [x]
        cur = fwd(x)
        while cur != x and len(seen) < cap:
            seen.append(cur)
            cur = fwd(cur)
        closed = cur == x
        if not closed:
            cur = x
            for _ in range(cap):
                cur = bwd(cur)
                seen.append(cur)
        for v in seen:
            comp.setdefault(v, x)
            finite.setdefault(v, closed)
    return comp, finite


def _pr_eq(base: str) -> dict:
    text, _, _, _, eq = PR_BASES[base]
    # one infinite cycle at most: the cycle partition itself is the witness
    return eq or {"kind": "cycle_eq_of", "perm": text, "strategy": "one_infinite", "reps": []}


def plan_products(seed: int) -> Plan:
    rng = random.Random(f"products/{seed}")
    texts = {name: _text(base[0]) for name, base in PR_BASES.items()}
    texts.update({f"{name}_eq": _text(_pr_eq(name)) for name in PR_BASES})
    ops: list[Op] = []
    sizes = [(a, 0) for a in PR_DECODE_SIZES]
    sizes += [(PR_QUERIED_SIZES[i % 8], PR_DECIDES) for i in range(PR_QUERIED_BUILDS)]
    for i, (a_size, decides) in enumerate(sizes):
        base = PR_BASE_ORDER[i % len(PR_BASE_ORDER)]
        _, ffwd, fbwd, _, _ = PR_BASES[base]
        a_ts = [_pr_transposition(rng) for _ in range(a_size)]
        b_ts = [_pr_transposition(rng) for _ in range(PR_QUERIED_SIZES[(i // 8 + i) % 8])]
        name = f"p{i}"
        ops.append(Op("product", (name, base, j_eta(a_ts), j_eta(b_ts)), "compose"))
        if not decides:
            continue

        def fwd(x, a=a_ts, b=b_ts, f=ffwd):
            return apply_ts(a, f(apply_ts(b, x)))

        def bwd(x, a=a_ts, b=b_ts, f=fbwd):
            return apply_ts(b, f(apply_ts(a, x, True)), True)

        points = sorted(rng.sample(range(PR_QUERY_POINTS), decides + 1)
                        + [p for t in a_ts[:2] for p in t])
        comp, finite = brute_components(fwd, bwd, points, PR_WALK_CAP)
        pairs = [(rng.choice(points), rng.choice(points)) for _ in range(decides)]
        ops += [Op("decide", (name, u, v), comp[u] == comp[v]) for u, v in pairs]
        ops += [Op("cf", (name, u), finite[u]) for u in rng.sample(points, PR_CF)]
    # most of a round's time is eta decoding, big-integer arithmetic
    return Plan(texts, ops, yardstick="bigint")


# ---------------------------------------------------------------------------
# the library calls an op makes; env holds the loaded inputs of one round and
# what the ops build from them


def _eq_witness(pd, eq, f):
    # the witness a caller builds from a serialized relation, as the CLI does
    return pd.CycleWitness(pd.DECIDER, lambda a, b, fu=None: pd.eq_decide(eq, a, b, fu), f)


def _call_normalize(pd, env, dest, f, eq):
    fp = pd.normalize(env[f], _eq_witness(pd, env[eq], env[f]), eq=env[eq])
    env[dest] = fp
    return fp.kind


def _call_perm_from_rho(pd, env, dest, eq, rho):
    env[dest] = pd.perm_from_rho(env[eq], env[rho])
    return env[dest].kind


def _call_seminormal_from_rho(pd, env, dest, eq, rho):
    env[dest] = pd.seminormal_from_rho(env[eq], env[rho])
    return env[dest].kind


def _call_conjugator(pd, env, dest, f, g, eq):
    env[dest] = pd.conjugator_same_partition(env[f], env[g], _eq_witness(pd, env[eq], env[f]))
    return env[dest].kind


def _call_product(pd, env, dest, base, a_code, b_code):
    f = env[base]
    finite = PR_BASES[base][3]
    w = _eq_witness(pd, env[f"{base}_eq"], f)
    expr, wp, cf = pd.finitary_product(a_code, f, b_code, w, finite)
    env[dest] = (wp.payload, cf)
    return expr.kind


CALLS = {
    "eval": lambda pd, env, p, x: pd.perm_eval(env[p], x),
    "eval_inv": lambda pd, env, p, x: pd.perm_eval_inv(env[p], x),
    "normal_min": lambda pd, env, p, x: pd.normal_min(env[p], x),
    "normalize": _call_normalize,
    "perm_from_rho": _call_perm_from_rho,
    "seminormal_from_rho": _call_seminormal_from_rho,
    "conjugator": _call_conjugator,
    "product": _call_product,
    "decide": lambda pd, env, p, u, v: env[p][0](u, v),
    "cf": lambda pd, env, p, u: env[p][1](u),
}


PLANS = {
    "cd2cf": plan_cd2cf,
    "halting": plan_halting,
    "normalform": plan_normalform,
    "products": plan_products,
}
