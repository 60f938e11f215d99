"""Command-line front end.

Exit codes: 0 success, 1 malformed input, 2 precondition violation,
3 fuel exhausted.  All output is deterministic: identical invocations
produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import sys

from .core import Fuel, FuelExhausted, PreconditionViolation
from .equivalence import EqExpr, eq_decide
from .permutation import (
    PermExpr,
    Transposition,
    Identity,
    perm_eval,
    perm_eval_inv,
    even_zigzag,
    orbit_window,
)
from . import cycles as cyc
from .normalform import normalize
from .conjugacy import conjugator_from_isomorphism, conjugator_same_partition
from . import gadgets as gd
from . import machine
from . import selfcheck
from .serialize import SerializationError, dumps, load

DEFAULT_FUEL = 1_000_000

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_PRECONDITION = 2
EXIT_FUEL = 3


class _Malformed(Exception):
    pass


def _load(path: str, cls: type, what: str):
    try:
        obj = load(path)
    except (OSError, SerializationError) as exc:
        raise _Malformed(str(exc))
    if not isinstance(obj, cls):
        raise _Malformed(f"{path} does not describe {what}")
    return obj


def _natural(text: str) -> int:
    try:
        v = int(text, 10)
    except ValueError:
        raise _Malformed(f"not a natural number: {text!r}")
    if v < 0:
        raise _Malformed(f"not a natural number: {text!r}")
    return v


def _cmd_eval(args) -> int:
    p = _load(args.perm, PermExpr, "a permutation")
    x = _natural(args.x)
    fuel = Fuel(args.fuel)
    v = perm_eval_inv(p, x, fuel) if args.inv else perm_eval(p, x, fuel)
    print(v)
    return EXIT_OK


def _cmd_orbit(args) -> int:
    p = _load(args.perm, PermExpr, "a permutation")
    x = _natural(args.x)
    for k, v in orbit_window(p, x, args.steps, Fuel(args.fuel)):
        print(f"{k}\t{v}")
    return EXIT_OK


def _cmd_decide(args) -> int:
    eq = _load(args.relation, EqExpr, "an equivalence")
    x = _natural(args.x)
    y = _natural(args.y)
    fuel = Fuel(args.fuel)
    print("true" if eq_decide(eq, x, y, fuel) else "false")
    return EXIT_OK


def _cmd_normalize(args) -> int:
    f = _load(args.perm, PermExpr, "a permutation")
    eq = _load(args.witness, EqExpr, "an equivalence")
    w = cyc.eq_witness(eq, f)
    fp = normalize(f, w, eq=eq)
    text = dumps(fp)
    with open(args.output, "w") as fh:
        fh.write(text)
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_conjugate(args) -> int:
    f = _load(args.f, PermExpr, "a permutation")
    g = _load(args.g, PermExpr, "a permutation")
    eq = _load(args.witness, EqExpr, "an equivalence")
    w = cyc.eq_witness(eq, f)
    if args.iso:
        theta = _load(args.iso, PermExpr, "a permutation")
        h = conjugator_from_isomorphism(f, g, theta, w, eq=eq)
    else:
        h = conjugator_same_partition(f, g, w, eq=eq)
    fuel = Fuel(args.fuel)
    window = 50
    bad = [x for x in range(window)
           if perm_eval(f, x, fuel)
           != perm_eval_inv(h, perm_eval(g, perm_eval(h, x, fuel), fuel), fuel)]
    try:
        print(dumps(h), end="")
    except SerializationError:
        print(f'{{"kind": "{h.kind}", "note": "runtime-only expression"}}')
    print(f"window-checked: {window}")
    print(f"mismatches: {len(bad)}")
    return EXIT_OK if not bad else EXIT_PRECONDITION


def _cmd_gadget(args) -> int:
    mode = args.mode
    if mode == "halting":
        for label, code in gd.halting_fixtures():
            steps = machine.halting_step(code, 5000)
            print(f"{label}\tcode={code}\thalts-at={steps}")
        for label, code in gd.looping_fixtures():
            cert = machine.certify_loops_forever(code)
            print(f"{label}\tcode={code}\tloops-forever={'yes' if cert else 'no'}")
        return EXIT_OK
    if mode == "oddlength":
        g = Transposition(0, 1)
        gadget, j = gd.odd_length_gadget(g)
        cur = j(0)
        trace = [cur]
        for _ in range(5):
            cur = perm_eval(gadget, cur)
            trace.append(cur)
        print("base: transposition (0 1)")
        print("cycle of j(0): " + " -> ".join(str(v) for v in trace))
        return EXIT_OK
    if mode == "interred-cd2cf":
        f = Transposition(0, 1)
        red, embed = gd.reduce_cd_to_cf(f)
        for x, y in [(0, 1), (0, 2)]:
            cur = embed(x, y)
            seen = [cur]
            closed = False
            for _ in range(12):
                cur = perm_eval(red, cur)
                if cur == seen[0]:
                    closed = True
                    break
                seen.append(cur)
            verdict = "finite" if closed else "infinite"
            print(f"block of embed({x},{y}): {verdict} "
                  f"({len(seen)} element(s) walked)")
        return EXIT_OK
    if mode == "interred-cf2cd":
        g = Transposition(0, 1)
        f2, j, jp = gd.reduce_cf_to_cd(g)
        cur = j(0)
        target = jp(0)
        hops = 0
        while cur != target and hops < 20:
            cur = perm_eval(f2, cur)
            hops += 1
        print(f"j(0)={j(0)} reaches j'(0)={target} in {hops} square step(s)")
        return EXIT_OK
    # conjreduction
    ident = Identity()
    w = cyc.CycleWitness(cyc.DECIDER, lambda a, b, fu=None: a == b, ident)
    f1, _ = gd.conj_reduction_perm(ident, w, 0)
    fixed = all(perm_eval(f1, u) == u for u in range(50))
    print(f"identity base: pointwise identity on [0,50): {'yes' if fixed else 'no'}")
    g0 = even_zigzag()
    eq = selfcheck.evens_block_eq()
    wg = cyc.eq_witness(eq, g0)
    f2, w2 = gd.conj_reduction_perm(g0, wg, 0, eq=eq)
    members = [u for u in range(30) if w2.payload(0, u)]
    print("evens base: block of 0 starts " + ", ".join(str(u) for u in members))
    return EXIT_OK


def _cmd_dot(args) -> int:
    p = _load(args.perm, PermExpr, "a permutation")
    fuel = Fuel(args.fuel)
    lines = ["digraph permutation {"]
    sink_needed = False
    for x in range(args.window):
        y = perm_eval(p, x, fuel)
        if y < args.window:
            lines.append(f'  "{x}" -> "{y}";')
        else:
            sink_needed = True
            lines.append(f'  "{x}" -> "…";')
    if sink_needed:
        lines.append('  "…" [shape=plaintext];')
    lines.append("}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    names = [args.suite] if args.suite else None
    results = selfcheck.run_all(names)
    failures = 0
    for suite, label, ok in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}\t{suite}\t{label}")
        if not ok:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_PRECONDITION


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="permdec",
        description="computable permutations with decidable cycle structure")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_fuel(p):
        p.add_argument("--fuel", type=int, default=DEFAULT_FUEL,
                       help="probe budget (default 1000000)")

    p = sub.add_parser("eval", help="apply a permutation to a point")
    p.add_argument("perm")
    p.add_argument("x")
    p.add_argument("--inv", action="store_true", help="apply the inverse")
    add_fuel(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("orbit", help="walk an orbit in zig-zag power order")
    p.add_argument("perm")
    p.add_argument("x")
    p.add_argument("--steps", type=int, default=10)
    add_fuel(p)
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("decide", help="decide whether two points are related")
    p.add_argument("relation")
    p.add_argument("x")
    p.add_argument("y")
    add_fuel(p)
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("normalize", help="emit the normal form of a permutation")
    p.add_argument("perm")
    p.add_argument("--witness", required=True,
                   help="equivalence JSON describing the cycle partition")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("conjugate", help="synthesize a conjugator")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--witness", required=True,
                   help="equivalence JSON for f's cycle partition")
    p.add_argument("--iso", help="permutation JSON mapping f's partition to g's")
    add_fuel(p)
    p.set_defaults(fn=_cmd_conjugate)

    p = sub.add_parser("gadget", help="run a gadget demonstration")
    p.add_argument("mode", choices=["halting", "oddlength", "interred-cd2cf",
                                    "interred-cf2cd", "conjreduction"])
    p.set_defaults(fn=_cmd_gadget)

    p = sub.add_parser("dot", help="export a window of the mapping as DOT")
    p.add_argument("perm")
    p.add_argument("--window", type=int, default=32)
    add_fuel(p)
    p.set_defaults(fn=_cmd_dot)

    p = sub.add_parser("selfcheck", help="run the verification suites")
    p.add_argument("--suite", choices=list(selfcheck.SUITE_ORDER))
    p.set_defaults(fn=_cmd_selfcheck)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_MALFORMED if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except _Malformed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except PreconditionViolation as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except FuelExhausted as exc:
        print(f"fuel exhausted: {exc}", file=sys.stderr)
        return EXIT_FUEL


if __name__ == "__main__":
    sys.exit(main())
