"""Permutations whose cycle structure encodes the halting behavior of a
tiny two-register machine.

cf_hard_perm() groups the pair <program, step> with its neighbours while
the program is still running, so the cycle of <x, 0> is finite exactly
when program x halts on its own code.
"""

from permdec import machine, pair, perm_eval
from permdec import gadgets as gd


def walk_cycle(p, start, cap=60):
    out = [start]
    v = perm_eval(p, start)
    while v != start and len(out) < cap:
        out.append(v)
        v = perm_eval(p, v)
    return out, v == start


def main() -> None:
    p = gd.cf_hard_perm()

    label, code = gd.halting_fixtures()[0]
    steps = machine.halting_step(code, 5000)
    cycle, closed = walk_cycle(p, pair(code, 0))
    print(f"halting program {label!r} (code {code}) stops at step {steps}")
    print(f"  its embedded cycle closes: {closed}, length {len(cycle)}")

    label, code = gd.looping_fixtures()[0]
    cycle, closed = walk_cycle(p, pair(code, 0))
    print(f"\nlooping program {label!r} (code {code})")
    print(f"  after {len(cycle)} steps the embedded cycle has not closed")

    # finite cycles of any permutation can be forced to odd lengths
    from permdec import Transposition
    gadget, embed = gd.odd_length_gadget(Transposition(0, 1))
    cycle, _ = walk_cycle(gadget, embed(0))
    print(f"\nthe 2-cycle (0 1) stretches to odd length {len(cycle)}: {cycle}")


if __name__ == "__main__":
    main()
