import random
import time

from hypothesis import given, strategies as st

from permdec import gadgets as gd
from permdec import machine
from permdec.core import pair, unpair
from permdec.equivalence import HaltingLabel
from permdec.machine import DECJZ, HALT, INC, program
from permdec.permutation import perm_eval
from permdec.serialize import dumps, loads


def test_every_natural_decodes():
    for z in range(500):
        p = machine.decode_program(z)
        for ins in p.instrs:
            assert ins.op in (INC, DECJZ, HALT)
            assert ins.reg in (0, 1)
            assert 0 <= ins.target <= len(p)


@given(st.lists(st.one_of(
    st.tuples(st.just(INC), st.integers(0, 1)),
    st.tuples(st.just(DECJZ), st.integers(0, 1), st.integers(0, 6)),
    st.tuples(st.just(HALT))), max_size=6))
def test_encode_decode_roundtrip(instrs):
    # clamp targets into the decodable range before comparing
    p = program(*instrs)
    z = machine.encode_program(p)
    q = machine.decode_program(z)
    assert len(q) == len(p)
    for a, b in zip(p.instrs, q.instrs):
        assert b.op == a.op
        if a.op != HALT:
            assert b.reg == a.reg
        if a.op == DECJZ:
            assert b.target == a.target % (len(p) + 1)


def test_countdown_halts_in_exactly_code_plus_one_steps():
    # a single in-place drain counts register 0 (its own code) to zero,
    # then the zero test jumps off the end
    code = machine.encode_program(program((DECJZ, 0, 1)))
    assert machine.halting_step(code, code + 5) == code + 1
    assert not machine.halts_within(code, code)
    assert machine.halts_within(code, code + 1)


def test_nothing_halts_within_zero_steps():
    code = machine.encode_program(program((HALT,)))
    assert not machine.halts_within(code, 0)
    assert machine.halts_within(code, 1)


def test_empty_program_halts_immediately():
    code = machine.encode_program(program())
    assert machine.halting_step(code, 5) == 1


def test_halts_within_is_monotone():
    for z in range(120):
        prev = False
        for n in range(25):
            cur = machine.halts_within(z, n)
            assert cur or not prev
            prev = cur


def test_loop_certificate_requires_a_loop():
    spin = machine.encode_program(program((DECJZ, 1, 0)))
    halt = machine.encode_program(program((HALT,)))
    assert machine.certify_loops_forever(spin)
    assert not machine.certify_loops_forever(halt)


def test_halting_step_none_when_capped():
    spin = machine.encode_program(program((DECJZ, 1, 0)))
    assert machine.halting_step(spin, 500) is None


# ---------------------------------------------------------------------------
# a from-scratch reference: instructions are read straight off the code by
# unpairing, without decode_program, so it also runs on codes whose
# programs are far too long to list


def _ref_instr(z, ip):
    """(op, reg, target) of instruction ip < length of program z, with the
    fields an instruction does not use set to 0, as in Instr."""
    n, payload = unpair(z)
    for _ in range(ip):
        payload = unpair(payload)[1]
    code = payload if ip == n - 1 else unpair(payload)[0]
    op, arg = unpair(code)
    r, t = unpair(arg)
    return [(INC, arg % 2, 0), (DECJZ, r % 2, t % (n + 1)), (HALT, 0, 0)][op % 3]


def _ref_halting_step(z, cap):
    length = unpair(z)[0]
    ip, regs = 0, [z, 0]
    for t in range(1, cap + 1):
        if ip < length:
            op, reg, target = _ref_instr(z, ip)
            if op == INC:
                regs[reg] += 1
                ip += 1
            elif op == DECJZ:
                if regs[reg] == 0:
                    ip = target
                else:
                    regs[reg] -= 1
        if ip >= length or _ref_instr(z, ip)[0] == HALT:
            return t
    return None


N_MAX = 120


def _agreement_codes():
    fixtures = [c for _, c in gd.halting_fixtures() + gd.looping_fixtures()]
    return fixtures + list(range(300))


def _query_orders(code):
    rng = random.Random(code)
    up = list(range(N_MAX + 1))
    shuffled = up + up
    rng.shuffle(shuffled)
    return {"increasing": up, "decreasing": up[::-1],
            "repeated": [n for n in up for _ in range(3)], "random": shuffled}


def test_run_agrees_with_a_from_scratch_reference():
    for code in _agreement_codes():
        h = _ref_halting_step(code, N_MAX)
        assert machine.halting_step(code, N_MAX) == h, code
        for name, order in _query_orders(code).items():
            run = machine.Run(code)
            for n in order:
                assert run.halts_within(n) == (h is not None and h <= n), (code, name, n)
            assert run.halted_at == h, (code, name)


def test_halting_labels_agree_with_the_reference():
    for code in _agreement_codes():
        h = _ref_halting_step(code, N_MAX)
        halted = [h is not None and h <= n for n in range(N_MAX + 1)]
        order = _query_orders(code)["random"]
        cf, shifted = HaltingLabel("cf", code), HaltingLabel("nonpermutable", code)
        for n in order:
            assert cf(n) == int(halted[n]), (code, n)
            assert shifted(n) == (1 if n == 0 else int(halted[n - 1])), (code, n)


def _fields(ins):
    return ins.op, ins.reg, ins.target


def test_decode_reads_only_the_nonzero_prefix():
    for z in (10**9, 10**14, 10**40):
        p = machine.decode_program(z)
        assert p.length == unpair(z)[0]
        assert len(p.listed) < 10
        for ip in list(range(12)) + [p.length - 2, p.length - 1]:
            if ip < 50_000:
                assert _fields(p.instr(ip)) == _ref_instr(z, ip), (z, ip)
    for z in range(3000):
        p = machine.decode_program(z)
        ref = [_ref_instr(z, ip) for ip in range(p.length)]
        assert [_fields(p.instr(ip)) for ip in range(p.length)] == ref, z
        assert [_fields(i) for i in p.instrs] == ref, z
        assert machine.decode_program(machine.encode_program(p)).instrs == p.instrs, z


def test_padded_programs_encode_without_pairing_the_pad():
    # a decoded program ends in code 0 or 1, and pair(0, c) == c for those,
    # so its run of INC 0 codes costs nothing; 10**40 has ~9.5 * 10**19
    # instructions, more than len() can report
    for z in (10**14, 10**40):
        p = machine.decode_program(z)
        assert p.pad > 0
        t0 = time.perf_counter()
        code = machine.encode_program(p)
        assert machine.decode_program(code) == p
        assert time.perf_counter() - t0 < 0.05
    # a hand-built pad before a larger code is still paired on, exactly
    p = machine.ToyProgram((machine.Instr(HALT),), pad=3)
    assert machine.decode_program(machine.encode_program(p)).instrs == p.instrs


def test_huge_code_halts_within_in_milliseconds():
    z = 10**40
    t0 = time.perf_counter()
    got = machine.halts_within(z, 50)
    elapsed = time.perf_counter() - t0
    assert got == (_ref_halting_step(z, 50) is not None)
    assert elapsed < 0.5
    t0 = time.perf_counter()
    perm_eval(gd.cf_hard_perm(), pair(10**14, 0))
    assert time.perf_counter() - t0 < 0.5


def _count_steps(monkeypatch):
    calls = [0]
    real = machine.step

    def counting(p, c):
        calls[0] += 1
        return real(p, c)

    monkeypatch.setattr(machine, "step", counting)
    return calls


WALK = 100


def test_cf_hard_perm_walk_makes_linear_machine_work(monkeypatch):
    # FromRho moves an element of index k to index k + 2 (or k - 2) of its
    # block, so WALK steps from <looper, 0> reach index 2 * WALK.  The block
    # scan's HaltingLabel and the rho share one Run per code, which simulates
    # up to about two transitions past the highest index; from step 0 per
    # query, the same walk costs tens of thousands.
    looper = gd.looping_fixtures()[0][1]
    calls = _count_steps(monkeypatch)
    counts = []
    for _ in range(2):
        calls[0] = 0
        f = loads(dumps(gd.cf_hard_perm()))
        x = pair(looper, 0)
        for _ in range(WALK):
            x = perm_eval(f, x)
        assert unpair(x) == (looper, 2 * WALK)
        counts.append(calls[0])
    # every transition goes through machine.step, and only the needed ones
    assert 2 * WALK <= counts[0] <= 2 * (2 * WALK + 2)
    # each transition is simulated once, not once per Run
    assert counts[0] <= 2 * WALK + 2 + 8
    # a second fresh load pays again: no simulation is shared between loads
    assert counts[1] == counts[0]
