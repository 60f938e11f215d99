"""A tiny deterministic two-register machine with a total program numbering.

Instruction set:
  INC(r)        increment register r, advance the instruction pointer
  DECJZ(r, t)   if register r is zero jump to label t, otherwise decrement r
                (the pointer stays put while draining, so a single DECJZ
                counts a register down to zero by itself)
  HALT          self-loop; a machine resting on HALT is halted

Every natural number decodes to a program: the opcode is read modulo 3,
registers modulo 2 and jump targets modulo (program length + 1), so invalid
tails normalize instead of failing.  Position len(program) acts as a virtual
HALT, which also gives the empty program well-defined behaviour.

Runs always start from the program's own code in register 0 and zero in
register 1.  A run "halts within n steps" if some transition t with
1 <= t <= n lands on (or stays on) a HALT position; in particular nothing
halts within 0 steps, since even a HALT at the entry point costs the one
transition that observes it.

A decoded program does not hold every instruction.  Unpairing shrinks the
payload to a fixed point, 0 or 1, in O(log log z) steps, and every code read
after that is 0, i.e. INC 0.  So decode_program keeps the instructions read
before the fixed point and the last one, and stores the run of INC 0 between
them as a count (ToyProgram.pad); a code near 10**14 has ~1.7 million
instructions but decodes to a handful.

Run(x) is one resumable simulation of program x on its own code.  It keeps
the current configuration and, once seen, the halting step, so
halts_within(n) only simulates past the furthest step reached so far: asking
for n = 0, 1, ..., N in any order costs N transitions in all, not O(N**2).
Each transition goes through the module's step function and spends one
unit of the caller's Fuel, so a walk over a program that loops stops at the
caller's budget instead of simulating up to the queried index.  halts_within,
halting_step and certify_loops_forever are thin wrappers over a fresh Run;
a caller that asks many questions about one code keeps its own Run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import Fuel, pair, unpair

INC = "INC"
DECJZ = "DECJZ"
HALT = "HALT"


@dataclass(frozen=True)
class Instr:
    op: str
    reg: int = 0
    target: int = 0


_INC0 = Instr(INC, 0)


@dataclass(frozen=True)
class ToyProgram:
    """A program of `length` instructions.  `listed` holds them, except
    that a run of `pad` INC 0 instructions, not stored, sits before the
    last listed one.  instr(ip) reads one instruction; `instrs` builds the
    whole tuple, which for a decoded code z is ~sqrt(2z) long."""

    listed: tuple[Instr, ...]
    pad: int = 0

    @property
    def length(self) -> int:
        """len(self), also for programs longer than sys.maxsize."""
        return len(self.listed) + self.pad

    def __len__(self) -> int:
        # CPython's len() raises OverflowError past sys.maxsize; read length
        return self.length

    def instr(self, ip: int) -> Instr:
        last = len(self.listed) - 1
        if ip < last:
            return self.listed[ip]
        return _INC0 if ip < last + self.pad else self.listed[-1]

    @property
    def instrs(self) -> tuple[Instr, ...]:
        return self.listed[:-1] + (_INC0,) * self.pad + self.listed[-1:]


@dataclass(frozen=True)
class MachineConfig:
    ip: int
    r0: int
    r1: int
    steps: int


def _encode_instr(ins: Instr) -> int:
    if ins.op == INC:
        return pair(0, ins.reg)
    if ins.op == DECJZ:
        return pair(1, pair(ins.reg, ins.target))
    return pair(2, 0)


def _decode_instr(code: int, length: int) -> Instr:
    op, arg = unpair(code)
    op %= 3
    if op == 0:
        return Instr(INC, arg % 2)
    if op == 1:
        r, t = unpair(arg)
        return Instr(DECJZ, r % 2, t % (length + 1))
    return Instr(HALT)


def encode_program(p: ToyProgram) -> int:
    """The code of p.  A decoded program's last code is 0 or 1, a fixed point
    of pair(0, .), so its run of INC 0 codes is skipped, not paired on."""
    codes = [_encode_instr(i) for i in p.listed]
    payload = codes[-1] if codes else 0
    pad = p.pad
    while pad and payload > 1:
        payload = pair(0, payload)
        pad -= 1
    for c in reversed(codes[:-1]):
        payload = pair(c, payload)
    return pair(p.length, payload)


def decode_program(z: int) -> ToyProgram:
    """Decode without reading the INC 0 run: once the payload is 0 or 1,
    unpair(payload) == (0, payload), so the remaining codes are 0 up to
    the last one, which is the payload itself."""
    n, payload = unpair(z)
    raw: list[int] = []
    while len(raw) < n - 1 and payload > 1:
        c, payload = unpair(payload)
        raw.append(c)
    if n > 0:
        raw.append(payload)
    return ToyProgram(tuple(_decode_instr(c, n) for c in raw), n - len(raw))


def program(*instrs: Union[Instr, tuple]) -> ToyProgram:
    """Convenience builder accepting Instr values or ("INC", r)-style tuples."""
    out = []
    for i in instrs:
        if isinstance(i, Instr):
            out.append(i)
        else:
            op = i[0]
            if op == INC:
                out.append(Instr(INC, i[1]))
            elif op == DECJZ:
                out.append(Instr(DECJZ, i[1], i[2]))
            else:
                out.append(Instr(HALT))
    return ToyProgram(tuple(out))


def initial_config(code: int) -> MachineConfig:
    return MachineConfig(ip=0, r0=code, r1=0, steps=0)


def _is_halt_position(p: ToyProgram, ip: int) -> bool:
    return ip >= p.length or p.instr(ip).op == HALT


def step(p: ToyProgram, c: MachineConfig) -> MachineConfig:
    """One deterministic transition; HALT positions transition to themselves."""
    if _is_halt_position(p, c.ip):
        return MachineConfig(c.ip, c.r0, c.r1, c.steps + 1)
    ins = p.instr(c.ip)
    r0, r1, ip = c.r0, c.r1, c.ip
    if ins.op == INC:
        if ins.reg == 0:
            r0 += 1
        else:
            r1 += 1
        ip += 1
    else:  # DECJZ
        val = r0 if ins.reg == 0 else r1
        if val == 0:
            ip = ins.target
        elif ins.reg == 0:
            r0 -= 1
        else:
            r1 -= 1
    return MachineConfig(ip, r0, r1, c.steps + 1)


class Run:
    """Program `code` run on its own code, resumable: `config` is the
    furthest configuration simulated so far, and `halted_at` the halting
    step once the run has reached it (None before)."""

    def __init__(self, code: int):
        self.program = decode_program(code)
        self.config = initial_config(code)
        self.halted_at: int | None = None

    def halts_within(self, n: int, fuel: Optional[Fuel] = None) -> bool:
        """Does the run halt within n transitions?  Simulates only the
        transitions past config.steps, and none once halted_at is known,
        spending one unit of fuel on each."""
        fuel = fuel or Fuel()
        p, c = self.program, self.config
        while self.halted_at is None and c.steps < n:
            fuel.spend()
            c = step(p, c)
            self.config = c
            if _is_halt_position(p, c.ip):
                self.halted_at = c.steps
        return self.halted_at is not None and self.halted_at <= n


def halts_within(x: int, n: int, fuel: Optional[Fuel] = None) -> bool:
    """Does program x, run on its own code, halt within n transitions?
    Each transition spends one unit of fuel (a fresh Fuel() if none)."""
    return Run(x).halts_within(n, fuel)


def halting_step(x: int, cap: int, fuel: Optional[Fuel] = None) -> int | None:
    """Exact number of transitions to halt, or None if still running after
    cap.  Each transition spends one unit of fuel (a fresh Fuel() if none)."""
    run = Run(x)
    return run.halted_at if run.halts_within(cap, fuel) else None


def certify_loops_forever(x: int, state_cap: int = 100_000) -> bool:
    """True when the run provably never halts: the reachable configuration set
    is exhausted by a revisit without touching a HALT position."""
    run = Run(x)
    fuel = Fuel(state_cap)
    seen = set()
    for t in range(state_cap):
        c = run.config
        key = (c.ip, c.r0, c.r1)
        if key in seen:
            return True
        seen.add(key)
        if run.halts_within(t + 1, fuel):
            return False
    return False
