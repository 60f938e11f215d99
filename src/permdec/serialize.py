"""JSON codec for expression trees.

Every node serializes to {"kind": <constructor-name>, ...fields} with all
integers rendered as decimal strings, so files survive readers with 64-bit
number ceilings.  Opaque wrappers and attached runtime witnesses have no
stable representation and are rejected.
"""

from __future__ import annotations

import json
from typing import Any

from . import equivalence as eqm
from . import gadgets as gdm
from . import normalform as nfm
from . import permutation as pmm

class SerializationError(Exception):
    pass


def _n(v: int) -> str:
    return str(int(v))


def _i(s: Any) -> int:
    if isinstance(s, bool):
        raise SerializationError("expected an integer string")
    if isinstance(s, int):
        return s
    if isinstance(s, str):
        try:
            return int(s, 10)
        except ValueError:
            raise SerializationError(f"not a decimal integer: {s!r}")
    raise SerializationError(f"expected an integer string, got {type(s).__name__}")


# ---------------------------------------------------------------------------
# encoding


def to_jsonable(obj: Any) -> dict:
    t = type(obj)
    enc = _ENCODERS.get(t)
    if enc is None:
        raise SerializationError(f"{t.__name__} has no serialized form")
    return enc(obj)


def _enc_rule(r: pmm.Rule) -> dict:
    return {"modulus": _n(r.modulus), "residue": _n(r.residue),
            "kind": r.kind, "a": _n(r.a), "b": _n(r.b)}


def _dec_rule(d: dict) -> pmm.Rule:
    return pmm.Rule(_i(d["modulus"]), _i(d["residue"]), d["kind"],
                    _i(d["a"]), _i(d["b"]))


def _enc_cycle_eq(e: eqm.CycleEqOf) -> dict:
    if e.strategy == "attached":
        raise SerializationError("attached cycle witnesses are runtime-only")
    return {"kind": "cycle_eq_of", "perm": to_jsonable(e.perm),
            "strategy": e.strategy, "reps": [_n(r) for r in e.reps]}


_ENCODERS = {
    # functions
    eqm.ConstFun: lambda e: {"kind": "const", "c": _n(e.c)},
    eqm.IdentityFun: lambda e: {"kind": "identity_fun"},
    eqm.ModFun: lambda e: {"kind": "mod", "m": _n(e.m)},
    eqm.TableThenIdentity: lambda e: {
        "kind": "table_then_identity",
        "table": [[_n(k), _n(v)] for k, v in sorted(e.table.items())]},
    eqm.HaltingLabel: lambda e: {"kind": "halting_label",
                                 "variant": e.variant, "code": _n(e.code)},
    # equivalences
    eqm.Singletons: lambda e: {"kind": "singletons"},
    eqm.Full: lambda e: {"kind": "full"},
    eqm.Modulo: lambda e: {"kind": "modulo", "m": _n(e.m)},
    eqm.FibersOf: lambda e: {"kind": "fibers_of", "fun": to_jsonable(e.fun)},
    eqm.CycleEqOf: _enc_cycle_eq,
    eqm.ImageEq: lambda e: {"kind": "image", "base": to_jsonable(e.base),
                            "h": to_jsonable(e.h)},
    eqm.CoproductEq: lambda e: {"kind": "coproduct",
                                "family": to_jsonable(e.family)},
    eqm.PiXY: lambda e: {"kind": "pi_xy", "f": to_jsonable(e.f),
                         "x": _n(e.x), "y": _n(e.y)},
    # families
    eqm.ConstantFamily: lambda e: {"kind": "constant_family",
                                   "eq": to_jsonable(e.eq)},
    eqm.HaltingFamily: lambda e: {"kind": "halting_family", "variant": e.variant},
    eqm.PiXYFamily: lambda e: {"kind": "pi_xy_family", "f": to_jsonable(e.f)},
    # permutations
    pmm.Identity: lambda e: {"kind": "identity"},
    pmm.Transposition: lambda e: {"kind": "transposition",
                                  "a": _n(e.a), "b": _n(e.b)},
    pmm.FinitaryProduct: lambda e: {
        "kind": "finitary_product",
        "transpositions": [[_n(a), _n(b)] for a, b in e.transpositions]},
    pmm.DeltaSucc: lambda e: {"kind": "delta_succ"},
    pmm.PiecewiseResidue: lambda e: {
        "kind": "piecewise_residue",
        "rules": [_enc_rule(r) for r in e.rules],
        "check_window": _n(e.check_window)},
    pmm.TranspositionTimes: lambda e: {"kind": "transposition_times",
                                       "x": _n(e.x), "y": _n(e.y),
                                       "base": to_jsonable(e.base)},
    pmm.Compose: lambda e: {"kind": "compose", "f": to_jsonable(e.f),
                            "g": to_jsonable(e.g)},
    pmm.Inverse: lambda e: {"kind": "inverse", "f": to_jsonable(e.f)},
    pmm.NormalFromSet: lambda e: {"kind": "normal_from_set",
                                  "eq": to_jsonable(e.eq), "rep": _n(e.rep)},
    pmm.FromRho: lambda e: {"kind": "from_rho", "eq": to_jsonable(e.eq),
                            "rho": to_jsonable(e.rho)},
    pmm.SeminormalFromRho: lambda e: {"kind": "seminormal_from_rho",
                                      "eq": to_jsonable(e.eq),
                                      "rho": to_jsonable(e.rho)},
    pmm.CoproductPerm: lambda e: {"kind": "coproduct_perm",
                                  "family": to_jsonable(e.family),
                                  "rho": to_jsonable(e.rho)},
    pmm.ConjugatorSamePartition: lambda e: {
        "kind": "conjugator_same_partition", "f": to_jsonable(e.f),
        "g": to_jsonable(e.g), "eq": to_jsonable(e.eq)},
    gdm.OddLengthGadget: lambda e: {"kind": "odd_length_gadget",
                                    "g": to_jsonable(e.g)},
    gdm.InterredCFPerm: lambda e: {"kind": "interred_cf", "f": to_jsonable(e.f)},
    gdm.ConjReductionPerm: lambda e: {"kind": "conj_reduction",
                                      "f": to_jsonable(e.f),
                                      "eq": to_jsonable(e.base), "x": _n(e.x)},
    nfm.SeminormalToNormal: lambda e: {"kind": "seminormal_to_normal",
                                       "f": to_jsonable(e.f)},
    # rho expressions
    nfm.RhoConst: lambda e: {"kind": "rho_const", "value": e.value},
    nfm.RhoClosure: lambda e: {"kind": "rho_closure", "f": to_jsonable(e.f),
                               "eq": to_jsonable(e.eq)},
    nfm.RhoFromNormal: lambda e: {"kind": "rho_from_normal",
                                  "fprime": to_jsonable(e.fprime)},
    nfm.RhoCardConst: lambda e: {"kind": "rho_card_const", "c": _n(e.c)},
    nfm.RhoCardForBlocks: lambda e: {
        "kind": "rho_card_for_blocks", "eq": to_jsonable(e.eq),
        "reps_with_cards": [[_n(r), _n(c)] for r, c in e.reps_with_cards]},
    gdm.RhoHaltingCF: lambda e: {"kind": "rho_halting_cf"},
    gdm.RhoPiXY: lambda e: {"kind": "rho_pi_xy", "f": to_jsonable(e.f)},
}


# ---------------------------------------------------------------------------
# decoding


def from_jsonable(d: Any) -> Any:
    if not isinstance(d, dict) or "kind" not in d:
        raise SerializationError("expected an object with a 'kind' field")
    dec = _DECODERS.get(d["kind"])
    if dec is None:
        raise SerializationError(f"unknown kind {d['kind']!r}")
    try:
        return dec(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed {d['kind']!r} node: {exc}")


_DECODERS = {
    "const": lambda d: eqm.ConstFun(_i(d["c"])),
    "identity_fun": lambda d: eqm.IdentityFun(),
    "mod": lambda d: eqm.ModFun(_i(d["m"])),
    "table_then_identity": lambda d: eqm.TableThenIdentity(
        {_i(k): _i(v) for k, v in d["table"]}),
    "halting_label": lambda d: eqm.HaltingLabel(d["variant"], _i(d["code"])),
    "singletons": lambda d: eqm.Singletons(),
    "full": lambda d: eqm.Full(),
    "modulo": lambda d: eqm.Modulo(_i(d["m"])),
    "fibers_of": lambda d: eqm.FibersOf(from_jsonable(d["fun"])),
    "cycle_eq_of": lambda d: eqm.CycleEqOf(
        from_jsonable(d["perm"]), d.get("strategy", "one_infinite"),
        [_i(r) for r in d.get("reps", [])]),
    "image": lambda d: eqm.ImageEq(from_jsonable(d["base"]),
                                   from_jsonable(d["h"])),
    "coproduct": lambda d: eqm.CoproductEq(from_jsonable(d["family"])),
    # the old name of the halting coproduct, still read
    "halting_blocks": lambda d: eqm.CoproductEq(eqm.HaltingFamily(d["variant"])),
    "pi_xy": lambda d: eqm.PiXY(from_jsonable(d["f"]), _i(d["x"]), _i(d["y"])),
    "constant_family": lambda d: eqm.ConstantFamily(from_jsonable(d["eq"])),
    "halting_family": lambda d: eqm.HaltingFamily(d["variant"]),
    "pi_xy_family": lambda d: eqm.PiXYFamily(from_jsonable(d["f"])),
    "identity": lambda d: pmm.Identity(),
    "transposition": lambda d: pmm.Transposition(_i(d["a"]), _i(d["b"])),
    "finitary_product": lambda d: pmm.FinitaryProduct(
        [(_i(a), _i(b)) for a, b in d["transpositions"]]),
    "delta_succ": lambda d: pmm.DeltaSucc(),
    "piecewise_residue": lambda d: pmm.PiecewiseResidue(
        [_dec_rule(r) for r in d["rules"]],
        check_window=_i(d.get("check_window", 10_000))),
    "transposition_times": lambda d: pmm.TranspositionTimes(
        _i(d["x"]), _i(d["y"]), from_jsonable(d["base"])),
    "compose": lambda d: pmm.Compose(from_jsonable(d["f"]),
                                     from_jsonable(d["g"])),
    "inverse": lambda d: pmm.Inverse(from_jsonable(d["f"])),
    "normal_from_set": lambda d: pmm.NormalFromSet(from_jsonable(d["eq"]),
                                                   _i(d["rep"])),
    "from_rho": lambda d: pmm.FromRho(from_jsonable(d["eq"]),
                                      from_jsonable(d["rho"])),
    "seminormal_from_rho": lambda d: pmm.SeminormalFromRho(
        from_jsonable(d["eq"]), from_jsonable(d["rho"])),
    "coproduct_perm": lambda d: pmm.CoproductPerm(from_jsonable(d["family"]),
                                                  from_jsonable(d["rho"])),
    "conjugator_same_partition": lambda d: pmm.ConjugatorSamePartition(
        from_jsonable(d["f"]), from_jsonable(d["g"]), from_jsonable(d["eq"])),
    "odd_length_gadget": lambda d: gdm.OddLengthGadget(from_jsonable(d["g"])),
    "interred_cf": lambda d: gdm.InterredCFPerm(from_jsonable(d["f"])),
    "conj_reduction": lambda d: gdm.ConjReductionPerm(
        from_jsonable(d["f"]), from_jsonable(d["eq"]), _i(d["x"])),
    "seminormal_to_normal": lambda d: nfm.SeminormalToNormal(
        from_jsonable(d["f"])),
    "rho_const": lambda d: nfm.RhoConst(bool(d["value"])),
    "rho_closure": lambda d: nfm.RhoClosure(from_jsonable(d["f"]),
                                            from_jsonable(d["eq"])),
    "rho_from_normal": lambda d: nfm.RhoFromNormal(from_jsonable(d["fprime"])),
    "rho_card_const": lambda d: nfm.RhoCardConst(_i(d["c"])),
    "rho_card_for_blocks": lambda d: nfm.RhoCardForBlocks(
        from_jsonable(d["eq"]),
        [(_i(r), _i(c)) for r, c in d["reps_with_cards"]]),
    "rho_halting_cf": lambda d: gdm.RhoHaltingCF(),
    "rho_pi_xy": lambda d: gdm.RhoPiXY(from_jsonable(d["f"])),
}


# ---------------------------------------------------------------------------
# text round trips


def dumps(obj: Any) -> str:
    """Stable textual form: sorted keys, no insignificant whitespace drift."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def loads(text: str) -> Any:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}")
    return from_jsonable(data)


def dump(obj: Any, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def load(path: str) -> Any:
    with open(path) as fh:
        return loads(fh.read())
