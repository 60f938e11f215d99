import json
import subprocess
import sys

import pytest

from permdec import CycleEqOf, Modulo, even_zigzag
from permdec.serialize import dump


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "permdec.cli", *args],
        capture_output=True, text=True)


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    paths = {
        "g": str(d / "g.json"),
        "parity": str(d / "parity.json"),
        "cycles": str(d / "g-cycles.json"),
    }
    dump(even_zigzag(), paths["g"])
    dump(Modulo(2), paths["parity"])
    dump(CycleEqOf(even_zigzag(), "one_infinite"), paths["cycles"])
    paths["dir"] = str(d)
    return paths


def test_eval(fixtures):
    r = run_cli("eval", fixtures["g"], "2")
    assert r.returncode == 0 and r.stdout == "0\n"
    r = run_cli("eval", fixtures["g"], "0", "--inv")
    assert r.returncode == 0 and r.stdout == "2\n"


def test_orbit(fixtures):
    r = run_cli("orbit", fixtures["g"], "0", "--steps", "5")
    assert r.returncode == 0
    assert r.stdout == "0\t0\n-1\t2\n1\t4\n-2\t6\n2\t8\n"


def test_decide(fixtures):
    r = run_cli("decide", fixtures["parity"], "4", "7")
    assert r.returncode == 0 and r.stdout == "false\n"
    r = run_cli("decide", fixtures["cycles"], "0", "8")
    assert r.returncode == 0 and r.stdout == "true\n"


def test_normalize_roundtrip(fixtures):
    out = fixtures["dir"] + "/normal.json"
    r = run_cli("normalize", fixtures["g"], "--witness", fixtures["cycles"],
                "-o", out)
    assert r.returncode == 0
    r2 = run_cli("eval", out, "6")
    assert r2.returncode == 0 and r2.stdout == "2\n"


def test_dot_output_and_stability(fixtures):
    r1 = run_cli("dot", fixtures["g"], "--window", "8")
    r2 = run_cli("dot", fixtures["g"], "--window", "8")
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout.startswith("digraph permutation {\n")
    assert '  "2" -> "0";\n' in r1.stdout
    assert '"…"' in r1.stdout  # 6 maps to 10, outside the window
    assert r1.stdout.rstrip("\n").endswith("}")


def test_gadget_modes_exit_clean():
    for mode in ("halting", "oddlength", "interred-cd2cf",
                 "interred-cf2cd", "conjreduction"):
        r = run_cli("gadget", mode)
        assert r.returncode == 0, (mode, r.stderr)
        assert r.stdout


GADGET_TEXT = {
    "halting": (
        "halt-first\tcode=22\thalts-at=1\n"
        "empty\tcode=0\thalts-at=1\n"
        "inc-falls-off\tcode=2\thalts-at=1\n"
        "inc-then-halt\tcode=302\thalts-at=1\n"
        "drain-own-code\tcode=16\thalts-at=17\n"
        "jump-off-end\tcode=154\thalts-at=1\n"
        "pulse-then-drain\tcode=277142\thalts-at=3\n"
        "two-incs-halt\tcode=7629\thalts-at=2\n"
        "jump-over-inc\tcode=275655\thalts-at=1\n"
        "double-pulse-drain\tcode=13817538231781\thalts-at=5\n"
        "spin\tcode=37\tloops-forever=yes\n"
        "pulse-spin\tcode=782\tloops-forever=yes\n"
        "pingpong\tcode=43367\tloops-forever=yes\n"
        "pulse-selfjump\tcode=12248\tloops-forever=yes\n"
        "spin-before-halt\tcode=3830\tloops-forever=yes\n"
        "double-pulse-spin\tcode=277888\tloops-forever=yes\n"
        "spin-shadowed-inc\tcode=705\tloops-forever=yes\n"
        "selfjump-before-halt\tcode=476802643\tloops-forever=yes\n"
        "jump-to-selfjump\tcode=149333\tloops-forever=yes\n"
        "pulse-spin-dead-halt\tcode=7014388\tloops-forever=yes\n"),
    "oddlength": (
        "base: transposition (0 1)\n"
        "cycle of j(0): 0 -> 1 -> 6 -> 3 -> 10 -> 0\n"),
    "interred-cd2cf": (
        "block of embed(0,1): finite (1 element(s) walked)\n"
        "block of embed(0,2): infinite (13 element(s) walked)\n"),
    "interred-cf2cd": "j(0)=0 reaches j'(0)=1 in 3 square step(s)\n",
    "conjreduction": (
        "identity base: pointwise identity on [0,50): yes\n"
        "evens base: block of 0 starts 0, 6, 8, 14, 16, 22, 24\n"),
}


@pytest.mark.parametrize("mode", sorted(GADGET_TEXT))
def test_gadget_output_text(mode):
    r = run_cli("gadget", mode)
    assert r.returncode == 0, r.stderr
    assert r.stdout == GADGET_TEXT[mode]


def test_orbit_text_of_a_fixed_point(fixtures):
    r = run_cli("orbit", fixtures["g"], "7", "--steps", "3")
    assert r.returncode == 0
    assert r.stdout == "0\t7\n-1\t7\n1\t7\n"


@pytest.mark.parametrize("strategy", ["bogus", "attached"])
def test_malformed_cycle_eq_strategy_exit_code(tmp_path, strategy):
    bad = tmp_path / "rel.json"
    bad.write_text(json.dumps({"kind": "cycle_eq_of", "perm": {"kind": "identity"},
                               "strategy": strategy, "reps": []}))
    r = run_cli("decide", str(bad), "0", "1")
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error: ")


@pytest.mark.parametrize("text", [
    # a cardinality rho would map both 0 and 2 to 0
    {"kind": "from_rho", "eq": {"kind": "modulo", "m": "2"},
     "rho": {"kind": "rho_card_const", "c": "0"}},
    # a coproduct rho asked about Modulo(2) would too
    {"kind": "from_rho", "eq": {"kind": "modulo", "m": "2"},
     "rho": {"kind": "rho_pi_xy", "f": {"kind": "identity"}}},
    {"kind": "coproduct_perm", "family": {"kind": "halting_family", "variant": "bogus"},
     "rho": {"kind": "rho_halting_cf"}},
    # a string is not a boolean, though bool("false") is true
    {"kind": "from_rho", "eq": {"kind": "modulo", "m": "3"},
     "rho": {"kind": "rho_const", "value": "false"}},
    {"kind": "piecewise_residue", "rules": [
        {"modulus": "2", "residue": "0", "kind": "bogus", "a": "1", "b": "0"}]},
    # 20000 -> 20001, where 20001 stays: no bijection, though a check on
    # the first 10000 points sees none
    {"kind": "piecewise_residue", "check_window": "10000", "rules": [
        {"modulus": "0", "residue": "20000", "kind": "const", "a": "0", "b": "20001"}]},
], ids=["from_rho_cardinality_rho", "from_rho_coproduct_rho",
        "halting_family_bogus_variant", "rho_const_string_value",
        "piecewise_residue_bogus_rule_kind", "piecewise_residue_far_collision"])
def test_node_refused_by_its_constructor_exit_code(tmp_path, text):
    bad = tmp_path / "perm.json"
    bad.write_text(json.dumps(text))
    r = run_cli("eval", str(bad), "2")
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error: malformed ") and r.stdout == ""


def test_selfcheck_core_suite():
    r = run_cli("selfcheck", "--suite", "core")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert all(l.startswith("PASS\t") for l in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_malformed_input_exit_code(fixtures, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    r = run_cli("eval", str(bad), "0")
    assert r.returncode == 1
    r = run_cli("eval", fixtures["g"], "-3")
    assert r.returncode == 1
    r = run_cli("eval", "/no/such/file.json", "0")
    assert r.returncode == 1
    r = run_cli("no-such-command")
    assert r.returncode == 1


def test_fuel_exhaustion_exit_code(fixtures):
    r = run_cli("decide", fixtures["cycles"], "0", "200", "--fuel", "5")
    assert r.returncode == 3


def test_piecewise_lcm_above_the_budget_exit_code(tmp_path):
    big = tmp_path / "perm.json"
    big.write_text(json.dumps({"kind": "piecewise_residue", "rules": [
        {"modulus": str(m), "residue": "0", "kind": "affine", "a": "1", "b": "0"}
        for m in (1009, 1013, 1019)]}))
    r = run_cli("eval", str(big), "2")
    assert r.returncode == 3, r.stderr
    assert "the lcm of the moduli is 1041537223" in r.stderr and r.stdout == ""
