"""Command-line entry points: exit codes, formats, determinism."""
from __future__ import annotations

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fibweave import checks, cli, converge, distill


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_compile_json_shortest_gadget(capsys):
    code, out, _ = run(
        ["compile", "--word", "m", "--j", "0", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["start"] == ["Nested", "D"]
    assert payload["end"] == ["Nested", "D"]
    assert payload["moves"] == ["X+", "X-"]
    assert payload["closing"] == ["L-"]
    assert payload["metrics"] == {
        "f_count": 3,
        "r_token_count": 2,
        "elementary_braid_count": 2,
    }


def test_compile_generator_expansion(capsys):
    code, out, _ = run(
        ["compile", "--word", "m", "--j", "0", "--format", "json", "--generators"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == [
        [3, "ccw"],
        [2, "cw"],
        [2, "cw"],
        [3, "cw"],
    ]


def test_compile_braidtext_roundtrips(capsys, tmp_path):
    from fibweave import weave

    out_file = tmp_path / "prog.txt"
    code, _, _ = run(
        ["compile", "--word", "m", "--j", "1", "-o", str(out_file)], capsys
    )
    assert code == 0
    prog = weave.program_from_text(out_file.read_text())
    assert prog.start == ("Nested", "D")
    assert prog.move_count == 19


def test_compile_odd_integration_order_is_planning_error(capsys):
    code, _, err = run(["compile", "--word", "n", "--j", "1"], capsys)
    assert code == 3
    assert "even order" in err


def test_verify_unknown_suite(capsys):
    code, _, err = run(["verify", "--suite", "nosuch"], capsys)
    assert code == 2
    assert "unknown suite" in err


def test_verify_single_suite_text(capsys):
    code, out, _ = run(["verify", "--suite", "counts"], capsys)
    assert code == 0
    assert "PASS counts" in out
    assert "PASS aggregate" in out


@pytest.mark.parametrize("name", list(checks.CHECKS))
def test_verify_suite_passes(name, capsys):
    code, out, _ = run(["verify", "--suite", name], capsys)
    assert code == 0
    assert f"PASS {name}" in out


def test_verify_fails_on_a_moved_phase(capsys, monkeypatch):
    # move the first phase of the k = 3 odd-order product, the only one
    # with six inserts, by 1/(2k+1)
    prepare = converge._prepare

    def moved(u, fracs):
        if len(fracs) == 6:
            fracs = [fracs[0] + Fraction(1, 7), *fracs[1:]]
        return prepare(u, fracs)

    monkeypatch.setattr(converge, "_prepare", moved)
    assert checks.conjectures()["passed"] is False
    code, out, _ = run(["verify", "--suite", "conjectures"], capsys)
    assert code == 1
    assert "FAIL conjectures" in out and "FAIL aggregate" in out


def test_verify_json_payload(capsys):
    code, out, _ = run(
        ["verify", "--suite", "closure", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["aggregate_passed"] is True
    assert payload["suites"]["closure"]["passed"] is True
    assert payload["suites"]["closure"]["bounds"]["semantics_gap"] == 1e-12
    assert payload["suites"]["closure"]["seconds"] > 0


def test_compile_unwritable_output_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing_dir" / "out.txt"
    code, out, err = run(["compile", "--word", "m", "--j", "0", "-o", str(target)], capsys)
    assert code == 2
    assert out == "" and "Traceback" not in err and err.count("\n") == 1
    assert not target.parent.exists()


def test_simulate_exact_field(capsys):
    argv = [
        "simulate", "--scheme", "one-mobile", "--n", "4", "--p", "0.5",
        "--perfect-gadgets", "--trials", "1000", "--seed", "7",
    ]
    code, out1, _ = run(argv, capsys)
    assert code == 0
    payload = json.loads(out1)
    assert payload["exact_probability"] == 0.87890625
    assert payload["sampled_probability"] is not None
    code, out2, _ = run(argv, capsys)
    assert out1 == out2  # byte-identical given the seed
    # without trials nothing is sampled, so no seed is recorded
    for tail in ([], ["--seed", "7"]):
        code, out, _ = run(argv[:-4] + tail, capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] is None and payload["sampled_probability"] is None


def test_simulate_flag_validation(capsys):
    code, _, err = run(
        ["simulate", "--scheme", "one-mobile", "--n", "2", "--p", "0.5",
         "--j", "1", "--perfect-gadgets"],
        capsys,
    )
    assert code == 2
    code, _, err = run(
        ["simulate", "--scheme", "one-mobile", "--n", "2", "--p", "0.5"], capsys
    )
    assert code == 2
    code, _, err = run(
        ["simulate", "--scheme", "one-mobile", "--n", "2", "--p", "1.5",
         "--perfect-gadgets"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scheme", "hierarchical", "--n", "4", "--p", "0.9", "--eps", "2"],
        ["simulate", "--scheme", "one-mobile", "--n", "0", "--p", "0.5",
         "--perfect-gadgets"],
        ["simulate", "--scheme", "one-mobile", "--n", "2", "--p", "0.5",
         "--perfect-gadgets", "--trials", "10", "--seed", "-1"],
        ["simulate", "--scheme", "one-mobile", "--n", "2", "--p", "0.5",
         "--perfect-gadgets", "--seed", "-1"],
        ["simulate", "--scheme", "one-mobile", "--n", "2", "--p", "0.5",
         "--perfect-gadgets", "--trials", "-5"],
        ["chain-run", "/nonexistent/program.txt"],
        ["simulate", "--scheme", "one-mobile", "--n", "2", "--p", "0.3", "--eps", "0.1"],
        ["simulate", "--scheme", "one-mobile", "--n", "2", "--p", "0.3", "--j", "1",
         "--eps", "0.5"],
        ["cost", "--n", "0", "--j", "1"],
        ["cost", "--n", "-4", "--j", "1"],
        ["simulate", "--scheme", "hierarchical", "--n", "4", "--p", "0.3",
         "--perfect-gadgets", "--eps", "0.1"],
        # refused by the parser itself
        ["simulate", "--scheme", "one-mobile", "--n", "x", "--p", "0.3", "--j", "1"],
        ["cost", "--n", "4"],
        ["simulate", "--scheme", "hierarchical", "--n", "4", "--p", "-inf", "--eps", "0.1"],
    ],
)
def test_bad_input_is_one_line_usage_error(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "--word", "m", "--j", "9"],
        ["compile", "--word", "n", "--j", "9"],
        ["cost", "--n", "2", "--j", "9"],
        ["simulate", "--scheme", "one-mobile", "--n", "1", "--p", "0.5", "--j", "9"],
        ["simulate", "--scheme", "hierarchical", "--n", "2", "--p", "0.5", "--j", "9"],
        ["simulate", "--scheme", "hierarchical", "--n", "4", "--p", "0.3", "--j", "1000"],
        ["simulate", "--scheme", "one-mobile", "--n", "1", "--p", "0.5", "--j", "-1"],
        ["cost", "--n", "4", "--j", "-1", "--sweep-j", "--format", "csv"],
    ],
)
def test_order_above_limit_is_usage_error(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "order j must lie in [0, 8]" in err and err.count("\n") == 1


#: (in range, out of range) values of each fuzzed argument
FUZZED = {
    "n": (st.integers(1, 8), st.integers(-2, 0)),
    "j": (st.integers(0, 2), st.sampled_from([-2, -1, 9, 1000])),
    "p": (st.floats(0, 1), st.sampled_from([-0.5, 1.5, math.nan, math.inf])),
    "trials": (st.integers(0, 1000), st.just(-1)),
    "seed": (st.integers(0, 2**64), st.just(-1)),
}


@st.composite
def simulate_or_cost_argv(draw):
    """(argv, whether the command reads an out-of-range argument): simulate
    or cost arguments with up to two of them out of range.  One-mobile
    orders above 2 are only ones the order check refuses, and only layouts
    of at most 4 pairs per side sample trials."""
    broken = draw(st.sets(st.sampled_from(sorted(FUZZED)), max_size=2))
    v = {name: draw(FUZZED[name][name in broken]) for name in FUZZED}
    if draw(st.booleans()):
        sweep = draw(st.sampled_from([[], ["--sweep-j"]]))
        return ["cost", "--n", str(v["n"]), "--j", str(v["j"]), *sweep], bool(broken & {"n", "j"})
    scheme = draw(st.sampled_from(["one-mobile", "hierarchical"]))
    gadget = draw(st.sampled_from([["--j", str(v["j"])], ["--perfect-gadgets"], ["--eps", "0.1"],
                                   ["--j", str(v["j"]), "--eps", "0.2"], []]))
    trials = v["trials"] if v["n"] <= 4 else 0
    read = {"n", "p", "seed"} | ({"trials"} if v["n"] <= 4 else set())
    read |= {"j"} if "--j" in gadget else set()
    argv = ["simulate", "--scheme", scheme, "--n", str(v["n"]), "--p", str(v["p"]), *gadget,
            "--trials", str(trials), "--seed", str(v["seed"])]
    return argv, bool(broken & read)


@settings(max_examples=80, deadline=None)
@given(simulate_or_cost_argv())
@example((["cost", "--n", "4", "--j", "-1", "--sweep-j"], True))
def test_exit_codes_under_argument_fuzzing(case):
    argv, out_of_range = case
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code in ((2, 3) if out_of_range else (0, 2, 3)), (argv, err)
    assert "Traceback" not in err and err.count("\n") <= 1, (argv, err)


def test_simulate_power_of_two_enforced(capsys):
    code, _, err = run(
        ["simulate", "--scheme", "hierarchical", "--n", "3", "--p", "0.5",
         "--perfect-gadgets"],
        capsys,
    )
    assert code == 3
    assert "power-of-two" in err


def test_simulate_over_layout_limit_is_planning_error(capsys):
    code, out, err = run(
        ["simulate", "--scheme", "one-mobile", "--n", "5", "--p", "0.3", "--j", "1"],
        capsys,
    )
    assert code == 3
    assert out == "" and "Traceback" not in err and err.count("\n") == 1
    assert "22 anyons" in err


def test_hierarchical_over_exact_limit_is_planning_error(capsys):
    # the exact merge recursion's Fractions double in size per level
    t0 = time.perf_counter()
    code, out, err = run(
        ["simulate", "--scheme", "hierarchical", "--n", str(2**40), "--p", "0.3", "--eps", "0.1"],
        capsys,
    )
    assert time.perf_counter() - t0 < 1
    assert code == 3
    assert out == "" and "Traceback" not in err and err.count("\n") == 1
    assert str(distill.MAX_EXACT_PAIRS) in err
    assert 0 < distill.exact_success("hierarchical", distill.MAX_EXACT_PAIRS, 0.3, eps=0.1) < 1
    # the integer ledger and the sampler keep any power of two
    assert len(distill.braid_cost(2**40, 0)["levels"]) == 40
    mc = distill.monte_carlo("hierarchical", 2 * distill.MAX_EXACT_PAIRS, 0.3, 10, 0, eps=0.1)
    assert mc["trials"] == 10


def test_one_mobile_floor_over_exact_limit_is_planning_error(capsys):
    # the same cap bounds the floor 1 - (1-p)^n, refused before any power
    over = distill.MAX_EXACT_PAIRS + 1
    t0 = time.perf_counter()
    code, out, err = run(
        ["simulate", "--scheme", "one-mobile", "--n", str(over), "--p", "0.3", "--perfect-gadgets"],
        capsys,
    )
    assert time.perf_counter() - t0 < 1
    assert code == 3
    assert out == "" and "Traceback" not in err and err.count("\n") == 1
    assert str(distill.MAX_EXACT_PAIRS) in err
    big = 2 * distill.MAX_EXACT_PAIRS
    for query in (
        lambda: distill.hierarchical_floor(over, 0.3),
        lambda: distill.one_mobile_floor(over, 0.3),
        lambda: distill.hierarchical_success(big, 0.3, 0.1),
        lambda: distill.exact_success("one-mobile", over, 0.3),
        lambda: distill.simulate_report("one-mobile", 10**6, 0.3),
    ):
        t0 = time.perf_counter()
        with pytest.raises(distill.PlanningError, match="capped"):
            query()
        assert time.perf_counter() - t0 < 1
    assert distill.one_mobile_floor(distill.MAX_EXACT_PAIRS, Fraction(1, 2)) < 1
    # the sampler keeps every n it took before
    assert distill.monte_carlo("one-mobile", 2 * big, 0.3, 10, 0)["trials"] == 10


@pytest.mark.parametrize("flag", ["--p", "--eps"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_rate_names_the_range(flag, value, capsys):
    rates = {"--p": "0.3", "--eps": "0.1", flag: value}
    argv = ["simulate", "--scheme", "hierarchical", "--n", "4"]
    argv += [f"{k}={v}" for k, v in rates.items()]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and "Traceback" not in err and err.count("\n") == 1
    assert f"{flag[2:]} must lie in [0, 1], got {value}" in err


def test_huge_trial_count_is_usage_error(capsys):
    # refused before any draw: 10^13 trials of 2 pairs would take 146 TiB per side
    code, out, err = run(
        ["simulate", "--scheme", "one-mobile", "--n", "2", "--p", "0.3", "--perfect-gadgets",
         "--trials", "10000000000000"],
        capsys,
    )
    assert code == 2
    assert out == "" and "Traceback" not in err and err.count("\n") == 1
    assert str(distill.MAX_SIDE_DRAWS) in err
    # the cap itself is allowed; checking it draws nothing
    assert distill._query("one-mobile", 2, 0.3, None, None, distill.MAX_SIDE_DRAWS // 2, 0) is None


def test_cost_csv(capsys):
    code, out, _ = run(
        ["cost", "--n", "8", "--j", "1", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,j,level,merges,word_length,span_factor,exchanges"
    assert "8,1,1,4,13,1,52" in lines
    assert "8,1,literal,,,,364" in lines
    assert "8,1,dominant,,,,208" in lines


def test_cost_json_sweep(capsys):
    code, out, _ = run(
        ["cost", "--n", "2", "--j", "2", "--sweep-j"], capsys
    )
    assert code == 0
    reports = json.loads(out)
    assert [r["word_length"] for r in reports] == [1, 13, 73]


def test_chain_run_from_stdin(capsys, monkeypatch):
    from fibweave import weave, words

    prog = weave.compile_weave(words.m_word(1, words.SEED_WEAVE), ("Pair", "D"))
    monkeypatch.setattr("sys.stdin", io.StringIO(weave.program_to_text(prog)))
    code, out, _ = run(["chain-run"], capsys)
    assert code == 0
    rows = dict(
        line.split(",", 1) for line in out.strip().splitlines()[1:]
    )
    assert rows["11"] == "0.000066106961,0.999933893039"
    assert rows["00"].endswith("0.000000000000")
    assert rows["10"].endswith("0.000000000000")
    assert rows["01"].endswith("0.000000000000")


def test_unreadable_program_file_is_usage_error(capsys, tmp_path):
    # a directory cannot be read as a program: one line naming it and the reason
    code, out, err = run(["chain-run", str(tmp_path)], capsys)
    assert code == 2
    assert out == "" and "Traceback" not in err and err.count("\n") == 1
    assert str(tmp_path) in err and "Is a directory" in err


def test_chain_run_from_file(capsys, tmp_path):
    from fibweave import weave, words

    prog = weave.compile_weave(words.m_word(0, words.SEED_WEAVE), ("Pair", "D"))
    f = tmp_path / "gadget.txt"
    f.write_text(weave.program_to_text(prog))
    code, out, _ = run(["chain-run", str(f)], capsys)
    assert code == 0
    assert "11,0.145898033750,0.854101966250" in out
