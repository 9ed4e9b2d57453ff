"""Command-line entry points: exit codes, formats, determinism."""
from __future__ import annotations

import io
import json

import pytest

from fibweave import cli


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


def test_verify_soft_suite_reported_as_info(capsys):
    code, out, _ = run(["verify", "--suite", "conjectures"], capsys)
    assert code == 0
    assert "INFO conjectures" in out


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
    assert payload["precision_bits"] == 256


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FIBWEAVE_PRECISION", "128")
    code, out, _ = run(
        ["verify", "--suite", "counts", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["precision_bits"] == 128


def test_precision_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("FIBWEAVE_PRECISION", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "counts"])
    assert exc.value.code == 2
    monkeypatch.setenv("FIBWEAVE_PRECISION", "12")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "counts"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("bits", ["53", "127"])
def test_precision_below_verify_floor_is_usage_error(bits, capsys, monkeypatch):
    monkeypatch.setenv("FIBWEAVE_PRECISION", bits)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "counts"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1


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
         "--perfect-gadgets", "--trials", "-5"],
        ["chain-run", "/nonexistent/program.txt"],
        ["simulate", "--scheme", "one-mobile", "--n", "2", "--p", "0.3", "--eps", "0.1"],
        ["simulate", "--scheme", "one-mobile", "--n", "2", "--p", "0.3", "--j", "1",
         "--eps", "0.5"],
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
    ],
)
def test_order_above_limit_is_usage_error(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "order j must lie in [0, 8]" in err and err.count("\n") == 1


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


def test_chain_run_from_file(capsys, tmp_path):
    from fibweave import weave, words

    prog = weave.compile_weave(words.m_word(0, words.SEED_WEAVE), ("Pair", "D"))
    f = tmp_path / "gadget.txt"
    f.write_text(weave.program_to_text(prog))
    code, out, _ = run(["chain-run", str(f)], capsys)
    assert code == 0
    assert "11,0.145898033750,0.854101966250" in out
