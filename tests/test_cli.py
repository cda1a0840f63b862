import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_king_cycle
from cyclesplines import (
    EdgeLabeledCycle,
    ProductDecomposition,
    Spline,
    check_flow_up_basis,
    decompose,
    king_basis,
    king_product,
    product_in_basis,
    reconstruct,
    smallest_basis,
    triangulation_basis,
)
from cyclesplines import cli, oracle, spline_core
from cyclesplines.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------- verify


def test_verify_accepts_spline(capsys):
    code, out, _ = run(capsys, "verify", "--cycle", "2,5,3", "--labels", "0,2,12")
    assert code == 0
    assert out.splitlines()[-1] == "spline"


def test_verify_rejects_non_spline(capsys):
    code, out, _ = run(capsys, "verify", "--cycle", "2,5,3", "--labels", "0,2,13")
    assert code == 1
    assert out.splitlines()[-1] == "not a spline"
    assert any(line.startswith("FAIL") for line in out.splitlines())


def test_verify_machine_payload(capsys):
    code, payload, err = run_json(
        capsys, "verify", "--cycle", "2,6,15,10", "--labels", "0,2,15,200",
        "--format", "machine",
    )
    assert code == 1
    assert payload["ok"] is False
    assert [v["edge"] for v in payload["violations"]] == [2, 3]
    assert payload["violations"][0]["values"] == [2, 15]
    assert "edge 2" in err


def test_verify_negative_labels(capsys):
    code, _, _ = run(capsys, "verify", "--cycle", "2,5,3", "--labels=-1,-1,-1")
    assert code == 0


# ----------------------------------------------------------------- basis


def test_basis_king_machine(capsys):
    code, payload, _ = run_json(
        capsys, "basis", "--cycle", "3,4,8,2,5", "--kind", "king", "--format", "machine"
    )
    assert code == 0
    assert payload == {
        "kind": "king",
        "basis": [
            [1, 1, 1, 1, 1],
            [0, 3, 3, 3, 15],
            [0, 0, 4, 4, 20],
            [0, 0, 0, 8, 40],
            [0, 0, 0, 0, 10],
        ],
    }


def test_basis_human_lines(capsys):
    code, out, _ = run(capsys, "basis", "--cycle", "2,5,3", "--kind", "triangulation")
    assert code == 0
    assert out.splitlines() == ["H0: 1,1,1", "H1: 0,2,12", "H2: 0,0,15"]


def test_basis_smallest(capsys):
    code, out, _ = run(capsys, "basis", "--cycle", "2,5,3", "--kind", "smallest")
    assert code == 0
    assert out.splitlines() == ["G0: 1,1,1", "G1: 0,2,12", "G2: 0,0,15"]


def test_basis_king_precondition_failure(capsys):
    code, _, err = run(capsys, "basis", "--cycle", "2,6,4", "--kind", "king")
    assert code == 1
    assert "coprime" in err


# ------------------------------------------------------------- decompose


def test_decompose_known_spline(capsys):
    code, out, _ = run(
        capsys, "decompose", "--cycle", "2,5,3", "--labels", "1,3,13",
        "--kind", "triangulation",
    )
    assert code == 0
    assert out.strip() == "1,1,0"


def test_decompose_machine(capsys):
    code, payload, _ = run_json(
        capsys, "decompose", "--cycle", "2,5,3", "--labels", "0,2,12",
        "--kind", "king", "--format", "machine",
    )
    assert code == 0
    assert payload == {"coefficients": [0, 1, 0]}


def test_decompose_rejects_non_spline(capsys):
    code, out, err = run(
        capsys, "decompose", "--cycle", "2,5,3", "--labels", "0,2,13",
        "--kind", "triangulation",
    )
    assert code == 1
    assert out == ""
    assert "nothing to decompose" in err


# -------------------------------------------------------------- multiply


def test_multiply_king(capsys):
    code, out, _ = run(
        capsys, "multiply", "--cycle", "3,4,8,2,5", "--kind", "king", "--i", "1", "--j", "3"
    )
    assert code == 0
    assert out.strip() == "K1 * K3 = 3*K3 + 48*K4"


def test_multiply_machine_payload(capsys):
    code, payload, _ = run_json(
        capsys, "multiply", "--cycle", "3,4,8,2,5", "--kind", "king",
        "--i", "3", "--j", "1", "--format", "machine",
    )
    assert code == 0
    assert payload == {"product": {"i": 1, "j": 3, "terms": [[3, 3], [4, 48]]}}


def test_multiply_triangulation_long_cycle(capsys):
    code, payload, _ = run_json(
        capsys, "multiply", "--cycle", "2,6,15,10", "--kind", "triangulation",
        "--i", "1", "--j", "1", "--format", "machine",
    )
    assert code == 0
    assert payload == {"product": {"i": 1, "j": 1, "terms": [[1, 2], [2, 80], [3, 1000]]}}


def test_multiply_index_out_of_range(capsys):
    code, _, err = run(
        capsys, "multiply", "--cycle", "2,5,3", "--kind", "king", "--i", "0", "--j", "3"
    )
    assert code == 2
    assert "must be in [0, 2]" in err


# ----------------------------------------------------------------- table


def test_table_king(capsys):
    code, payload, _ = run_json(
        capsys, "table", "--cycle", "3,4,8,2,5", "--kind", "king", "--format", "machine"
    )
    assert code == 0
    assert payload["kind"] == "king"
    assert len(payload["table"]) == 15  # upper triangle of a 5 x 5 table
    by_pair = {(c["i"], c["j"]): c["terms"] for c in payload["table"]}
    assert by_pair[(1, 3)] == [[3, 3], [4, 48]]


def test_table_triangulation_three_cycle(capsys):
    code, out, _ = run(capsys, "table", "--cycle", "2,5,3", "--kind", "triangulation")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Phi = 8"
    assert "H1 * H1 = 2*H1 + 8*H2" in lines


def test_machine_mode_renders_no_human_text(capsys, monkeypatch):
    commands = [
        ("basis", "--cycle", "3,4,8,2,5", "--kind", "king"),
        ("table", "--cycle", "3,4,8,2,5", "--kind", "king"),
        ("table", "--cycle", "2,5,3", "--kind", "triangulation"),
        ("decompose", "--cycle", "2,5,3", "--labels", "1,3,13", "--kind", "king"),
        ("multiply", "--cycle", "3,4,8,2,5", "--kind", "king", "--i", "1", "--j", "3"),
        ("oracle", "smallest", "--cycle", "2,5,3", "--k", "1"),
    ]
    expected = [run(capsys, *argv, "--format", "machine") for argv in commands]

    def refuse(*args):
        raise AssertionError("machine mode built a human line")

    monkeypatch.setattr(cli, "_spline_text", refuse)
    monkeypatch.setattr(ProductDecomposition, "render", refuse)
    for argv, before in zip(commands, expected):
        assert before[0] == 0
        assert run(capsys, *argv, "--format", "machine") == before


def test_table_triangulation_needs_three_cycle(capsys):
    code, _, err = run(capsys, "table", "--cycle", "2,6,15,10", "--kind", "triangulation")
    assert code == 1
    assert "multiply --kind triangulation" in err


# ---------------------------------------------------------------- oracle


def test_oracle_smallest(capsys):
    code, out, _ = run(capsys, "oracle", "smallest", "--cycle", "2,5,3", "--k", "1")
    assert code == 0
    assert out.strip() == "0,2,12"


def test_oracle_smallest_refuses_max_states(capsys):
    # smallest reads its answer off the lattice: there is no search to cap
    code, out, err = run(
        capsys, "oracle", "smallest", "--cycle", "2,5,3", "--k", "1", "--max-states", "14"
    )
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --max-states 14" in err


def test_oracle_reads_pivots_past_a_machine_word(tmp_path, capsys):
    # a pivot of 3 * 10**21, past 2**63 - 1: both commands eliminate, exactly
    labels = (2, 5, 3 * 10**21)
    code, out, err = run(
        capsys, "oracle", "smallest", "--cycle", ",".join(map(str, labels)), "--k", "1"
    )
    assert (code, out, err) == (0, "0,10,3000000000000000000000\n", "")
    cycle = EdgeLabeledCycle(labels)
    path = tmp_path / "graph.json"
    edges = [list(edge) for edge in cycle.as_graph().edges]
    path.write_text(json.dumps({"graph": {"vertices": 3, "edges": edges}}))
    candidates = ";".join(",".join(map(str, e.entries)) for e in triangulation_basis(cycle))
    code, out, err = run(
        capsys, "oracle", "check-basis", "--input", str(path), "--candidates", candidates
    )
    assert (code, out, err) == (0, "basis condition holds for the given candidates\n", "")


@pytest.mark.parametrize(
    "search", [("smallest", "--k", "1"), ("check-basis", "--kind", "triangulation")]
)
def test_oracle_answers_on_1200_vertices(capsys, search):
    # 1200 vertices: both commands eliminate, with no budget, and answer at
    # once; smallest gives element 1 of the smallest basis
    cycle = EdgeLabeledCycle(tuple(i % 29 + 1 for i in range(1200)))
    expected = {
        "smallest": {"spline": list(smallest_basis(cycle)[1].entries)},
        "check-basis": {"ok": True},
    }[search[0]]
    code, payload, err = run_json(
        capsys, "oracle", search[0], "--cycle", ",".join(map(str, cycle.labels)),
        *search[1:], "--format", "machine",
    )
    assert (code, payload, err) == (0, expected, "")


@pytest.mark.parametrize("first, code", [("0,2,50,200", 0), ("0,4,100,400", 1)])
def test_oracle_check_basis_on_a_graph_eliminates(tmp_path, capsys, first, code):
    # the 4-cycle 2,6,15,10 with its chord 1-3 and its triangulation basis,
    # then with candidate 1 doubled: pivot 1 of the graph's lattice is 2
    path = tmp_path / "graph.json"
    edges = [[1, 2, 2], [2, 3, 6], [3, 4, 15], [4, 1, 10], [1, 3, 5]]
    path.write_text(json.dumps({"graph": {"vertices": 4, "edges": edges}}))
    got, payload, _ = run_json(
        capsys, "oracle", "check-basis", "--input", str(path), "--format", "machine",
        "--candidates", f"1,1,1,1;{first};0,0,30,120;0,0,0,30",
    )
    assert (got, payload) == (code, {"ok": code == 0})


def test_oracle_smallest_bad_k(capsys):
    code, _, _ = run(capsys, "oracle", "smallest", "--cycle", "2,5,3", "--k", "0")
    assert code == 2


def test_oracle_check_basis_kind(capsys):
    code, payload, _ = run_json(
        capsys, "oracle", "check-basis", "--cycle", "2,5,3",
        "--kind", "triangulation", "--format", "machine",
    )
    assert code == 0
    assert payload == {"ok": True}


@pytest.mark.parametrize(
    "command",
    [
        ("oracle", "check-basis", "--kind", "triangulation"),
        ("oracle", "check-basis", "--kind", "king"),
        ("oracle", "check-basis", "--kind", "smallest"),
        ("multiply", "--kind", "triangulation", "--i", "3", "--j", "250"),
        ("decompose", "--kind", "smallest", "--labels", ",".join(["1"] * 300)),
    ],
)
def test_commands_that_read_no_entries_lay_out_no_element(capsys, monkeypatch, command):
    # certifying, multiplying and decomposing read the elements' jumps only
    def lay_out(*args):
        raise AssertionError("an element was laid out")

    monkeypatch.setattr(spline_core, "_lay_out", lay_out)
    cycle = ",".join(str(i % 29 + 1) for i in range(300))
    code, out, err = run(capsys, *command, "--cycle", cycle)
    assert (code, err) == (0, "") and out


def test_oracle_check_basis_candidates_failing(capsys):
    code, payload, _ = run_json(
        capsys, "oracle", "check-basis", "--cycle", "2,5,3",
        "--candidates", "1,1,1;0,4,24;0,0,15", "--format", "machine",
    )
    assert code == 1
    assert payload == {"ok": False}


def test_oracle_check_basis_needs_exactly_one_source(capsys):
    code, _, _ = run(capsys, "oracle", "check-basis", "--cycle", "2,5,3")
    assert code == 2
    code, _, _ = run(
        capsys, "oracle", "check-basis", "--cycle", "2,5,3",
        "--kind", "king", "--candidates", "1,1,1;0,2,12;0,0,15",
    )
    assert code == 2


@pytest.mark.parametrize(
    "candidates, message",
    [
        ("1,1,1;0,2,12;0,0", "candidate 2 has 2 entries, expected 3"),
        ("1,1,1;0,2,12;0,0,15;0,0,0", "needs 3 candidates for this input, got 4"),
    ],
)
def test_oracle_check_basis_malformed_candidates_exit_2(capsys, candidates, message):
    code, _, err = run(
        capsys, "oracle", "check-basis", "--cycle", "2,5,3", "--candidates", candidates
    )
    assert code == 2
    assert message in err


def test_oracle_extension(capsys):
    code, _, _ = run(
        capsys, "oracle", "extension", "--cycle", "2,6,15,10", "--labels", "0,2,50,200"
    )
    assert code == 0
    code, _, _ = run(
        capsys, "oracle", "extension", "--cycle", "2,6,15,10", "--labels", "0,2,15,200"
    )
    assert code == 1


def test_oracle_extension_wrong_zero_count(capsys):
    # the labels fix their zero count, so --k is no flag (exit 2), and a
    # labeling with two leading zeros is simply checked
    argv = ("oracle", "extension", "--cycle", "2,6,15,10", "--labels", "0,0,30,120")
    code, out, err = run(capsys, *argv, "--k", "1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --k 1" in err
    held = "labels satisfy every edge of the chord-augmented cycle\n"
    assert run(capsys, *argv) == (0, held, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--cycle", "2,5,3", "--labels", "0,2,13"),
        ("oracle", "check-basis", "--cycle", "2,5,3", "--candidates", "1,1,1;0,4,24;0,0,15"),
        ("oracle", "extension", "--cycle", "2,6,15,10", "--labels", "0,2,50,201"),
    ],
)
def test_failing_machine_command_writes_its_human_report_to_stderr(capsys, argv):
    code, human, _ = run(capsys, *argv)
    assert code == 1
    code, out, err = run(capsys, *argv, "--format", "machine")
    assert (code, json.loads(out)["ok"], err) == (1, False, human)


# ----------------------------------------------------------------- input


def test_input_file_cycle(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"cycle": [2, 5, 3]}))
    code, out, _ = run(capsys, "verify", "--input", str(path), "--labels", "0,2,12")
    assert code == 0
    assert out.splitlines()[-1] == "spline"


def test_input_file_graph(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(
        json.dumps({"graph": {"vertices": 3, "edges": [[1, 2, 4], [1, 3, 2]]}})
    )
    code, out, _ = run(capsys, "verify", "--input", str(path), "--labels", "0,4,6")
    assert code == 0
    code, _, _ = run(capsys, "verify", "--input", str(path), "--labels", "0,4,7")
    assert code == 1


def test_input_graph_without_edges_exits_2(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"graph": {"vertices": 3}}))
    code, out, err = run(capsys, "verify", "--input", str(path), "--labels", "0,0,0")
    assert (code, out) == (2, "")
    assert err == 'error: "graph" must be an object with "vertices" and "edges"\n'


def test_graph_input_rejected_for_cycle_commands(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"graph": {"vertices": 3, "edges": [[1, 2, 4]]}}))
    code, _, err = run(capsys, "basis", "--input", str(path), "--kind", "triangulation")
    assert code == 2
    assert "needs a cycle" in err


MALFORMED = [
    (("verify", "--labels", "1,1,1"), "one of --cycle or --input is required"),
    (("verify", "--cycle", "2,x,3", "--labels", "1,1,1"), "--cycle: must be a base-10 integer"),
    (("verify", "--cycle", "2,5", "--labels", "1,1"), "a cycle needs at least 3 edges"),
    (("verify", "--cycle", "2,5,3", "--labels", "1,1"), "--labels needs 3 entries"),
    (
        ("verify", "--cycle", "2,5,3", "--input", "x.json", "--labels", "1,1,1"),
        "give either --cycle or --input, not both",
    ),
    (
        ("basis", "--cycle", "2,5,3", "--kind", "triangulation", "--bound", "0"),
        "unrecognized arguments: --bound 0",
    ),
    # only an optional sign and ASCII digits are plain base 10
    (("basis", "--cycle", "1_0,5,3", "--kind", "triangulation"), "got '1_0'"),
    (("basis", "--cycle", "\u0662,5,3", "--kind", "triangulation"), "got '\u0662'"),
    (("verify", "--cycle", "2,5,3", "--labels", "0,2,1_2"), "--labels: must be a base-10"),
    (("verify", "--cycle", "2,5,3", "--labels", "0,\u0662,12"), "--labels: must be a base-10"),
    # integer flags follow the same rule as lists
    (
        ("multiply", "--cycle", "3,4,8,2,5", "--kind", "king", "--i", "\u0661", "--j", "3"),
        "argument --i: must be a base-10 integer",
    ),
    (("oracle", "smallest", "--cycle", "2,5,3", "--k", "\u0661"), "argument --k: must be a base-10"),
    # a retired flag is no flag at all, whatever its value
    (
        ("oracle", "smallest", "--cycle", "2,5,3", "--k", "1", "--max-states", "1_000"),
        "unrecognized arguments: --max-states 1_000",
    ),
    # flags are spelled in full: an abbreviation is not read as --input or
    # as --candidates
    (
        ("verify", "--cycle", "2,5,3", "--labels", "0,2,12", "--i", "1"),
        "unrecognized arguments: --i 1",
    ),
    (
        ("oracle", "check-basis", "--cycle", "2,5,3", "--cand", "1,1,1;0,2,12;0,0,15"),
        "unrecognized arguments: --cand 1,1,1;0,2,12;0,0,15",
    ),
]


@pytest.mark.parametrize(
    "argv, message", MALFORMED, ids=[f"argv{i}" for i in range(len(MALFORMED))]
)
def test_malformed_input_exits_2(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "document, labels",
    [
        # each would read true as 1 and pass as a spline
        ({"cycle": [True, 5, 3]}, "0,0,0"),
        ({"graph": {"vertices": True, "edges": []}}, "7"),
        ({"graph": {"vertices": 2, "edges": [[True, 2, 2]]}}, "0,2"),
        ({"graph": {"vertices": 2, "edges": [[1, 2, True]]}}, "0,7"),
    ],
)
def test_input_file_booleans_exit_2(tmp_path, capsys, document, labels):
    path = tmp_path / "booleans.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "verify", "--input", str(path), "--labels", labels)
    assert (code, out) == (2, "")
    assert "not true or false" in err


def test_missing_input_file_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "verify", "--input", str(tmp_path / "absent.json"), "--labels", "1,1,1"
    )
    assert code == 2
    assert "cannot read" in err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "--input", str(path), "--labels", "1,1,1")
    assert code == 2
    assert "not valid JSON" in err


def test_undecodable_input_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"cycle": [2, 5, 3], "note": "\xff"}')
    code, _, err = run(capsys, "verify", "--input", str(path), "--labels", "1,1,1")
    assert code == 2
    assert "not valid JSON" in err


def test_deeply_nested_input_file_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, _, err = run(capsys, "verify", "--input", str(path), "--labels", "1,1,1")
    assert code == 2
    assert "not valid JSON" in err


def test_bare_value_error_is_a_bug_not_a_domain_failure(monkeypatch, capsys):
    # only the package's own errors map to exit 1; anything else propagates
    def broken(cycle):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "triangulation_basis", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["basis", "--cycle", "2,5,3", "--kind", "triangulation"])
    assert capsys.readouterr().err == ""


def test_oracle_extension_bug_is_not_a_domain_failure(monkeypatch, capsys):
    # the check has no precondition to refuse, so a ValueError from inside
    # it is a bug and propagates
    def broken(cycle):
        raise ValueError("internal bug")

    monkeypatch.setattr(oracle, "triangulated_graph", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["oracle", "extension", "--cycle", "2,6,15,10", "--labels", "0,2,50,200"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["basis", "decompose", "multiply"])
@pytest.mark.parametrize("flag", ["--bound", "--max-states"])
def test_closed_form_commands_take_no_search_flags(capsys, command, flag):
    extra = {
        "basis": (),
        "decompose": ("--labels", "1,3,13"),
        "multiply": ("--i", "1", "--j", "2"),
    }[command]
    code, out, err = run(
        capsys, command, "--cycle", "2,5,3", "--kind", "smallest", *extra, flag, "5"
    )
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} 5" in err


@pytest.mark.parametrize(
    "search",
    [
        ("smallest", "--k", "1", "--bound", "11"),
        ("check-basis", "--candidates", "1,1,1;0,4,24;0,0,15", "--bound", "3"),
        ("check-basis", "--kind", "triangulation", "--max-states", "5"),
    ],
    ids=["smallest", "check-basis", "check-basis-max-states"],
)
def test_oracle_commands_take_no_bound(capsys, search):
    # the labels fix the box: a smaller one answers wrongly with exit 0,
    # 0,4,9 for smallest and a false "basis condition holds" for check-basis;
    # check-basis eliminates and has no state limit either
    code, out, err = run(capsys, "oracle", search[0], "--cycle", "2,5,3", *search[1:])
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {search[-2]} {search[-1]}" in err


def test_smallest_basis_with_30_digit_labels(capsys):
    labels = [10**29 + 7 * i + 3 for i in range(40)]
    code, payload, _ = run_json(
        capsys, "basis", "--cycle", ",".join(map(str, labels)), "--kind", "smallest",
        "--format", "machine",
    )
    assert code == 0
    assert payload["kind"] == "smallest"
    cycle = EdgeLabeledCycle(tuple(labels))
    assert check_flow_up_basis(cycle, [Spline(tuple(e)) for e in payload["basis"]]).ok


def test_argparse_errors_exit_2(capsys):
    assert main(["verify", "--cycle", "2,5,3"]) == 2  # missing --labels
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["basis", "--cycle", "2,5,3", "--kind", "royal"]) == 2
    capsys.readouterr()


def test_nonpositive_cycle_label_exits_2(capsys):
    # labels must be positive; caught while building the cycle
    code, _, err = run(capsys, "verify", "--cycle", "2,0,3", "--labels", "1,1,1")
    assert code == 2
    assert "positive" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclesplines.cli", "basis", "--cycle", "2,5,3",
         "--kind", "triangulation", "--format", "machine"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["basis"][1] == [0, 2, 12]


def test_closed_stdout_exits_quietly():
    # about 500 kB of output: the child blocks on the full pipe, or has not
    # written yet, when the reader goes away, as with `| head -1`
    cycle = ",".join(str(i % 29 + 1) for i in range(400))
    with subprocess.Popen(
        [sys.executable, "-m", "cyclesplines.cli", "basis", "--cycle", cycle,
         "--kind", "triangulation"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
    assert err == ""


def json_dump_text(payload):
    out = io.StringIO()
    json.dump(payload, out, separators=(", ", ": "))
    return out.getvalue() + "\n"


def test_machine_output_has_the_bytes_of_json_dump(monkeypatch, capsys, rng):
    payloads = []
    emit = cli._emit

    def recording_emit(args, payload, lines):
        payloads.append(payload)
        emit(args, payload, lines)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    for label_range in ((1, 30), (10**29, 10**30 - 1)):
        for _ in range(3):
            cycle = random_king_cycle(rng, label_range=label_range)
            cycle_arg = ",".join(map(str, cycle.labels))
            coefficients = [rng.randint(-9, 9) for _ in range(cycle.n)]
            entries = reconstruct(coefficients, triangulation_basis(cycle)).entries
            broken = (*entries[:-1], entries[-1] + 1)
            for argv in (
                ["basis", "--kind", "king"],
                ["basis", "--kind", "triangulation"],
                ["table", "--kind", "king"],
                ["decompose", "--kind", "triangulation", "--labels=" + ",".join(map(str, entries))],
                ["verify", "--labels=" + ",".join(map(str, entries))],
                ["verify", "--labels=" + ",".join(map(str, broken))],
            ):
                payloads.clear()
                code, out, _ = run(capsys, *argv, "--cycle", cycle_arg, "--format", "machine")
                assert code in (0, 1) and len(payloads) == 1
                assert out == json_dump_text(payloads[0])


# ---------------------------------------------------------- pinned bytes

# (argv, exit code, human stdout, human stderr, machine stdout) of every
# command on small fixed inputs, domain failures included
PINNED = [
    (
        "verify --cycle 2,5,3 --labels 0,2,12",
        0,
        (
            "ok   edge 1 (vertex 1 -- vertex 2, label 2)\n"
            "ok   edge 2 (vertex 2 -- vertex 3, label 5)\n"
            "ok   edge 3 (vertex 3 -- vertex 1, label 3)\n"
            "spline\n"
        ),
        "",
        '{"ok": true, "violations": []}\n',
    ),
    (
        "verify --cycle 2,5,3 --labels 0,2,13",
        1,
        (
            "ok   edge 1 (vertex 1 -- vertex 2, label 2)\n"
            "FAIL edge 2 (vertex 2 -- vertex 3, label 5): 2 and 13 differ by -11, not a"
            " multiple of 5\n"
            "FAIL edge 3 (vertex 3 -- vertex 1, label 3): 13 and 0 differ by 13, not a"
            " multiple of 3\n"
            "not a spline\n"
        ),
        "",
        (
            '{"ok": false, "violations": [{"edge": 2, "u": 2, "v": 3, "label": 5,'
            ' "values": [2, 13]}, {"edge": 3, "u": 3, "v": 1, "label": 3, "values": [13,'
            " 0]}]}\n"
        ),
    ),
    (
        "basis --cycle 2,5,3 --kind triangulation",
        0,
        (
            "H0: 1,1,1\n"
            "H1: 0,2,12\n"
            "H2: 0,0,15\n"
        ),
        "",
        '{"kind": "triangulation", "basis": [[1, 1, 1], [0, 2, 12], [0, 0, 15]]}\n',
    ),
    (
        "basis --cycle 2,5,3 --kind king",
        0,
        (
            "K0: 1,1,1\n"
            "K1: 0,2,12\n"
            "K2: 0,0,15\n"
        ),
        "",
        '{"kind": "king", "basis": [[1, 1, 1], [0, 2, 12], [0, 0, 15]]}\n',
    ),
    (
        "basis --cycle 2,5,3 --kind smallest",
        0,
        (
            "G0: 1,1,1\n"
            "G1: 0,2,12\n"
            "G2: 0,0,15\n"
        ),
        "",
        '{"kind": "smallest", "basis": [[1, 1, 1], [0, 2, 12], [0, 0, 15]]}\n',
    ),
    (
        "basis --cycle 2,6,4 --kind king",
        1,
        "",
        "error: the last two edge labels must be coprime: gcd(6, 4) = 2\n",
        "",
    ),
    (
        "decompose --cycle 2,5,3 --labels 1,3,13 --kind triangulation",
        0,
        "1,1,0\n",
        "",
        '{"coefficients": [1, 1, 0]}\n',
    ),
    (
        "decompose --cycle 2,5,3 --labels 0,2,13 --kind king",
        1,
        "",
        (
            "edge 2 (vertex 2 -- vertex 3, label 5): 2 and 13 differ by -11, not a"
            " multiple of 5\n"
            "edge 3 (vertex 3 -- vertex 1, label 3): 13 and 0 differ by 13, not a"
            " multiple of 3\n"
            "not a spline; nothing to decompose\n"
        ),
        "",
    ),
    (
        "multiply --cycle 3,4,8,2,5 --kind king --i 1 --j 3",
        0,
        "K1 * K3 = 3*K3 + 48*K4\n",
        "",
        '{"product": {"i": 1, "j": 3, "terms": [[3, 3], [4, 48]]}}\n',
    ),
    (
        "multiply --cycle 2,6,15,10 --kind triangulation --i 1 --j 1",
        0,
        "H1 * H1 = 2*H1 + 80*H2 + 1000*H3\n",
        "",
        '{"product": {"i": 1, "j": 1, "terms": [[1, 2], [2, 80], [3, 1000]]}}\n',
    ),
    (
        "multiply --cycle 2,5,3 --kind smallest --i 2 --j 1",
        0,
        "G1 * G2 = 12*G2\n",
        "",
        '{"product": {"i": 1, "j": 2, "terms": [[2, 12]]}}\n',
    ),
    (
        "multiply --cycle 2,5,3 --kind king --i 0 --j 3",
        2,
        "",
        "error: --i and --j must be in [0, 2], got (0, 3)\n",
        "",
    ),
    (
        "table --cycle 2,5,3 --kind king",
        0,
        (
            "K0 * K0 = K0\n"
            "K0 * K1 = K1\n"
            "K0 * K2 = K2\n"
            "K1 * K1 = 2*K1 + 8*K2\n"
            "K1 * K2 = 12*K2\n"
            "K2 * K2 = 15*K2\n"
        ),
        "",
        (
            '{"kind": "king", "table": [{"i": 0, "j": 0, "terms": [[0, 1]]}, {"i": 0,'
            ' "j": 1, "terms": [[1, 1]]}, {"i": 0, "j": 2, "terms": [[2, 1]]}, {"i": 1,'
            ' "j": 1, "terms": [[1, 2], [2, 8]]}, {"i": 1, "j": 2, "terms": [[2, 12]]},'
            ' {"i": 2, "j": 2, "terms": [[2, 15]]}]}\n'
        ),
    ),
    (
        "table --cycle 2,5,3 --kind triangulation",
        0,
        (
            "Phi = 8\n"
            "H0 * H0 = H0\n"
            "H0 * H1 = H1\n"
            "H0 * H2 = H2\n"
            "H1 * H1 = 2*H1 + 8*H2\n"
            "H1 * H2 = 12*H2\n"
            "H2 * H2 = 15*H2\n"
        ),
        "",
        (
            '{"kind": "triangulation", "table": [{"i": 0, "j": 0, "terms": [[0, 1]]},'
            ' {"i": 0, "j": 1, "terms": [[1, 1]]}, {"i": 0, "j": 2, "terms": [[2, 1]]},'
            ' {"i": 1, "j": 1, "terms": [[1, 2], [2, 8]]}, {"i": 1, "j": 2, "terms": [[2,'
            ' 12]]}, {"i": 2, "j": 2, "terms": [[2, 15]]}]}\n'
        ),
    ),
    (
        "table --cycle 2,6,15,10 --kind triangulation",
        1,
        "",
        (
            "error: the closed-form table exists only for 3-cycles, got n = 4\n"
            "hint: products on longer cycles are available one pair at a time via"
            " 'multiply --kind triangulation'\n"
        ),
        "",
    ),
    (
        "oracle smallest --cycle 2,5,3 --k 1",
        0,
        "0,2,12\n",
        "",
        '{"spline": [0, 2, 12]}\n',
    ),
    (
        "oracle smallest --cycle 2,5,3 --k 1 --max-states 14",
        2,
        "",
        (
            "usage: cyclesplines oracle smallest [-h] [--cycle CYCLE] [--input INPUT]\n"
            "                                    [--format {human,machine}] --k K\n"
            "cyclesplines oracle smallest: error: unrecognized arguments: --max-states 14\n"
        ),
        "",
    ),
    (
        "oracle check-basis --cycle 2,5,3 --kind triangulation",
        0,
        "basis condition holds for the given candidates\n",
        "",
        '{"ok": true}\n',
    ),
    (
        "oracle check-basis --cycle 2,5,3 --candidates 1,1,1;0,4,24;0,0,15",
        1,
        (
            "basis condition fails: some spline has a leading entry that is"
            " not a multiple of the matching candidate's\n"
        ),
        "",
        '{"ok": false}\n',
    ),
    (
        "oracle extension --cycle 2,6,15,10 --labels 0,2,50,200",
        0,
        "labels satisfy every edge of the chord-augmented cycle\n",
        "",
        '{"ok": true}\n',
    ),
    (
        "oracle extension --cycle 2,6,15,10 --labels 0,2,50,201",
        1,
        "labels violate the chord-augmented cycle\n",
        "",
        '{"ok": false}\n',
    ),
    (
        "oracle extension --cycle 2,6,15,10 --labels 0,0,30,120",
        0,
        "labels satisfy every edge of the chord-augmented cycle\n",
        "",
        '{"ok": true}\n',
    ),
    (
        "oracle extension --cycle 2,6,15,10 --k 1 --labels 0,2,50,200",
        2,
        "",
        (
            "usage: cyclesplines oracle extension [-h] [--cycle CYCLE] [--input INPUT]\n"
            "                                     [--format {human,machine}] --labels\n"
            "                                     LABELS\n"
            "cyclesplines oracle extension: error: unrecognized arguments: --k 1\n"
        ),
        "",
    ),
]


@pytest.mark.parametrize(
    "argv, code, human, human_err, machine", PINNED, ids=[case[0] for case in PINNED]
)
def test_stdout_bytes_and_exit_codes_are_pinned(
    monkeypatch, capsys, argv, code, human, human_err, machine
):
    # argparse wraps its usage lines to the terminal width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv.split()) == (code, human, human_err)
    assert run(capsys, *argv.split(), "--format", "machine")[:2] == (code, machine)


# ------------------------------------------------------- exact at any size

HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")
# one more digit than CPython's default int <-> str limit of 4300
WIDE = 10**4300


@contextlib.contextmanager
def unlimited_digits():
    """Lift the int <-> str digit limit while the test itself formats or
    parses numbers too wide for it."""
    if not HAS_DIGIT_LIMIT:
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def digit_limit():
    return sys.get_int_max_str_digits() if HAS_DIGIT_LIMIT else None


def run_machine(*argv):
    """main(argv) in machine mode under the caller's digit limit; the exit
    code, the parsed document and whether the limit came back unchanged."""
    before = digit_limit()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "machine"])
    restored = digit_limit() == before
    with unlimited_digits():
        return code, json.loads(out.getvalue()) if code == 0 else None, restored


@st.composite
def wide_cycles(draw):
    """Cycles of 3..6 labels, at least one wider than the digit limit, with
    coprime last two labels so the king basis exists.  Drawn as small
    numbers plus multiples of WIDE, so failing examples still print."""
    small = draw(st.lists(st.integers(1, 30), min_size=3, max_size=6))
    widen = draw(st.lists(st.integers(0, 3), min_size=len(small), max_size=len(small)))
    widen[draw(st.integers(0, len(small) - 1))] = 1
    return small, widen


@settings(max_examples=20, deadline=None)
@given(wide_cycles(), st.data())
def test_machine_output_round_trips_at_any_size(small_and_widen, data):
    labels = [lab + WIDE * w for lab, w in zip(*small_and_widen)]
    if math.gcd(labels[-2], labels[-1]) != 1:
        labels[-1] = labels[-2] + 1
    cycle = EdgeLabeledCycle(tuple(labels))
    n = cycle.n
    with unlimited_digits():
        cycle_arg = ",".join(map(str, cycle.labels))
    bases = {"triangulation": triangulation_basis(cycle), "king": king_basis(cycle)}
    for kind, basis in bases.items():
        code, payload, restored = run_machine("basis", "--cycle", cycle_arg, "--kind", kind)
        assert (code, restored) == (0, True)
        assert payload == {"kind": kind, "basis": [list(e.entries) for e in basis]}

        coefficients = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
        spline = reconstruct(coefficients, basis)
        with unlimited_digits():
            labels_arg = "--labels=" + ",".join(map(str, spline.entries))
        code, payload, restored = run_machine(
            "decompose", "--cycle", cycle_arg, labels_arg, "--kind", kind
        )
        assert (code, restored) == (0, True)
        assert payload == {"coefficients": list(decompose(Spline(spline.entries), basis))}

        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        cell = king_product(cycle, i, j) if kind == "king" else product_in_basis(basis, i, j)
        code, payload, restored = run_machine(
            "multiply", "--cycle", cycle_arg, "--kind", kind, "--i", str(i), "--j", str(j)
        )
        assert (code, restored) == (0, True)
        terms = [list(t) for t in cell.terms]
        assert payload == {"product": {"i": cell.i, "j": cell.j, "terms": terms}}


def test_wide_label_from_input_file(tmp_path):
    cycle = EdgeLabeledCycle((10**4399 + 1, 2, 3))
    path = tmp_path / "cycle.json"
    with unlimited_digits():
        path.write_text(json.dumps({"cycle": list(cycle.labels)}))
    code, payload, restored = run_machine("basis", "--input", str(path), "--kind", "king")
    assert (code, restored) == (0, True)
    assert payload["basis"] == [list(e.entries) for e in king_basis(cycle)]


# ----------------------------------------------------- hostile input fuzz

# command -> its flags, with well-formed values for the 3-cycle 2,5,3
FUZZ_COMMANDS = {
    ("verify",): {"--labels": "0,2,12"},
    ("basis",): {"--kind": "king"},
    ("decompose",): {"--kind": "triangulation", "--labels": "1,3,13"},
    ("multiply",): {"--kind": "smallest", "--i": "1", "--j": "2"},
    ("table",): {"--kind": "king"},
    ("oracle", "smallest"): {"--k": "1"},
    ("oracle", "check-basis"): {"--candidates": "1,1,1;0,2,12;0,0,15"},
    ("oracle", "extension"): {"--labels": "0,2,12"},
}
FUZZ_INTS = st.one_of(
    st.integers(-2, 6).map(str),
    # past a machine word, and past CPython's default int <-> str limit
    st.sampled_from([str(2**63), str(-(2**63) - 1), "9" * 4301, "-" + "9" * 4301]),
    st.sampled_from(["", " ", "+", "1_0", "\u0661", "\uff11", "1.0", "0x1", "1e3"]),
)
FUZZ_LISTS = st.one_of(
    st.lists(FUZZ_INTS, max_size=5),
    st.lists(st.integers(-1, 20).map(str), min_size=3, max_size=3),
).map(",".join)
FUZZ_VALUES = {
    "--i": FUZZ_INTS,
    "--j": FUZZ_INTS,
    "--k": FUZZ_INTS,
    "--bound": FUZZ_INTS,
    "--max-states": FUZZ_INTS,
    "--labels": FUZZ_LISTS,
    "--candidates": st.lists(FUZZ_LISTS, max_size=4).map(";".join),
    "--kind": st.sampled_from(["triangulation", "king", "smallest", "royal"]),
    "--cycle": FUZZ_LISTS,
}
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.floats(),
        st.integers(-2, 8),
        st.sampled_from([2**63, WIDE]),
        st.text(max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=8,
)
NESTED = st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth)
# JSON texts: well-formed cycles, cycle and graph documents with any
# contents, any value at all, and arrays nested past the recursion limit
FUZZ_DOCUMENTS = st.one_of(
    st.lists(st.integers(1, 8), min_size=3, max_size=5).map(lambda c: json.dumps({"cycle": c})),
    JSON_VALUES.map(lambda labels: json.dumps({"cycle": labels})),
    st.tuples(JSON_VALUES, JSON_VALUES).map(
        lambda body: json.dumps({"graph": {"vertices": body[0], "edges": body[1]}})
    ),
    JSON_VALUES.map(json.dumps),
    NESTED,
    NESTED.map(lambda nested: '{"cycle": %s}' % nested),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FUZZ_COMMANDS)), st.data())
def test_hostile_argv_keeps_the_exit_code_contract(command, data):
    flags = dict(FUZZ_COMMANDS[command])
    # mostly the command's own flags, now and then one it does not take
    own = st.sampled_from(sorted({*flags, "--cycle"}))
    anything = st.sampled_from(sorted(FUZZ_VALUES))
    hostile = data.draw(st.sets(own, max_size=2) | st.sets(anything, max_size=1))
    for flag in sorted(hostile):
        flags[flag] = data.draw(FUZZ_VALUES[flag], label=flag)
    machine = data.draw(st.booleans(), label="machine")
    from_file = "--cycle" not in hostile and data.draw(st.booleans(), label="from file")
    with tempfile.TemporaryDirectory() as tmp:
        if from_file:
            flags["--input"] = os.path.join(tmp, "input.json")
            with unlimited_digits(), open(flags["--input"], "w", encoding="utf-8") as fh:
                fh.write(data.draw(FUZZ_DOCUMENTS, label="document"))
        else:
            flags.setdefault("--cycle", "2,5,3")
        # now and then a strict prefix of a flag, of two letters or more so
        # that it is no flag of its own; flags are spelled in full or refused
        long_flags = st.sampled_from(sorted(flag for flag in flags if len(flag) > 4))
        abbreviated = data.draw(st.sets(long_flags, max_size=1), label="abbreviated")
        spelled = {flag: flag for flag in flags}
        for flag in abbreviated:
            spelled[flag] = flag[: data.draw(st.integers(4, len(flag) - 1), label="prefix")]
        # --flag=value, so that a value starting with "-" is not read as a flag
        argv = [*command, *(f"{spelled[flag]}={value}" for flag, value in flags.items())]
        if machine:
            argv += ["--format", "machine"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    # no command searches, so none runs out of a budget (exit 3)
    assert code in (0, 1, 2)
    if machine and out.getvalue():
        with unlimited_digits():
            json.loads(out.getvalue())  # exactly one document, or this raises
    if abbreviated:
        assert code == 2
    # every failure says why on stderr, except a human-mode exit 1 whose
    # report is the output itself
    if code == 2 or (machine and code == 1):
        assert err.getvalue()
