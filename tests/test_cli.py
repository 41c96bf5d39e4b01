"""CLI and presentation file round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ribbontensor
from ribbontensor.arrow import canonical_form
from ribbontensor.cli import main
from ribbontensor.errors import ParseError
from ribbontensor.files import dumps_presentation, loads_presentation

FIG_A = {"circles": [["f+", "e+", "g+", "e+"], ["f+", "g+"]]}
FIG_DELETE = {"circles": [["f+", "g+"], ["f+", "g+"]]}
K3 = {"circles": [["e+", "e-"]]}
ALIGNED = {"circles": [["e+", "e+"]]}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_round_trip(tmp_path):
    text = json.dumps(
        {
            "circles": [["e+", "f-"], ["e-"], ["f+"], []],
            "vertex_partition": [[0, 3], [1], [2]],
        }
    )
    pg = loads_presentation(text)
    again = loads_presentation(dumps_presentation(pg))
    assert again == pg
    assert loads_presentation(dumps_presentation(again)) == again


def test_parse_error_has_location():
    with pytest.raises(ParseError) as err:
        loads_presentation("{bad json")
    assert err.value.line == 1


def test_bad_token_rejected():
    with pytest.raises(ParseError):
        loads_presentation(json.dumps({"circles": [["e"]]}))


def test_info_golden(tmp_path, capsys):
    assert main(["info", write(tmp_path, "a.json", FIG_A)]) == 0
    out = capsys.readouterr().out
    assert "v=2 e=3 k=1 b=1 genus=2 orientable=yes" in out
    assert "vertex_classes=2 boundary_classes=1" in out
    assert "boundary 0:" in out


def test_info_edgeless(tmp_path, capsys):
    assert main(["info", write(tmp_path, "b.json", {"circles": [[]]})]) == 0
    out = capsys.readouterr().out
    assert "v=1 e=0 k=1 b=1 genus=0" in out
    assert "bare circle 0" in out


def test_info_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["info", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_op_delete_matches_fixture(tmp_path):
    out_path = tmp_path / "out.json"
    code = main(
        ["op", write(tmp_path, "a.json", FIG_A), "e", "delete", "--out", str(out_path)]
    )
    assert code == 0
    got = loads_presentation(out_path.read_text())
    expect = loads_presentation(json.dumps(FIG_DELETE))
    assert canonical_form(got.ap) == canonical_form(expect.ap)


def test_op_unknown_edge(tmp_path, capsys):
    assert main(["op", write(tmp_path, "a.json", FIG_A), "zz", "delete"]) == 2
    assert "zz" in capsys.readouterr().err


def test_twosum_two_vertex_example(tmp_path):
    g = write(tmp_path, "g.json", {"circles": [["f+", "f+"]]})
    h = write(
        tmp_path, "h.json", {"circles": [["e+"], ["e+", "k+"], ["k+"]]}
    )
    out_path = tmp_path / "out.json"
    assert main(["twosum", g, h, "--coupling", "f:e:straight", "--out", str(out_path)]) == 0
    assert len(loads_presentation(out_path.read_text()).ap.circles) == 2


def test_twosum_bad_coupling(tmp_path, capsys):
    g = write(tmp_path, "g.json", ALIGNED)
    assert main(["twosum", g, g, "--coupling", "e=e"]) == 2


def test_tensor_seeded_determinism(tmp_path):
    g = write(tmp_path, "g.json", FIG_A)
    h = write(tmp_path, "h.json", {"circles": [["e+", "k+", "e-", "k+"]]})
    out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
    for out in (out1, out2):
        code = main(
            ["tensor", g, h, "--edge", "e", "--coupling-mode", "random:7",
             "--out", str(out)]
        )
        assert code == 0
    assert out1.read_text() == out2.read_text()


def test_tensor_bad_random_seed(tmp_path, capsys):
    g = write(tmp_path, "g.json", FIG_A)
    h = write(tmp_path, "h.json", K3)
    assert main(["tensor", g, h, "--edge", "e", "--coupling-mode", "random:abc"]) == 2
    assert "random:abc" in capsys.readouterr().err


def test_tensor_unknown_factor_edge(tmp_path, capsys):
    g = write(tmp_path, "g.json", FIG_A)
    h = write(tmp_path, "h.json", K3)
    assert main(["tensor", g, h, "--edge", "zz"]) == 2
    err = capsys.readouterr().err
    assert "no edge labelled 'zz'" in err and "e.zz" not in err


def test_poly_q_on_k3(tmp_path, capsys):
    assert main(["poly", write(tmp_path, "k3.json", K3), "--which", "q"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == (
        "a*alpha*beta*gamma + b*alpha*beta*gamma + x*alpha*beta*gamma"
        " + y*alpha*beta*gamma + c*alpha^2*beta*gamma"
    )


def test_poly_br_and_tutte(tmp_path, capsys):
    assert main(["poly", write(tmp_path, "k3.json", K3), "--which", "br"]) == 0
    assert capsys.readouterr().out.strip() == "1 + y*z"
    assert main(["poly", write(tmp_path, "l.json", ALIGNED), "--which", "tutte"]) == 0
    assert capsys.readouterr().out.strip() == "y"


def test_poly_json_format(tmp_path, capsys):
    assert main(
        ["poly", write(tmp_path, "l.json", ALIGNED), "--which", "zdot", "--format", "json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["which"] == "zdot"
    assert data["polynomial"] == "a*b + a*c"


def test_verify_pass_and_exit_codes(tmp_path, capsys):
    code = main(["verify", "tutte", "--seed", "1", "--instances", "3", "--points", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "result=PASS" in out
    assert "comparisons=12" in out  # 3 x 2 points, two comparisons each
    assert "resampled=0" in out


def test_verify_json_format(capsys):
    code = main(
        ["verify", "corz", "--seed", "2", "--instances", "2", "--points", "2",
         "--format", "json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == "pass" and data["failures"] == []
    assert data["comparisons"] == 4
    assert data["resampled"] == 0


def test_verify_unknown_theorem(capsys):
    assert main(["verify", "nosuch"]) == 2
    assert "unknown theorem" in capsys.readouterr().err


def test_verify_failure_exit_code(monkeypatch, capsys):
    from ribbontensor import cli as cli_mod
    from ribbontensor.tensor_formula import Failure, VerifyReport

    def fake_run(kind, seed, instances, points):
        return VerifyReport(
            kind.value, seed, instances, points,
            (Failure("inst", {"a": "1"}, (("zdot", "1", "2"),)),), 0.0, 1,
        )

    monkeypatch.setattr(cli_mod, "run_verification", fake_run)
    assert main(["verify", "tutte"]) == 1
    assert "result=FAIL" in capsys.readouterr().out


def test_verify_rejects_empty_runs(capsys):
    assert main(["verify", "main", "--instances", "-3", "--points", "0"]) == 2
    captured = capsys.readouterr()
    assert "result=" not in captured.out
    assert "at least one instance and one point" in captured.err


def test_bad_edge_cap_exits_2(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "k3.json", K3)
    for value in ("abc", "0"):
        monkeypatch.setenv("RIBBONTENSOR_EDGE_CAP", value)
        assert main(["poly", path, "--which", "br"]) == 2
        assert "RIBBONTENSOR_EDGE_CAP" in capsys.readouterr().err


def test_recursions_respect_edge_cap(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "fig_a.json", FIG_A)
    monkeypatch.setenv("RIBBONTENSOR_EDGE_CAP", "2")
    for which in ("q", "qmv", "transition"):
        assert main(["poly", path, "--which", which]) == 2
        assert "resolution DAG capped at 2 edges, got 3" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reader_closing_early_gives_no_traceback(fmt):
    # The reader's end of the pipe is closed before the command writes, as
    # `ribbontensor verify ... | head -1` does once head has its line.
    src = str(Path(ribbontensor.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "ribbontensor.cli", "verify", "main",
         "--instances", "2", "--points", "2", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
