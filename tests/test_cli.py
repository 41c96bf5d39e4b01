"""CLI and presentation file round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import ribbontensor
from ribbontensor.arrow import canonical_form
from ribbontensor.cli import main
from ribbontensor.errors import ParseError
from ribbontensor.files import dumps_presentation, loads_presentation

from strategies import packaged_presentations

FIG_A = {"circles": [["f+", "e+", "g+", "e+"], ["f+", "g+"]]}
FIG_DELETE = {"circles": [["f+", "g+"], ["f+", "g+"]]}
K3 = {"circles": [["e+", "e-"]]}
SRC = str(Path(ribbontensor.__file__).resolve().parents[1])
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


@settings(deadline=None, max_examples=200)
@given(packaged_presentations(0, 5))
def test_written_partitions_hold_only_ints_and_round_trip(pg):
    text = dumps_presentation(pg)
    data = json.loads(text)
    for key in ("vertex_partition", "boundary_partition"):
        assert all(type(i) is int for block in data[key] for i in block)
    assert dumps_presentation(loads_presentation(text)) == text


@pytest.mark.parametrize("key", ["vertex_partition", "boundary_partition"])
@pytest.mark.parametrize(
    "blocks", [5, [5], [[[0]]], [[{}]], [[0.0]], [[False]], [[0, 0]]],
    ids=["int", "list-of-int", "nested-list", "object", "float", "bool", "repeat"],
)
def test_bad_partition_rejected(tmp_path, capsys, key, blocks):
    data = {"circles": [["e+", "e-"]], key: blocks}
    with pytest.raises(ParseError):
        loads_presentation(json.dumps(data))
    assert main(["info", write(tmp_path, "p.json", data)]) == 2
    assert "error:" in capsys.readouterr().err


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
    from ribbontensor import tensor_formula
    from ribbontensor.tensor_formula import Failure, VerifyReport

    def fake_run(kind, seed, instances, points):
        return VerifyReport(
            kind.value, seed, instances, points,
            (Failure("inst", {"a": "1"}, (("zdot", "1", "2"),)),), 0.0, 1,
        )

    monkeypatch.setattr(tensor_formula, "run_verification", fake_run)
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
    proc = subprocess.Popen(
        [sys.executable, "-m", "ribbontensor.cli", "verify", "main",
         "--instances", "2", "--points", "2", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "ribbontensor.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )


def assert_one_error_line(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_non_utf8_file_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    assert_one_error_line(run_cli("info", str(path)))


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, "[" + "1" * 5000 + "]"],
                         ids=["too-deep", "long-integer"])
def test_json_beyond_the_decoder_limits_exits_2(tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert_one_error_line(run_cli("info", str(path)))


def test_unwritable_output_exits_2(tmp_path):
    out = tmp_path / "missing" / "x.json"
    proc = run_cli("op", write(tmp_path, "k3.json", K3), "e", "delete", "--out", str(out))
    assert_one_error_line(proc)
    assert str(out) in proc.stderr


# Run in a fresh interpreter: which ribbontensor modules each command loaded.
IMPORT_PROBE = """
import json, sys
from ribbontensor.cli import main

def loaded():
    return sorted(m for m in sys.modules if m.startswith("ribbontensor."))

a, h = sys.argv[1:3]
main(["info", a])
main(["op", a, "e", "contract"])
main(["tensor", a, h, "--edge", "f", "--coupling-mode", "random:3"])
surgery = loaded()
main(["poly", a, "--which", "tutte"])
print(json.dumps([surgery, loaded()]))
"""


def test_commands_load_only_the_modules_they_use(tmp_path):
    a = write(tmp_path, "a.json", FIG_A)
    h = write(tmp_path, "h.json", {"circles": [["f+", "g-"], ["f-", "g+"]]})
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, a, h],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC), check=True,
    )
    surgery, with_poly = json.loads(proc.stdout.splitlines()[-1])
    engines = {f"ribbontensor.{m}" for m in ("poly", "polynomials", "tensor_formula", "randgen")}
    assert not engines & set(surgery)
    assert {"ribbontensor.poly", "ribbontensor.polynomials"} <= set(with_poly)
    assert not {"ribbontensor.tensor_formula", "ribbontensor.randgen"} & set(with_poly)


def test_package_root_resolves_every_public_name():
    for name in ribbontensor.__all__:
        value = getattr(ribbontensor, name)
        home = sys.modules[f"ribbontensor.{ribbontensor._HOME[name]}"]
        assert value is (home if home.__name__ == f"ribbontensor.{name}" else getattr(home, name))
    assert set(ribbontensor.__all__) <= set(dir(ribbontensor))
    with pytest.raises(AttributeError):
        ribbontensor.no_such_name
    namespace = {}
    exec("from ribbontensor import *", namespace)
    for name in ribbontensor.__all__:
        assert namespace[name] is getattr(ribbontensor, name)
