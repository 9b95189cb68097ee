import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from contfrob.cli import ExperimentConfig, _parser, main
from contfrob.errors import ParseError

README = Path(__file__).resolve().parent.parent / "README.md"


def test_config_roundtrip():
    cfg = ExperimentConfig("ode-check", out="reports", seed=3,
                           expect="holds",
                           params={"example": "paper-ex1", "alpha": "0.9"})
    text = cfg.to_text()
    cfg2 = ExperimentConfig.from_text(text)
    assert cfg2 == cfg
    assert cfg2.params == cfg.params
    assert cfg2.to_text() == text


def test_config_rejects_unknown_keys():
    with pytest.raises(ParseError):
        ExperimentConfig("ode-check", params={"bogus": "1"})
    with pytest.raises(ParseError):
        ExperimentConfig.from_text("[experiment]\nkind = ode-check\n"
                                   "[params]\nnope = 2\n")
    with pytest.raises(ParseError):
        ExperimentConfig.from_text("[experiment]\nkind = no-such-kind\n")


def test_run_missing_config_exits_1(capsys):
    assert main(["run", "--config", "/nonexistent/missing.cfg"]) == 1


def test_frobenius_contact_form(tmp_path):
    rc = main(["frobenius", "--form", "dz - y*dx", "--grid", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "frobenius.csv").read_text()
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert rows[0] == "x,y,z,defect"
    defects = [float(r.split(",")[-1]) for r in rows[1:]]
    assert all(abs(d - 1.0) <= 1e-10 for d in defects)


def test_ode_check_paper_ex1(tmp_path):
    rc = main(["ode", "check", "--example", "paper-ex1", "--alpha", "0.9",
               "--beta", "0.5", "--gamma", "0.5", "--delta", "0.5",
               "--out", str(tmp_path), "--expect", "holds"])
    assert rc == 0
    text = (tmp_path / "ode_check.csv").read_text()
    assert "# verdict=Holds" in text
    assert "# config.example=paper-ex1" in text


def test_expect_mismatch_exits_2(tmp_path):
    rc = main(["ode", "check", "--example", "peano",
               "--out", str(tmp_path), "--expect", "holds"])
    assert rc == 2


def test_config_file_execution(tmp_path):
    cfg = ExperimentConfig("moduli-check", out=str(tmp_path),
                           params={"criterion": "osgood",
                                   "w": "lipschitz(k=1)"})
    path = tmp_path / "exp.cfg"
    path.write_text(cfg.to_text())
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "moduli_check.csv").exists()


def test_identical_configs_identical_bytes(tmp_path):
    args = ["ode", "funnel", "--example", "contraction", "--T", "0.5",
            "--deltas", "1e-2,1e-3", "--ensemble", "4", "--step", "0.002",
            "--seed", "11"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "ode_funnel.csv").read_bytes() == \
        (out2 / "ode_funnel.csv").read_bytes()


def test_surface_build_involutive(tmp_path):
    rc = main(["surface", "build", "--example", "involutive",
               "--eps1", "0.1", "--grid", "5", "--out", str(tmp_path),
               "--expect", "holds"])
    assert rc == 0
    text = (tmp_path / "surface.csv").read_text()
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert body[0] == "t1,t2,x,y,z,defect1,defect2"
    assert len(body) == 1 + 25


def test_dyn_dominate_csv(tmp_path):
    rc = main(["dyn", "dominate", "--example", "cat-map", "--k-max", "6",
               "--res", "3", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "dyn_dominate.csv").read_text()
    assert "# dominated=True" in text


def test_moduli_check_limit_criterion(tmp_path):
    rc = main(["moduli", "check", "--criterion", "limit",
               "--w", "hoelder(alpha=0.9,k=1)", "--w2", "loglip(beta=0.5,k=1)",
               "--out", str(tmp_path), "--expect", "holds"])
    assert rc == 0


def test_config_bad_seed_is_parse_error(tmp_path, capsys):
    text = "[experiment]\nkind = ode-check\nseed = abc\n"
    with pytest.raises(ParseError) as exc:
        ExperimentConfig.from_text(text)
    assert exc.value.position == 3
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("parse error: ")


def test_bad_cli_number_is_parse_error(tmp_path, capsys):
    rc = main(["ode", "check", "--point", "0,abc", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "point" in err


def test_surface_escape_reports_node_and_exit_time(tmp_path, capsys):
    rc = main(["surface", "build", "--example", "contact",
               "--x0", "0.45,0,0", "--grid", "5", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error [EscapeError]: trajectory left the domain")
    assert "node=(0, 4)" in err and "exit_time=" in err


def _run_config(tmp_path, kind, params):
    cfg = ExperimentConfig(kind, out=str(tmp_path), params=params)
    path = tmp_path / "exp.cfg"
    path.write_text(cfg.to_text())
    return main(["run", "--config", str(path)])


@pytest.mark.parametrize("kind,key,value", [
    ("dyn-traces", "eps", "abc"), ("dyn-dominate", "k_max", "1.5")])
def test_bad_scalar_param_is_parse_error(tmp_path, capsys, kind, key, value):
    assert _run_config(tmp_path, kind, {"example": "cat-map",
                                        key: value}) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {key} must be a single ")
    assert repr(value) in err


def test_dyn_dominate_k_max_0_is_step_count_error(tmp_path, capsys):
    rc = main(["dyn", "dominate", "--example", "cat-map", "--k-max", "0",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error [StepCountError]: ")
    assert "k_max >= 1, got 0" in err
    assert not (tmp_path / "dyn_dominate.csv").exists()


def test_dyn_traces_config_k_max_0_is_step_count_error(tmp_path, capsys):
    rc = _run_config(tmp_path, "dyn-traces",
                     {"example": "skew-product", "k_max": "0"})
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error [StepCountError]: ")
    assert "k_max >= 1, got 0" in err
    assert not (tmp_path / "dyn_traces.csv").exists()


def test_dyn_transport_negative_k_is_step_count_error(tmp_path, capsys):
    rc = main(["dyn", "transport", "--example", "cat-map", "--k", "-1",
               "--out", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error [StepCountError]: ")
    assert "got -1" in captured.err
    assert "transported" not in captured.out
    assert not (tmp_path / "dyn_transport.csv").exists()


@pytest.mark.parametrize("args", [
    ["ode", "check", "--T", "7", "--deltas", "1,2"],
    ["dyn", "transport", "--k-max", "99", "--eps-sweep", "zz"],
    ["pde", "check", "--x0", "1", "--eps-list", "9"]])
def test_action_rejects_flags_of_other_actions(tmp_path, args):
    with pytest.raises(SystemExit):
        main(args + ["--out", str(tmp_path)])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args,key,value", [
    (["ode", "check", "--alpha", "abc"], "alpha", "abc"),
    (["dyn", "dominate", "--k-max", "1.5"], "k_max", "1.5"),
    (["ode", "check", "--seed", "abc"], "seed", "abc")])
def test_bad_flag_value_is_parse_error(tmp_path, capsys, args, key, value):
    assert main(args + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {key} must be a single ")
    assert repr(value) in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args,key", [
    (["ode", "check", "--example", "paper-ex1", "--alpha", "2"], "alpha"),
    (["pde", "check", "--alpha", "2"], "alpha"),
    (["ode", "funnel", "--deltas", "1e-3"], "deltas"),
    (["ode", "funnel", "--step", "-0.1"], "step"),
    (["surface", "build", "--step", "0"], "step"),
    (["surface", "build", "--order", "0,0"], "order"),
    (["surface", "build", "--grid", "1"], "grid"),
    (["mollify", "verify", "--n", "1"], "n"),
    (["mollify", "verify", "--lo", "1", "--hi", "0"], "lo"),
    (["frobenius", "--form", "dx", "--grid", "0"], "grid"),
    (["pde", "frames", "--grid", "0"], "grid"),
    (["pde", "solve-special", "--targets-res", "0"], "targets_res"),
    (["dyn", "dominate", "--res", "0"], "res"),
    (["ode", "funnel", "--ensemble", "-1"], "ensemble"),
    (["frobenius", "--form", "dx", "--extent", "0"], "extent"),
    (["moduli", "check", "--w", "lipschitz(k=1)", "--depth", "0"], "depth"),
    (["pde", "check", "--example", "paper-ex3", "--columns", "2,2"],
     "columns"),
    (["ode", "funnel", "--T", "-1"], "T")])
def test_out_of_range_value_exits_1(tmp_path, capsys, args, key):
    assert main(args + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(("error [RangeError]: ", "parse error: "))
    assert re.search(rf"\b{key}\b", err)
    assert not any(tmp_path.iterdir())


def test_malformed_number_is_parse_error(tmp_path, capsys):
    args = ["mollify", "verify", "--expr", "x*1.2.3", "--out", str(tmp_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "parse error: malformed number '1.2.3' (at position 2)\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["frobenius"],
    ["ode", "check", "--T", "7"]], ids=["missing-form", "foreign-flag"])
def test_usage_error_exits_1(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(tmp_path)])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["frobenius", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("body,line", [
    ("[experiment]\nkind = moduli-check\nseed = 1\nseed = 2\n"
     "[params]\nw = lipschitz(k=1)\n", 4),
    ("[experiment]\nkind = moduli-check\n[params]\nw = lipschitz(k=1)\n"
     "w = hoelder(alpha=0.5,k=1)\n", 5)], ids=["experiment", "params"])
def test_config_repeated_key_is_parse_error(tmp_path, capsys, body, line):
    with pytest.raises(ParseError) as exc:
        ExperimentConfig.from_text(body)
    assert exc.value.position == line
    path = tmp_path / "dup.cfg"
    path.write_text(f"{body}[experiment]\nout = {tmp_path}\n")
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("parse error: repeated key")
    assert not (tmp_path / "moduli_check.csv").exists()


@pytest.mark.parametrize("kind,params,key", [
    ("moduli-check", {"criterion": "osgood"}, "w"),
    ("frobenius", {"grid": "3"}, "form")])
def test_config_missing_required_param_is_parse_error(tmp_path, capsys, kind,
                                                      params, key):
    body = "".join(f"{k} = {v}\n" for k, v in params.items())
    path = tmp_path / "missing.cfg"
    path.write_text(f"[experiment]\nkind = {kind}\nout = {tmp_path}\n"
                    f"[params]\n{body}")
    with pytest.raises(ParseError, match=f"missing keys for '{kind}'"):
        ExperimentConfig.from_text(path.read_text())
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: missing keys") and repr(key) in err
    assert list(tmp_path.glob("*.csv")) == []


def _readme_commands():
    """The argument lists of the README's command-line examples."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```", 2)[1].replace("\\\n", " ")
    return [shlex.split(ln)[1:] for ln in block.splitlines()
            if ln.startswith("contfrob ")]


@pytest.mark.parametrize("words", _readme_commands(),
                         ids=lambda words: " ".join(words[:2]))
def test_readme_command_parses(words):
    assert _parser().parse_args(words).command == words[0]
