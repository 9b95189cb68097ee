import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from contfrob.cli import _KINDS, ExperimentConfig, _parser, main
from contfrob.errors import ParseError

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


@pytest.mark.parametrize("text", ["0", "-0.1", "inf", "nan"])
def test_surface_eps1_is_checked_first(tmp_path, capsys, text):
    # the default step eps1/32 is derived after the check, so eps1 0 no
    # longer reports a step the user never gave, and inf reaches no flow
    assert main(["surface", "build", "--eps1", text, "--out",
                 str(tmp_path)]) == 1
    flag_err = capsys.readouterr().err
    assert _run_config(tmp_path, "surface", {"eps1": text}) == 1
    assert capsys.readouterr().err == flag_err
    assert flag_err == (f"error [RangeError]: eps1 must be positive and "
                        f"finite, got {float(text)}\n")
    assert list(tmp_path.glob("*.csv")) == []


def test_funnel_beyond_max_time_escapes_without_overflow(tmp_path):
    # every row asks for more than MAX_TIME and escapes at once; the step
    # count of such a row is never computed, so 1e308 / step cannot
    # overflow (pytest turns that RuntimeWarning into an error)
    assert main(["ode", "funnel", "--example", "peano", "--T", "1e308",
                 "--out", str(tmp_path)]) == 0
    rows = [ln.split(",") for ln in (tmp_path / "ode_funnel.csv")
            .read_text().splitlines() if not ln.startswith("#")][1:]
    assert [row[1:] for row in rows] == [["0.0", "11"]] * 4


def test_dyn_dominate_csv(tmp_path):
    rc = main(["dyn", "dominate", "--example", "cat-map", "--k-max", "6",
               "--res", "3", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "dyn_dominate.csv").read_text()
    assert "# dominated=True" in text


@pytest.mark.parametrize("args, name, inf_rows", [
    (["dyn", "dominate", "--eps-sweep", "1e4"], "dyn_dominate.csv", 2),
    (["dyn", "traces", "--eps", "3000"], "dyn_traces.csv", 0),
], ids=["dominate", "traces"])
def test_dyn_exp_overflow_is_inf(tmp_path, args, name, inf_rows):
    # e^{eps * |E|} overflows at these eps: the domination weight q is
    # inf where it does, instead of an OverflowError.  The traces run
    # computes q as well, but its CSV holds only the finite trace columns
    rc = main(args + ["--example", "cat-map", "--out", str(tmp_path)])
    assert rc == 0
    rows = [ln.split(",") for ln in (tmp_path / name).read_text()
            .splitlines() if not ln.startswith("#")][1:]
    assert len(rows) >= 8
    assert sum("inf" in row for row in rows) == inf_rows


def test_moduli_check_limit_criterion(tmp_path):
    rc = main(["moduli", "check", "--criterion", "limit",
               "--w", "hoelder(alpha=0.9,k=1)", "--w2", "loglip(beta=0.5,k=1)",
               "--out", str(tmp_path), "--expect", "holds"])
    assert rc == 0


def test_moduli_check_limit_zero_w1_is_singular(tmp_path, capsys):
    assert main(["moduli", "check", "--criterion", "limit", "--w",
                 "lipschitz(k=0)", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error [SingularIntegrandError]: w1 Lipschitz(K=0.0, "
        "domain_cap=inf) vanishes at scale 1\n")
    assert list(tmp_path.glob("*.csv")) == []


def test_moduli_check_osgood_overflowing_w_is_singular(tmp_path, capsys):
    # w = 1e616 s is inf at every probe scale; this used to print a
    # RuntimeWarning and certify uniqueness from nan tail ratios
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["moduli", "check", "--criterion", "osgood", "--w",
                     "scale(1e308, scale(1e308, lipschitz()))", "--out",
                     str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error [SingularIntegrandError]: modulus is inf at the probe scale "
        "0.36787944117144233\n")
    assert list(tmp_path.glob("*.csv")) == []


def test_moduli_check_non_finite_breakpoint_is_parse_error(tmp_path, capsys):
    # tabulated(0.1:1, 0.2:inf) used to give verdict=Holds
    assert main(["moduli", "check", "--criterion", "limit", "--w",
                 "tabulated(0.1:1, 0.2:inf)", "--w2", "lipschitz()",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "parse error: invalid modulus 'tabulated(0.1:1, 0.2:inf)': "
        "breakpoint 1 must be finite, got 0.2:inf\n")
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("w", ["scale(nan, lipschitz())", "lipschitz(k=inf)",
                               "scale(inf, lipschitz())", "loglip(cap=5)"])
def test_modulus_out_of_range_is_parse_error(tmp_path, capsys, w):
    # each one used to certify uniqueness: verdict=Holds
    assert main(["moduli", "check", "--criterion", "osgood", "--w", w,
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("parse error: invalid modulus ")
    assert list(tmp_path.glob("*.csv")) == []


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


def test_surface_step_count_over_the_cap_exits_1(tmp_path, capsys):
    rc = main(["surface", "build", "--step", "1e-310", "--out",
               str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error [RangeError]: flow time ")
    assert "more than MAX_STEPS = 1000000" in err
    assert list(tmp_path.glob("*.csv")) == []


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


def test_dyn_traces_n_dirs_is_gone(tmp_path, capsys):
    # the traces' sups are exact, so dyn traces has no n_dirs any more
    path = tmp_path / "exp.cfg"
    path.write_text("[experiment]\nkind = dyn-traces\n[params]\n"
                    "example = skew-product\nn_dirs = 64\n")
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "parse error: unknown keys for 'dyn-traces': ['n_dirs']\n")
    with pytest.raises(SystemExit) as exc:
        main(["dyn", "traces", "--example", "skew-product", "--n-dirs", "64",
              "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert "unrecognized arguments: --n-dirs 64" in capsys.readouterr().err
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


def test_dyn_transport_angles_shrink_at_the_stable_rate(tmp_path):
    # E_k nears the invariant bundle by lambda_s^2 = (7 - 3 sqrt 5) / 2
    # per step, down to 7e-9 rad at k = 10, below arccos's 2^-26 floor
    assert main(["dyn", "transport", "--example", "skew-product", "--k",
                 "10", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "dyn_transport.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert rows[0] == ["k", "max_angle_to_next", "max_angle_to_limit"]
    to_limit = [float(row[2]) for row in rows[1:]]
    rate = (7.0 - 3.0 * math.sqrt(5.0)) / 2.0
    for k in range(5, 11):
        assert to_limit[k] / to_limit[k - 1] == pytest.approx(rate, rel=0.01)


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


_PEANO = ["--example", "peano", "--point"]


@pytest.mark.parametrize("args,message", [
    (["ode", "check", *_PEANO, "5,5"], "t must be finite and lie in the "
     "domain's [0.0, 1.1], got 5.0"),
    (["ode", "check", *_PEANO, "0.5,0.7"], "y must be finite and lie in the "
     "domain's [-0.6, 0.6], got 0.7"),
    (["ode", "check", *_PEANO, "inf,0"], "t must be finite and lie in the "
     "domain's [0.0, 1.1], got inf"),
    (["ode", "funnel", *_PEANO, "nan,0"], "t must be finite and lie in the "
     "domain's [0.0, 1.1], got nan"),
    (["pde", "check", "--point", "9,9,9,9"], "x1 must be finite and lie in "
     "the domain's [0.2, 0.7], got 9.0"),
    (["pde", "check", "--point", "nan,0.25,0.5,0.5"], "x1 must be finite "
     "and lie in the domain's [0.2, 0.7], got nan"),
    *[(["moduli", "check", "--w", "hoelder(alpha=0.5)", "--eps", eps],
       f"eps must be positive and finite, got {eps}")
      for eps in ("nan", "0.0", "-1.0", "inf")],
    (["dyn", "traces", "--eps", "-1"], "eps must be nonnegative and finite, "
     "got -1.0"),
    (["dyn", "traces", "--eps", "nan"], "eps must be nonnegative and finite, "
     "got nan"),
    (["dyn", "dominate", "--eps-sweep", "0.1,nan"], "eps must be "
     "nonnegative and finite, got nan"),
    (["surface", "build", "--x0", "5,5,5"], "x must be finite and lie in "
     "the domain's [-0.5, 0.5], got 5.0"),
    (["surface", "build", "--x0", "nan,0,0"], "x must be finite and lie in "
     "the domain's [-0.5, 0.5], got nan"),
    (["pde", "solve-special", "--example", "paper-ex2", "--x0", "0.3,0.3",
      "--y0", "nan,0.5"], "y1 must be finite and lie in the domain's "
     "[0.15, 0.9], got nan"),
    (["pde", "solve-special", "--example", "paper-ex2", "--x0", "9,9"],
     "x1 must be finite and lie in the domain's [0.2, 0.7], got 9.0"),
])
def test_value_a_check_cannot_take_is_range_error(tmp_path, capsys, args,
                                                  message):
    # a verdict at a point outside the domain, or for an eps the
    # criterion does not take, would mean nothing: no report is written
    assert main(args + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error [RangeError]: {message}\n"
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


# each kind's accepted param keys, one flag --key (with - for _) per key
KIND_KEYS = {
    "ode-check": ["alpha", "beta", "delta", "example", "gamma", "point"],
    "ode-funnel": ["T", "alpha", "beta", "delta", "deltas", "ensemble",
                   "example", "gamma", "point", "step"],
    "pde-check": ["a11", "a12", "a21", "a22", "alpha", "b1", "b2", "beta",
                  "columns", "example", "point"],
    "pde-solve-special": ["alpha", "beta", "example", "targets_res", "x0",
                          "y0"],
    "pde-frames": ["alpha", "beta", "eps_list", "example", "grid"],
    "frobenius": ["extent", "form", "grid"],
    "moduli-check": ["criterion", "depth", "eps", "w", "w2"],
    "mollify-verify": ["eps_list", "expr", "hi", "lo", "n", "w", "w_axis"],
    "surface": ["eps1", "example", "grid", "order", "step", "x0"],
    "dyn-transport": ["example", "k", "res", "tau_amp"],
    "dyn-dominate": ["eps_sweep", "example", "k_max", "res", "tau_amp"],
    "dyn-traces": ["eps", "example", "k_max", "res", "tau_amp"],
}


@pytest.mark.parametrize("kind,keys", KIND_KEYS.items(), ids=list(KIND_KEYS))
def test_each_kind_accepts_exactly_its_keys(kind, keys):
    assert sorted(prm.key for prm in _KINDS[kind].params) == keys
    flags = [a for k in keys for a in ("--" + k.replace("_", "-"), "v")]
    ns = _parser().parse_args([*_KINDS[kind].words, *flags])
    assert ns.kind == kind and all(getattr(ns, k) == "v" for k in keys)
    ExperimentConfig(kind, params=dict.fromkeys(keys, "v"))


def test_default_example_flag_writes_the_same_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ode", "check", "--out", str(out1)]) == 0
    assert main(["ode", "check", "--example", "paper-ex1",
                 "--out", str(out2)]) == 0
    text = (out1 / "ode_check.csv").read_bytes()
    assert text == (out2 / "ode_check.csv").read_bytes()
    assert b"# config.example=paper-ex1\n" in text


def test_config_without_example_records_none(tmp_path):
    assert _run_config(tmp_path, "ode-check", {}) == 0
    text = (tmp_path / "ode_check.csv").read_text()
    assert "# verdict=Holds" in text
    assert "config.example" not in text


def test_malformed_value_the_example_ignores_is_parse_error(tmp_path,
                                                            capsys):
    # paper-ex3 reads no alpha, but every given value is read before work
    assert _run_config(tmp_path, "pde-check",
                       {"example": "paper-ex3", "alpha": "abc"}) == 1
    assert capsys.readouterr().err == (
        "parse error: alpha must be a single float, got 'abc'\n")
    assert list(tmp_path.glob("*.csv")) == []


def test_unknown_criterion_flag_is_parse_error(tmp_path, capsys):
    assert main(["moduli", "check", "--criterion", "bogus",
                 "--w", "lipschitz(k=1)", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "parse error: criterion must be one of osgood, limit, "
        "got 'bogus'\n")
    assert not any(tmp_path.iterdir())


def test_unknown_criterion_in_config_is_parse_error(tmp_path, capsys):
    assert _run_config(tmp_path, "moduli-check",
                       {"criterion": "bogus", "w": "lipschitz(k=1)"}) == 1
    assert capsys.readouterr().err == (
        "parse error: criterion must be one of osgood, limit, "
        "got 'bogus'\n")
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("kind,example,key", [
    ("ode-check", "peano", "alpha"), ("pde-check", "paper-ex3", "beta"),
    ("dyn-traces", "cat-map", "tau_amp")])
def test_key_the_example_does_not_read_is_parse_error(tmp_path, capsys, kind,
                                                      example, key):
    # on the flag path and the config path alike, before any work
    words = [*_KINDS[kind].words, "--example", example,
             "--" + key.replace("_", "-"), "0.7", "--out", str(tmp_path)]
    assert main(words) == 1
    flag_err = capsys.readouterr().err
    assert _run_config(tmp_path, kind, {"example": example, key: "0.7"}) == 1
    assert capsys.readouterr().err == flag_err
    assert flag_err.startswith(f"parse error: example {example!r} does not "
                               f"read {key}; it reads ")
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("kind,params,key,value,want", [
    ("ode-check", {"example": "peano"}, "point", "0.1", 2),
    ("ode-funnel", {}, "point", "0.1", 3),
    ("pde-check", {}, "point", "0.1", 4),
    ("pde-check", {"example": "paper-ex3"}, "point", "0,0,0,0,0", 4),
    ("pde-solve-special", {}, "x0", "0.3", 2),
    ("pde-solve-special", {}, "y0", "0.5,0.5,0.5", 2),
    ("surface", {}, "x0", "0,0", 3)])
def test_point_of_wrong_length_is_parse_error(tmp_path, capsys, monkeypatch,
                                              kind, params, key, value, want):
    from contfrob import cli

    def never(*args, **kwargs):
        raise AssertionError("integration started on a malformed point")
    for name in ("theorem1_check", "funnel", "theorem2_check",
                 "special_solve", "build_surface"):
        monkeypatch.setattr(cli, name, never)
    words = [*_KINDS[kind].words, "--" + key, value, "--out", str(tmp_path)]
    for k, v in params.items():
        words += ["--" + k, v]
    assert main(words) == 1
    flag_err = capsys.readouterr().err
    assert _run_config(tmp_path, kind, {**params, key: value}) == 1
    assert capsys.readouterr().err == flag_err
    got = len(value.split(","))
    assert re.fullmatch(rf"parse error: {key} must have {want} values, one "
                        rf"per coordinate [\w, ]+; got {got}\n", flag_err)
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("kind,key", [
    ("pde-frames", "eps_list"), ("mollify-verify", "eps_list"),
    ("dyn-dominate", "eps_sweep")])
@pytest.mark.parametrize("text", [",", ""])
def test_empty_list_value_is_parse_error(tmp_path, capsys, kind, key, text):
    flag = "--" + key.replace("_", "-")
    assert main([*_KINDS[kind].words, flag, text, "--out",
                 str(tmp_path)]) == 1
    flag_err = capsys.readouterr().err
    assert _run_config(tmp_path, kind, {key: text}) == 1
    assert capsys.readouterr().err == flag_err
    assert flag_err == (f"parse error: {key} must be a comma-separated list "
                        f"of floats, got no items in {text!r}\n")
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("kind", ["pde-frames", "mollify-verify"])
@pytest.mark.parametrize("text,bad", [("0", "0"), ("0.125,-0.1", "-0.1")])
def test_non_positive_eps_is_range_error(tmp_path, capsys, kind, text, bad):
    assert main([*_KINDS[kind].words, "--eps-list", text, "--out",
                 str(tmp_path)]) == 1
    flag_err = capsys.readouterr().err
    assert _run_config(tmp_path, kind, {"eps_list": text}) == 1
    assert capsys.readouterr().err == flag_err
    assert flag_err == f"error [RangeError]: eps must be positive, got {bad}\n"
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("expr", ["1", "-2.5"])
def test_mollify_verify_constant_expression(tmp_path, capsys, expr):
    assert main(["mollify", "verify", "--expr", expr, "--out",
                 str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("mollify bounds hold=True")
    body = (tmp_path / "mollify_verify.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in body if not ln.startswith("#")][1:]
    assert len(rows) == 3
    # a constant mollifies to itself: no distance, no derivative
    for row in rows:
        assert abs(float(row[1])) <= 1e-15 * max(1.0, abs(float(expr)))
        assert float(row[2]) == 0.0


def test_python_dash_m_runs_the_cli(tmp_path):
    args = ["frobenius", "--form", "dz - y*dx", "--grid", "3"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "contfrob", *args, "--out",
                          str(tmp_path / "m")], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert main([*args, "--out", str(tmp_path / "main")]) == 0
    assert (tmp_path / "m" / "frobenius.csv").read_bytes() == \
        (tmp_path / "main" / "frobenius.csv").read_bytes()
