"""Byte-level golden digests of CLI reports.

Each case runs one CLI command and compares the SHA-256 of the CSV it
writes against a digest captured before the code it exercises was last
restructured (the trajectory engine and field evaluator for the first
five, the dynsys cocycle for the two dyn dominate/transport cases, the
table-driven CLI and the shared CSV formatter for the rest).  Refactors
must keep every report byte-identical; a changed digest means a changed
number.  The surface.csv digest was captured again when the contact
tangency bound's ||dA|_E|| became the exact closed form: the sampled
1.0000000000000002 became 1.0, so rhs went 0.20000000000000007 -> 0.2.
The elementary-functions case was captured before log, exp, sin and cos
moved into one table-driven node.
"""

import hashlib

import pytest

from contfrob.cli import ExperimentConfig, main

GOLDEN = [
    (["surface", "build", "--example", "contact", "--eps1", "0.1",
      "--grid", "9"], "surface.csv",
     "52875f8753620ef7ec086423768e69338403fa4e2ff7d029c2d113ea13fde3d1"),
    (["dyn", "traces", "--example", "skew-product", "--k-max", "8",
      "--eps", "1.0"], "dyn_traces.csv",
     "60ffebe3715810a6bc94d51e2d3f521d8c45e25f519e31983707b5ae59ed3430"),
    (["pde", "check", "--example", "paper-ex3", "--columns", "2,3"],
     "pde_check.csv",
     "1bc56971d5c3239e75b36a556a1610caf0e9cd333437390db966e7bd5054a7f2"),
    (["frobenius", "--form", "dz - y*dx"], "frobenius.csv",
     "f8b5ef10c54e1507a11fef7e56e285348c348798294198d24dcdebebed622b82"),
    (["ode", "funnel", "--example", "peano", "--T", "1",
      "--deltas", "1e-3,1e-4,1e-5", "--ensemble", "4", "--step", "0.004"],
     "ode_funnel.csv",
     "0e3b82f2659b1037c9a22d24f7c846c12613754a500d555e45dcbcd15ea8f4e8"),
    (["dyn", "dominate", "--example", "cat-map", "--k-max", "15"],
     "dyn_dominate.csv",
     "cf801409d391cc9c1b416d9b95fa96a1d01d7705d2fbc947c7c91be5bb09f433"),
    (["dyn", "transport", "--example", "skew-product", "--k", "10"],
     "dyn_transport.csv",
     "906eea957b33123c4abb5bbe0afa23944178c3221dde178e6cc1497cb73dc37d"),
    (["ode", "check", "--example", "paper-ex1", "--alpha", "0.9",
      "--beta", "0.5", "--gamma", "0.5", "--delta", "0.5"], "ode_check.csv",
     "f1e318ad83fa499e2d61dd0462a3ce42ec09864fdb157b151f48012e1cc72290"),
    (["pde", "solve-special", "--example", "paper-ex2", "--x0", "0.3,0.3",
      "--y0", "0.5,0.5"], "pde_solve.csv",
     "f914910e7f126cf50aae4580c9c78a6ff1e7c405eaad2344ad089e1144c9ca0e"),
    (["pde", "frames", "--example", "paper-ex2", "--eps-list",
      "0.125,0.0625"], "pde_frames.csv",
     "76edcd0d96b11adbf2fa5ad4af2d0f59b8ad38985be8dc955e28fde4e5e4991a"),
    (["moduli", "check", "--criterion", "osgood", "--w",
      "loglip(beta=1,k=1)"], "moduli_check.csv",
     "fb9f1e9bed53b85b0d3587cb84c0cf6465ea6af0612d8eb03c0e2a3798d6c810"),
    (["mollify", "verify", "--expr", "(x^2)^0.5", "--eps-list",
      "0.1,0.05,0.025"], "mollify_verify.csv",
     "f70ada9fa75e5a52fc0829edf7dec682a727417e8ba2780f25544b3b88fea537"),
]


@pytest.mark.parametrize("args,name,digest", GOLDEN,
                         ids=[name for _, name, _ in GOLDEN])
def test_cli_report_digest(tmp_path, args, name, digest):
    assert main(args + ["--out", str(tmp_path)]) == 0
    data = (tmp_path / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_config_file_report_digest(tmp_path):
    cfg = ExperimentConfig("ode-funnel", out=str(tmp_path), seed=5,
                           params={"example": "contraction", "T": "0.5",
                                   "deltas": "1e-2,1e-3", "ensemble": "2",
                                   "step": "0.01"})
    path = tmp_path / "exp.cfg"
    path.write_text(cfg.to_text())
    assert main(["run", "--config", str(path)]) == 0
    data = (tmp_path / "ode_funnel.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == \
        "4f19b687c667cd560c90368b3983545dd3262f12746d521bb2c9437336cad4ae"


def test_elementary_functions_report_digest(tmp_path):
    # evaluates log, exp, sin and cos and their derivatives on a lattice
    form = "dz - exp(x*y)*dx - sin(x)*log(1+y^2)*dy"
    assert main(["frobenius", "--form", form, "--out", str(tmp_path)]) == 0
    data = (tmp_path / "frobenius.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == \
        "5a9716949d8f7af5a18659706b7b868d257f32a772377e7f47429d34d47895cf"
