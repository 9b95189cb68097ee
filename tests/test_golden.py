"""Byte-level golden digests of CLI reports.

Each case runs one CLI command and compares the SHA-256 of the CSV it
writes against a digest captured before the code it exercises was last
restructured (the trajectory engine and field evaluator for the first
five, the dynsys cocycle for the two dyn dominate/transport cases).
Refactors must keep every report byte-identical; a changed digest means
a changed number.
"""

import hashlib

import pytest

from contfrob.cli import main

GOLDEN = [
    (["surface", "build", "--example", "contact", "--eps1", "0.1",
      "--grid", "9"], "surface.csv",
     "dc373af1ce57a85cbaeba2a80fb83a3f927e3fdb459811b856fb3e37e256f46e"),
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
]


@pytest.mark.parametrize("args,name,digest", GOLDEN,
                         ids=[name for _, name, _ in GOLDEN])
def test_cli_report_digest(tmp_path, args, name, digest):
    assert main(args + ["--out", str(tmp_path)]) == 0
    data = (tmp_path / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
