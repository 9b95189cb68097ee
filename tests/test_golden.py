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
moved into one table-driven node, and the limit-criterion case before the
criterion's scale grid stopped being a caller option.  The two funnel
escape-path cases were captured before the funnel became one masked RK4
batch: paper-ex1 starts rows outside the box and has a -delta row whose
field raises EvalDomainError (5 escapes per delta), and peano from
(0, 0.125) has rows leave the box mid-flow next to rows that finish
(4, 3 and 0 escapes).  The pde_solve.csv and mollify_verify.csv digests
were captured again when SciPy left the library: the separable solve's
bisection to the last bit moved y by 1 ulp in 4 of 18 cells (and those
rows' FD residuals by 1.4e-6 relative), and the numpy quadrature moved
fitted_K by 1 ulp in 3 cells.  The dyn_dominate.csv and dyn_transport.csv
digests were captured again when the stacked QR and singular values of
tiny matrices became closed forms (geometry's kernels), and the
transported bases moved by rounding.  In dyn_dominate.csv, norm_E at k is
up to |Dphi^k| (2e6 at k = 15) times smaller than the product it is the
norm of, so rows 12-15 moved by 6e-13 to 6.4e-8 relative (q by twice
that), and every other number by at most 6.4e-14.  dyn_transport.csv
was captured again when max_principal_angle began to read an angle as
arctan2 of its sine and its cosine: the arccos of the cosine alone read
multiples of 2^-26 below about 1e-8 rad, and the last max_angle_to_limit
went from that floor, 1.4901161193847656e-08, to 7.071019521293389e-09,
so every ratio of consecutive angles for k = 5..10 is now lambda_s^2 =
0.1459 (the k = 10 ratio read 0.30).  It was captured again when the
transport sweep began to multiply by a closed-form inverse of Dphi
instead of solving by it: the bases moved by rounding, and with them
ten angles of rows k = 3..10 by at most 1.2e-16 rad (half an ulp of 1).
Angles near 1e-8 rad read that as up to 2.4e-9 relative (the last
max_angle_to_limit went 7.071019521293389e-09 -> 7.071019535072169e-09);
the angles above 1e-3 moved by at most 1e-13 relative.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contfrob
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
     "1918df4955b5d2e4a0efd3ea789de7d1a113204c644a9cdb51c3c1861e0997be"),
    (["dyn", "transport", "--example", "skew-product", "--k", "10"],
     "dyn_transport.csv",
     "4946bf15878061e52ca31a42f4074ab4461501795979fb8ff66e1b9e53faaea8"),
    (["ode", "check", "--example", "paper-ex1", "--alpha", "0.9",
      "--beta", "0.5", "--gamma", "0.5", "--delta", "0.5"], "ode_check.csv",
     "f1e318ad83fa499e2d61dd0462a3ce42ec09864fdb157b151f48012e1cc72290"),
    (["pde", "solve-special", "--example", "paper-ex2", "--x0", "0.3,0.3",
      "--y0", "0.5,0.5"], "pde_solve.csv",
     "39ca62f96378d6a5ed23bc3c25ad0fdb0b5a017439dcc774d8b256d859af0461"),
    (["pde", "frames", "--example", "paper-ex2", "--eps-list",
      "0.125,0.0625"], "pde_frames.csv",
     "76edcd0d96b11adbf2fa5ad4af2d0f59b8ad38985be8dc955e28fde4e5e4991a"),
    (["moduli", "check", "--criterion", "osgood", "--w",
      "loglip(beta=1,k=1)"], "moduli_check.csv",
     "fb9f1e9bed53b85b0d3587cb84c0cf6465ea6af0612d8eb03c0e2a3798d6c810"),
    (["mollify", "verify", "--expr", "(x^2)^0.5", "--eps-list",
      "0.1,0.05,0.025"], "mollify_verify.csv",
     "c12c309806275c4866a5c78e1736d87e1453efdf6333e96f344e79674297e7db"),
]


@pytest.mark.parametrize("args,name,digest", GOLDEN,
                         ids=[name for _, name, _ in GOLDEN])
def test_cli_report_digest(tmp_path, args, name, digest):
    assert main(args + ["--out", str(tmp_path)]) == 0
    data = (tmp_path / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_reports_do_not_depend_on_blas_threads(tmp_path):
    # every GOLDEN command, all in one fresh process per OpenBLAS thread
    # count: the reports are the same bytes, and the golden ones
    reports = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (
            str(Path(contfrob.__file__).parent.parent),
            env.get("PYTHONPATH"))))
        subprocess.run([sys.executable, "-c", f"""
from contfrob.cli import main
for i, args in enumerate({[args for args, _, _ in GOLDEN]!r}):
    assert main(args + ["--out", {str(out)!r} + "/" + str(i)]) == 0
"""], env=env, check=True, capture_output=True)
        reports[threads] = [(out / str(i) / name).read_bytes()
                            for i, (_, name, _) in enumerate(GOLDEN)]
    assert reports["2"] == reports["1"]
    assert [hashlib.sha256(data).hexdigest() for data in reports["1"]] == \
        [digest for *_, digest in GOLDEN]


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


def test_limit_criterion_report_digest(tmp_path):
    # pins the limit criterion's built-in 40-point scale grid; --w2 builds
    # SumModulus and ScaleModulus the one way the library does, by parsing
    assert main(["moduli", "check", "--criterion", "limit",
                 "--w", "hoelder(alpha=0.9)",
                 "--w2", "sum(loglip(beta=0.5), scale(0.5, lipschitz(k=1)))",
                 "--out", str(tmp_path)]) == 0
    data = (tmp_path / "moduli_check.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == \
        "69523155ed7fa381ecc56afede5360f9f49701ca801347ffe2926ac8c2ff394d"


FUNNEL_ESCAPES = [
    (["--example", "paper-ex1", "--T", "0.5", "--deltas", "1e-2,1e-3,1e-4",
      "--ensemble", "6", "--step", "0.002"],
     "6a34777d42e2e8927ae23a21dddbb710ca41a895e11f69266b8e80c89026071a"),
    (["--example", "peano", "--point", "0,0.125", "--T", "1",
      "--deltas", "3e-2,1e-2,1e-3", "--ensemble", "4", "--step", "0.004"],
     "31a1e67a01d6f77359d893dfce9d1e6630cc14f3a67c943e1cf5a5a01e469368"),
]


@pytest.mark.parametrize("args,digest", FUNNEL_ESCAPES,
                         ids=["paper-ex1", "peano-off-axis"])
def test_funnel_escape_report_digest(tmp_path, args, digest):
    assert main(["ode", "funnel"] + args + ["--out", str(tmp_path)]) == 0
    data = (tmp_path / "ode_funnel.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
