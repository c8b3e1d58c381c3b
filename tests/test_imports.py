"""Import footprint, checked in a fresh interpreter.

``import stochorder`` loads no scipy. ``scipy.special`` is imported by the
gamma-family methods that use it, and ``scipy.integrate`` (with
``scipy.optimize`` and ``scipy.linalg`` behind it) only by the normalization
check of a ``DensitySpec`` (which ``transformed_density`` returns). These
tests run in a subprocess because pytest has usually imported both already,
through ``tests/test_distributions.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from stochorder import (
    GammaPower,
    GeneralizedGamma,
    SuiteConfig,
    make_exp,
    transformed_density,
)

from reference import quadrature_cdf

TESTS = Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")
POINTS = [0.05, 0.5, 1.0, 2.5, 7.0]


def fresh_python(code: str) -> dict:
    """Run ``code`` in a new interpreter with ``src`` and ``tests`` on the
    path; it prints one JSON object, which is returned."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((SRC, str(TESTS)))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    return json.loads(out.stdout)


def test_import_leaves_out_scipy_integrate():
    got = fresh_python(f"""
import json, sys
import stochorder, stochorder.cli
loaded = {{m: m in sys.modules for m in
          ("scipy", "scipy.integrate", "scipy.optimize", "scipy.special", "scipy.fft")}}
from stochorder import GammaPower, GeneralizedGamma, make_exp, transformed_density
cdf = GeneralizedGamma(1, 1, 1).cdf(1.0)
special_after_cdf = "scipy.special" in sys.modules
integrate_after_cdf = "scipy.integrate" in sys.modules
spec = transformed_density(GammaPower(1, 2, 1), make_exp())
integrate_after = "scipy.integrate" in sys.modules
from reference import quadrature_cdf
f = quadrature_cdf(GeneralizedGamma(1, 1, 1), {POINTS!r})
print(json.dumps({{
    "loaded": loaded,
    "support": list(spec.support),
    "cdf": f.tolist(),
    "exp_cdf": cdf,
    "special_after_cdf": special_after_cdf,
    "integrate_after_cdf": integrate_after_cdf,
    "integrate_after": integrate_after,
}}))
""")
    assert got["loaded"] == {
        "scipy": False,
        "scipy.integrate": False,
        "scipy.optimize": False,
        "scipy.special": False,
        "scipy.fft": False,
    }
    # the first gamma evaluation loads scipy.special, and only that
    assert got["exp_cdf"] == GeneralizedGamma(1, 1, 1).cdf(1.0)
    assert (got["special_after_cdf"], got["integrate_after_cdf"]) == (True, False)
    spec = transformed_density(GammaPower(1, 2, 1), make_exp())
    assert got["support"] == list(spec.support)
    assert got["cdf"] == quadrature_cdf(GeneralizedGamma(1, 1, 1), POINTS).tolist()
    assert np.allclose(got["cdf"], 1 - np.exp(-np.array(POINTS)), atol=1e-9)
    assert got["integrate_after"] is True


def test_suite_path_never_loads_scipy_integrate():
    got = fresh_python("""
import json, sys
from stochorder import SuiteConfig, run_scenario
config = SuiteConfig(n_scenarios=9, n_samples=1000)
records = [run_scenario(config, i) for i in range(9)]
print(json.dumps({
    "presets": [r["preset"] for r in records],
    "statuses": [r["status"] for r in records],
    "integrate": "scipy.integrate" in sys.modules,
}))
""")
    assert got["presets"] == list(SuiteConfig().presets)  # one per preset
    assert got["statuses"] == ["consistent"] * 9
    assert got["integrate"] is False


def test_commands_without_gamma_functions_load_no_scipy():
    got = fresh_python("""
import contextlib, io, json, sys
from stochorder.cli import run
codes = []
for argv in (["major", "--x", "2,2", "--y", "3,1"], ["chain", "--x", "2,2", "--y", "3,1"],
             ["conditions", "--phi", "exp", "--psi", "power:2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(run(argv))
print(json.dumps({
    "codes": codes,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
""")
    assert got == {"codes": [0, 0, 0], "scipy": []}
