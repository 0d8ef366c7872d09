"""The benchmark's workloads and the checks on their results.

A workload builds what it needs in ``setup`` (every call does the same work,
so set-up can be timed more than once), restarts its seeded input stream in
``start``, draws input ``i`` in ``prepare`` outside the timed call, and
judges one result in ``check``.  The program only ever sees the drawn
inputs; the seed stays in the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import warnings

import numpy as np
from scipy import integrate as sci_integrate

from hardylab import cli, expr, spaces
from hardylab import verify as hverify
from hardylab.expr import Interval, parse
from hardylab.instance import pointwise_condition_expr

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "verify-cases-seed0.json")
REFERENCE_SEED = 0

COROLLARY_SCENARIOS = (
    "cor51", "cor53", "cor54", "cor55-triple1", "cor55-triple2", "cor55-triple3",
    "cor64-affine", "cor64-rational", "cor64-reciprocal",
)

# Exponents of the norm workload, each with an evaluation that does not go
# through hardylab, for the reference integrals.
EXPONENTS = (
    ("1.5", lambda x: 1.5),
    ("3", lambda x: 3.0),
    ("x+2", lambda x: x + 2.0),
    ("2-exp(-x^2)", lambda x: 2.0 - math.exp(-x * x)),
)
UNIT = Interval(0.0, 1.0)
# Acceptance criterion 7's tolerances.
NORM_REL_TOL = 1e-6
UNIT_MODULAR_TOL = 1e-4


def scenario_config(name):
    cfg = cli.load_config(None)
    for section, values in cli.SCENARIOS[name].items():
        cfg.setdefault(section, {}).update(values)
    return cfg


def instance_expressions(instances):
    """(expression, domain) pairs an instance evaluates on grids and in
    integrands: p, u, the pointwise condition and both measure densities."""
    pairs = []
    for inst in instances:
        mu1, mu2 = hverify.build_measures(inst)
        for e in (inst.vp.p, inst.u, pointwise_condition_expr(inst), mu1.density, mu2.density):
            pairs.append((e, inst.domain))
    return pairs


def failed_frac(reasons):
    """Share of operations whose check found a reason to fail them."""
    return sum(1 for r in reasons if r is not None) / len(reasons) if reasons else 0.0


# ---------------------------------------------------------------------------
# verify-cases


def check_case(report, ref):
    """Fail a verification that does not pass, or whose margin moved from the
    stored one by more than the two runs' combined error bounds."""
    if report.verdict != hverify.PASS:
        return f"verdict {report.verdict} (margin {report.margin!r})"
    if ref is not None:
        ref_verdict, ref_margin, ref_error = ref
        if ref_verdict != report.verdict:
            return f"verdict {report.verdict}, stored {ref_verdict}"
        if abs(report.margin - ref_margin) > report.combined_error + ref_error:
            return f"margin {report.margin!r} vs stored {ref_margin!r}"
    return None


class VerifyCases:
    """Hardy and Caccioppoli verifications on the nine corollary instances.

    Operation ``i`` runs on instance ``i mod 9``; every fourth one is a
    Caccioppoli case on a power bump, the rest are Hardy cases on the
    ``mixed`` family.  A block of 36 holds every (instance, inequality) pair.
    """

    name = "verify-cases"
    block = 36

    def __init__(self, seed, workdir):
        self.seed = seed
        self.refs = None
        if seed == REFERENCE_SEED and os.path.exists(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as handle:
                self.refs = json.load(handle)["cases"]

    def setup(self):
        expr._compile_cached.cache_clear()
        self.instances = []
        for name in COROLLARY_SCENARIOS:
            inst = cli.build_instance(scenario_config(name))
            hverify.build_measures(inst)
            self.instances.append(inst)

    def start(self):
        self.rng = np.random.default_rng(self.seed)

    def prepare(self, i):
        inst = self.instances[i % len(self.instances)]
        hardy = i % 4 != 3
        tf = hverify.random_test_function(inst, self.rng, "mixed" if hardy else "power_bump")
        if hardy:
            op = lambda: hverify.verify_hardy(inst, tf)
        else:
            op = lambda: hverify.verify_caccioppoli(inst, tf)
        meta = {
            "hardy": hardy,
            "spline": tf.kind == "spline-bump",
            "varp": inst.vp.p.kind != "const",
        }
        return op, meta

    def expressions(self):
        return instance_expressions(self.instances)

    def check(self, i, meta, report):
        ref = self.refs[i] if self.refs is not None and i < len(self.refs) else None
        return check_case(report, ref)


# ---------------------------------------------------------------------------
# luxemburg-norms


def polynomial(coeffs):
    coeffs = tuple(float(c) for c in reversed(coeffs))

    def f(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    return f


def check_norm(meta, norm):
    """Compare a norm with a SciPy reference that splits at the planted root:
    relative error for a constant exponent, the modular of f/norm against 1
    for a variable one."""
    text, p = EXPONENTS[meta["exponent"]]
    f = polynomial(meta["coeffs"])
    points = [meta["root"]] if meta["root"] is not None else None
    if not norm > 0.0:
        return f"norm {norm!r} is not positive"

    def reference(g):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sci_integrate.IntegrationWarning)
            return sci_integrate.quad(g, 0.0, 1.0, points=points, epsabs=0.0,
                                      epsrel=1e-13, limit=400)[0]

    if meta["varp"]:
        rho = reference(lambda x: abs(f(x) / norm) ** p(x))
        if abs(rho - 1.0) > UNIT_MODULAR_TOL:
            return f"p={text}: modular of f/norm is {rho!r}"
        return None
    exact = reference(lambda x: abs(f(x)) ** p(x)) ** (1.0 / p(0.0))
    if abs(norm - exact) > NORM_REL_TOL * exact:
        return f"p={text}: norm {norm!r} vs reference {exact!r}"
    return None


class LuxemburgNorms:
    """Luxemburg norms of seeded polynomials on (0, 1).

    Operation ``i`` uses exponent ``i mod 4``.  In every block of 16, the
    first four polynomials have one planted root in (0.2, 0.8), so the
    sign-changing share is exactly 1/4 and spread evenly over the exponents;
    the rest are quadratics with coefficients in [0.5, 1], times a random
    sign.  The narrow sign-definite family keeps their cost in a narrow
    range, so the median latency, which falls among them, moves little from
    seed to seed.
    """

    name = "luxemburg-norms"
    block = 16

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        expr._compile_cached.cache_clear()
        self.exponents = [spaces.validate_exponent(parse(text), UNIT) for text, _ in EXPONENTS]

    def start(self):
        self.rng = np.random.default_rng(self.seed)

    def prepare(self, i):
        rng = self.rng
        k = i % len(EXPONENTS)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        if i % self.block < len(EXPONENTS):
            root = float(rng.uniform(0.2, 0.8))
            a0, a2 = rng.uniform(0.5, 2.0, size=2)
            # (x - root) (a0 + a2 x^2): one real root
            coeffs = sign * np.polynomial.polynomial.polymul([-root, 1.0], [a0, 0.0, a2])
        else:
            root = None
            coeffs = sign * rng.uniform(0.5, 1.0, size=3)
        coeffs = [float(c) for c in coeffs]
        f = polynomial(coeffs)
        vp = self.exponents[k]
        meta = {
            "exponent": k,
            "coeffs": coeffs,
            "root": root,
            "signchange": root is not None,
            "varp": vp.p.kind != "const",
        }
        return (lambda: spaces.luxemburg_norm(f, vp)), meta

    def expressions(self):
        return [(vp.p, UNIT) for vp in self.exponents]

    def check(self, i, meta, norm):
        return check_norm(meta, norm)


# ---------------------------------------------------------------------------
# reproduce


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


class Reproduce:
    """The ten ``hardylab reproduce`` scenarios, in-process through
    ``cli.main``.  A block is one pass over every scenario with one seed
    drawn for the pass; the expression compile cache is emptied before each
    scenario, as it is for a user's first call."""

    name = "reproduce"
    names = tuple(cli.SCENARIOS)
    block = len(names)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.out = os.path.join(workdir, "reproduce")

    def setup(self):
        os.makedirs(self.out, exist_ok=True)
        self.varp = {
            name: not _is_number(cli.SCENARIOS[name]["instance"]["p"]) for name in self.names
        }

    def start(self):
        self.rng = np.random.default_rng(self.seed)

    def _record(self, name):
        return os.path.join(self.out, f"{name}-verify.json")

    def prepare(self, i):
        name = self.names[i % self.block]
        if i % self.block == 0:
            self.pass_seed = int(self.rng.integers(0, 2**31 - 1))
        argv = ["reproduce", name, "--out", self.out, "--seed", str(self.pass_seed)]
        with contextlib.suppress(FileNotFoundError):
            os.remove(self._record(name))
        expr._compile_cached.cache_clear()

        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        return op, {"scenario": name, "varp": self.varp[name]}

    def expressions(self):
        instances = [cli.build_instance(scenario_config(name)) for name in self.names]
        return instance_expressions(instances)

    def check(self, i, meta, result):
        code, output = result
        name = meta["scenario"]
        if code != cli.EXIT_OK:
            return f"{name} exited {code}: {output.strip().splitlines()[-1:]}"
        with open(self._record(name), encoding="utf-8") as handle:
            totals = json.load(handle)["payload"]["totals"]
        if totals["pass"] != sum(totals.values()) or totals["pass"] == 0:
            return f"{name} verify totals {totals}"
        return None


WORKLOADS = {w.name: w for w in (VerifyCases, LuxemburgNorms, Reproduce)}
