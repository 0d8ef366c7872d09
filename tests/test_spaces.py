import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate as sci_integrate
from scipy.optimize import brentq

from oracles import perfbench_workloads

from hardylab import quadrature, spaces
from hardylab.errors import ExponentRangeError, IntegrabilityProbeError, NoFiniteBracketError
from hardylab.expr import Interval, compile_fn, parse
from hardylab.quadrature import STATUS_CONVERGED, STATUS_DIVERGENT
from hardylab.spaces import Integrand, luxemburg_norm, modular, validate_exponent
from hardylab.verify import _tlogt_view, power_bump


def test_validate_affine_exponent():
    vp = validate_exponent(parse("x+3"), Interval(0, 2))
    assert vp.p_minus == pytest.approx(3.0, abs=1e-6)
    assert vp.p_plus == pytest.approx(5.0, abs=1e-6)
    assert vp.numerical


def test_validate_constant_exponent():
    vp = validate_exponent(parse("2"), Interval(0, 1))
    assert (vp.p_minus, vp.p_plus) == (2.0, 2.0)
    assert not vp.numerical


def test_validate_rejects_p_equal_one():
    with pytest.raises(ExponentRangeError):
        validate_exponent(parse("1"), Interval(0, 1))
    with pytest.raises(ExponentRangeError):
        validate_exponent(parse("1 + 0*x"), Interval(0, 1))


def test_validate_rejects_unbounded_exponent():
    with pytest.raises(ExponentRangeError):
        validate_exponent(parse("exp(x)"), Interval(0, math.inf))
    with pytest.raises(ExponentRangeError):
        validate_exponent(parse("1/x"), Interval(0, 1e-8))


def test_validate_accepts_exponent_with_isolated_unit_dip():
    # inf over the open interval is 1, attained only at the interior point 0;
    # the grid check samples strictly between landmarks and must accept
    vp = validate_exponent(parse("2-exp(-x^2)"), Interval(-1, 1))
    assert 1.0 <= vp.p_minus < 1.001
    assert vp.p_plus == pytest.approx(2 - math.exp(-1), abs=1e-6)


def test_integrability_probe_failure():
    # p grows fast enough that p^p overflows on the compact exhaustion
    with pytest.raises((IntegrabilityProbeError, ExponentRangeError)):
        validate_exponent(parse("exp(x^2)"), Interval(0, 64))


def test_modular_trivial_cases():
    vp = validate_exponent(parse("2"), Interval(0, 1))
    on = lambda text: Integrand(compile_fn(parse(text)), vp.domain)
    assert modular(on("0"), vp).value == 0.0
    assert modular(on("1"), vp).value == pytest.approx(1.0, abs=1e-10)
    assert modular(on("x"), vp).value == pytest.approx(1 / 3, rel=1e-9)


def test_modular_with_callable():
    vp = validate_exponent(parse("2"), Interval(0, 1))
    r = modular(Integrand(lambda x: x * x, vp.domain), vp)
    assert r.value == pytest.approx(1 / 5, rel=1e-9)


@pytest.fixture
def tanh_sinh_panels(monkeypatch):
    """The panels ``(a, b, left flagged, right flagged)`` that reach
    ``quadrature._tanh_sinh``, in call order."""
    panels = []
    real = quadrature._tanh_sinh

    def spy(f, a, b, left, right, tol_rel, tol_abs):
        panels.append((a, b, left, right))
        return real(f, a, b, left, right, tol_rel, tol_abs)

    monkeypatch.setattr(quadrature, "_tanh_sinh", spy)
    return panels


def test_support_ends_inside_the_domain_end_gauss_kronrod_panels(tanh_sinh_panels):
    # xi and xi' are finite at the ends of a support inside the domain
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    xi = power_bump(0.4, 0.2, 1.5, 4.0)
    for fn in (xi._f, xi._df):
        assert modular(Integrand(fn, xi.support, xi.split_points), vp).status == STATUS_CONVERGED
    ends = (xi.support.lo, xi.support.hi)
    assert [panel for panel in tanh_sinh_panels if panel[0] in ends or panel[1] in ends] == []


def test_tlogt_view_and_domain_ends_stay_on_tanh_sinh(tanh_sinh_panels):
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    xi = power_bump(0.4, 0.2, 1.5, 4.0)
    # |t log t|^p carries |log t|^p into the edge
    modular(_tlogt_view(xi), vp)
    lo, hi = xi.support.lo, xi.support.hi
    assert any(a == lo and left for a, _, left, _ in tanh_sinh_panels)
    assert any(b == hi and right for _, b, _, right in tanh_sinh_panels)
    # a support reaching the domain's left end: only that end is flagged
    tanh_sinh_panels.clear()
    modular(Integrand(lambda x: 1.0 - 2.0 * x, Interval(0.0, 0.5)), vp)
    assert tanh_sinh_panels == [(0.0, 0.5, True, False)]


@pytest.mark.parametrize("support", [Interval(0, 1), Interval(0, 0.5)])
def test_logarithmic_divergence_at_a_domain_end_is_still_suspected(support):
    # |x^-0.5|^(x+2) = x^(-1-x/2) is not integrable at 0
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    assert modular(Integrand(lambda x: x ** -0.5, support), vp).status == STATUS_DIVERGENT


def test_luxemburg_constant_on_unit_domain():
    for p_text in ("2", "x+2", "1.5 + exp(-x)"):
        vp = validate_exponent(parse(p_text), Interval(0, 1))
        assert luxemburg_norm(compile_fn(parse("3.7")), vp) == pytest.approx(3.7, rel=1e-9)


def test_luxemburg_classical_l2():
    vp = validate_exponent(parse("2"), Interval(0, 1))
    assert luxemburg_norm(compile_fn(parse("x")), vp) == pytest.approx(1 / math.sqrt(3), rel=1e-9)


def test_luxemburg_zero():
    vp = validate_exponent(parse("2"), Interval(0, 1))
    assert luxemburg_norm(compile_fn(parse("0")), vp) == 0.0


def test_luxemburg_no_finite_bracket():
    # modular of f/lambda along (0,1) with a non-integrable core stays infinite
    vp = validate_exponent(parse("3"), Interval(0, 1))
    f = lambda x: x ** -2.0
    with pytest.raises(NoFiniteBracketError):
        luxemburg_norm(f, vp)


@pytest.mark.parametrize("p_text, power", [("x+2", -2.0), ("3", -0.5), ("x+2", -0.5)])
def test_luxemburg_divergent_modular(p_text, power):
    # |x^power|^p is not integrable on (0,1): the modular overflows for
    # x^-2 and is flagged divergent with a finite value for x^-0.5, p = 3,
    # and for the logarithmic divergence x^(-1-x/2) of x^-0.5, p = x+2, even
    # at the loose tolerance of a variable exponent's first modular
    vp = validate_exponent(parse(p_text), Interval(0, 1))
    with pytest.raises(NoFiniteBracketError):
        luxemburg_norm(lambda x: x ** power, vp)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name)`` wraps ``spaces.<name>`` and returns a list that
    gains one entry per call that returns: its keyword arguments and result."""

    def install(name):
        calls = []
        real = getattr(spaces, name)

        def counting(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((kwargs, result))
            return result

        monkeypatch.setattr(spaces, name, counting)
        return calls

    return install


def test_norm_modular_calls(count_calls):
    calls = count_calls("modular")
    vp = validate_exponent(parse("2"), Interval(0, 1))
    assert luxemburg_norm(lambda x: 1.0 + x, vp) == pytest.approx(math.sqrt(7 / 3), rel=1e-9)
    assert len(calls) == 1

    calls.clear()
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    norm = luxemburg_norm(lambda x: 1.0 + math.sin(3 * x), vp)
    assert norm > 0
    # rho and three secant steps at LOOSE_TOL, then one Newton step: g at
    # NORM_TOL and its slope's numerator at LOOSE_TOL
    loose, tight = spaces.LOOSE_TOL, spaces.NORM_TOL
    assert [kwargs["tol"] for kwargs, _ in calls] == [loose] * 4 + [tight, loose]


def test_norm_of_a_unit_modular_is_one(count_calls):
    # The loose rho is 1 + 3.6e-14, so the first secant step is below
    # LOOSE_STEP and Newton starts at its origin t = 0: there the NORM_TOL
    # modular is modular(1) itself, exactly 1, and the Newton step is 0.
    calls = count_calls("modular")
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    assert luxemburg_norm(lambda x: 1.0, vp) == 1.0
    loose, tight = spaces.LOOSE_TOL, spaces.NORM_TOL
    assert [kwargs["tol"] for kwargs, _ in calls] == [loose, tight, loose]


def _workload(seed):
    """The benchmark's ``luxemburg-norms`` workload for ``seed``, started."""
    wl = perfbench_workloads().LuxemburgNorms(seed, None)
    wl.setup()
    wl.start()
    return wl


def _workload_norms(count=160, seed=0):
    """The variable-exponent operations among the first ``count``
    ``luxemburg-norms`` inputs of ``seed``: (op, meta, vp, f, p) with f and p
    as the benchmark evaluates them for its SciPy references."""
    workloads = perfbench_workloads()
    wl = _workload(seed)
    ops = [wl.prepare(i) for i in range(count)]
    return [
        (op, meta, wl.exponents[meta["exponent"]], workloads.polynomial(meta["coeffs"]),
         workloads.EXPONENTS[meta["exponent"]][1])
        for op, meta in ops if meta["varp"]
    ]


def test_workload_norms_rest_on_at_most_two_norm_tol_modulars(count_calls):
    # Only the Newton steps compute modulars at NORM_TOL: one for 72 of these
    # 80 norms and two for 8.  At NORM_TOL throughout, each norm made 5
    # modular calls and all of them 461,708 evaluations; with a NORM_TOL rho
    # and NORM_TOL secant steps, up to 4 at NORM_TOL and 314,635 evaluations.
    calls = count_calls("modular")
    tight, evaluations = [], 0
    for op, *_ in _workload_norms():
        calls.clear()
        op()
        tight.append(sum(kwargs["tol"] == spaces.NORM_TOL for kwargs, _ in calls))
        evaluations += sum(r.evaluations for _, r in calls)
    assert len(tight) == 80 and max(tight) <= 2 and sum(tight) <= 88
    assert evaluations <= 170_599


@pytest.mark.parametrize("seed", [0, 7])
def test_workload_norms_match_brent_on_norm_tol_values(seed):
    # The Newton steps stop once the slope's error and the Newton remainder
    # bound the step's error by 1e-10, so log(norm) is within 2e-10 of the
    # root that Brent's method finds on the NORM_TOL values of g.
    for op, meta, vp, f, _ in _workload_norms(seed=seed):
        t = math.log(op())

        def g(s):
            scaled = Integrand(lambda x: f(x) / math.exp(s), vp.domain)
            return math.log(modular(scaled, vp, tol=spaces.NORM_TOL, tol_abs=spaces.NORM_TOL_ABS).value)

        assert abs(t - brentq(g, t - 1e-6, t + 1e-6, xtol=1e-13)) <= 2e-10, meta


def test_seed_7_workload_norms_pass_the_benchmark_check():
    check_norm = perfbench_workloads().check_norm
    wl = _workload(7)
    for i in range(160):
        op, meta = wl.prepare(i)
        assert check_norm(meta, op()) is None, (i, meta)


def test_workload_norms_put_f_over_norm_on_the_unit_sphere():
    # The solve puts modular(f / norm) at 1, and SciPy's modular of f/norm,
    # split at the planted root, agrees to 1e-9.  Where modular ends at
    # max-depth (a sign-changing f with p = 2-exp(-x^2), whose root is not a
    # split), modular itself is off by up to 5e-8 (mpmath agrees with SciPy),
    # so the norm can be no closer than that.
    for op, meta, vp, f, p in _workload_norms():
        norm = op()
        points = None if meta["root"] is None else [meta["root"]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sci_integrate.IntegrationWarning)
            rho = sci_integrate.quad(
                lambda x: abs(f(x) / norm) ** p(x), 0.0, 1.0,
                points=points, epsabs=0.0, epsrel=2e-14, limit=400,
            )[0]
        own = modular(Integrand(lambda x: f(x) / norm, vp.domain), vp,
                      tol=spaces.NORM_TOL, tol_abs=spaces.NORM_TOL_ABS)
        assert abs(own.value - 1.0) <= 1e-9, (meta, own)
        assert abs(rho - 1.0) <= (1e-9 if own.status == "converged" else 1e-7), (meta, rho, own)


def test_norm_small_modular_constant_exponent():
    # modular(f) ~ 1e-13 sits at the absolute quadrature floor, so
    # modular(f)^(1/p) alone is off by about 2e-4 here
    vp = validate_exponent(parse("3"), Interval(0, 1))
    f = lambda x: 1e-4 * (x - 0.61) * (1.0 + x * x)
    exact = sci_integrate.quad(
        lambda x: abs(f(x)) ** 3, 0.0, 1.0, points=[0.61], epsabs=0.0, epsrel=1e-13,
    )[0] ** (1 / 3)
    assert luxemburg_norm(f, vp) == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("narrowed", ["p_plus", "p_minus"])
def test_norm_bracket_widening(narrowed):
    # Understated extrema move the bracket off the root: with p_plus = 2.1
    # the norm of 3.7 lies below it, with p_minus = 2.9 above it.
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    if narrowed == "p_plus":
        wrong = dataclasses.replace(vp, p_plus=vp.p_minus + 0.1)
    else:
        wrong = dataclasses.replace(vp, p_minus=vp.p_plus - 0.1)
    assert luxemburg_norm(compile_fn(parse("3.7")), wrong) == pytest.approx(3.7, rel=1e-9)
    f = lambda x: 1.0 + math.sin(3 * x)
    assert luxemburg_norm(f, wrong) == pytest.approx(luxemburg_norm(f, vp), rel=1e-9)


@pytest.mark.parametrize("narrowed", ["p_plus", "p_minus"])
def test_norm_bracket_widening_falls_back_to_brent(narrowed, count_calls):
    # the secant leaves the understated bracket, so the widened bracket and
    # Brent's method find the norm, as in test_norm_bracket_widening; with
    # the true extrema the secant alone does
    calls = count_calls("brentq")
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    if narrowed == "p_plus":
        wrong = dataclasses.replace(vp, p_plus=vp.p_minus + 0.1)
    else:
        wrong = dataclasses.replace(vp, p_minus=vp.p_plus - 0.1)
    for f in (compile_fn(parse("3.7")), lambda x: 1.0 + math.sin(3 * x)):
        calls.clear()
        luxemburg_norm(f, wrong)
        assert len(calls) == 1
    luxemburg_norm(lambda x: 1.0 + math.sin(3 * x), vp)
    assert len(calls) == 1


def _random_poly(rng):
    coeffs = rng.uniform(-2, 2, size=int(rng.integers(1, 5)))

    def f(x):
        return float(sum(c * x ** k for k, c in enumerate(coeffs)))

    return f


def test_constant_exponent_consistency():
    rng = np.random.default_rng(31)
    for p in (1.5, 2.0, 3.0):
        vp = validate_exponent(parse(repr(p)), Interval(0, 1))
        for _ in range(7):
            f = _random_poly(rng)
            m = modular(Integrand(f, vp.domain), vp).value
            if m < 1e-12:
                continue
            assert luxemburg_norm(f, vp) == pytest.approx(m ** (1 / p), rel=1e-6)


def test_homogeneity():
    rng = np.random.default_rng(17)
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    for _ in range(5):
        f = _random_poly(rng)
        base = luxemburg_norm(f, vp)
        if base < 1e-9:
            continue
        for c in (0.25, 3.0):
            g = lambda x: c * f(x)
            assert luxemburg_norm(g, vp) == pytest.approx(c * base, rel=1e-6)


def test_unit_ball_property():
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    f = lambda x: 1.0 + math.sin(3 * x)
    norm = luxemburg_norm(f, vp)
    assert norm > 0
    r = modular(Integrand(lambda x: f(x) / norm, vp.domain), vp)
    assert r.value == pytest.approx(1.0, abs=1e-4)


def test_norm_objective_monotone():
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    f = lambda x: 1.0 + x
    lams = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [modular(Integrand(lambda x, l=l: f(x) / l, vp.domain), vp).value for l in lams]
    for a, b in zip(vals, vals[1:]):
        assert a >= b - 1e-12
