"""Independent references and the correctness test for every request.

Closed forms are checked against the oracle, oracle results against the
closed form, and three-radical oracle results against the oracle run at
a 100x tighter ``rel_tol``.  Where a (t+x)^-p reference is below 1e-6 in
magnitude the oracle is only absolutely accurate, so the reference is
mpmath's incomplete gamma through

    integral_u^inf e^{is} s^-p ds = e^{i pi (1-p)/2} Gamma(1-p, -iu)

(DLMF 8.2), with a relative test only: a tiny value of the wrong sign
fails it.  Everything here runs after the timed phase.
"""

from __future__ import annotations

import math

from workloads import SIN, closed_call, exponent, oracle_spec

TINY = 1e-6
REL, ABS = 1e-8, 1e-9


def gamma_route(p, x, zeta, kernel):
    """Integral of trig(zeta t) (t+x)^-p over [0, inf) by mpmath at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        u = mpmath.mpf(zeta) * mpmath.mpf(x)
        tail = mpmath.exp(1j * mpmath.pi * (1 - p) / 2) * mpmath.gammainc(1 - p, -1j * u)
        shifted = tail * mpmath.exp(-1j * u)
        part = shifted.imag if kernel == SIN else shifted.real
        return float(mpmath.mpf(zeta) ** (p - 1) * part)


def _closed_reference(api, req):
    if req.family == "quadratic-phase":
        p = req.p()
        c, sin = p["scale"], req.kernel == SIN
        if p["power"] == 0.5:
            return api.tail_sin(c) if sin else api.tail_cos(c)
        return api.pole_tail_sin(c) if sin else api.pole_tail_cos(c)
    if req.family == "three-radical":
        tight = api.SeriesControl(rel_tol=api.DEFAULT_CONTROL.rel_tol / 100.0)
        return api.integrate_semi_infinite(oracle_spec(api, req), tight).value
    return closed_call(api, req)()


def reference(api, req, by_oracle):
    """(reference value, relative_only) for ``req``.

    ``by_oracle`` selects the oracle as the reference (for closed-form
    results); otherwise the closed form is (for oracle results).
    """
    if by_oracle:
        ref = api.integrate_semi_infinite(oracle_spec(api, req)).value
    else:
        ref = _closed_reference(api, req)
    p = exponent(req)
    if p is not None and abs(ref) < TINY:
        q = req.p()
        return gamma_route(p, q["x"], q["zeta"], req.kernel), True
    return ref, False


def agrees(value, ref, relative_only):
    if not isinstance(value, float) or not math.isfinite(value):
        return False
    if relative_only:
        return abs(value - ref) <= REL * abs(ref)
    return abs(value - ref) <= max(ABS, REL * abs(ref))
