"""Registry of printed-formula arbitration results.

Every closed form in the library was cross-checked against the
quadrature oracle before release.  Where a verbatim printed formula
disagreed beyond tolerance, the oracle-consistent correction ships as
the default and the verbatim form remains reachable through the
``as_printed`` keyword (CLI: ``--as-printed``).  Entries with
``corrected=False`` record printed forms that survived arbitration, or
checks that fail for reasons other than a formula error.
"""

from collections import namedtuple

from .errors import Record


class Erratum(Record, namedtuple("Erratum", "ident where corrected printed resolution")):
    """One arbitration; ``corrected``: default behavior differs from the printed form."""

    __slots__ = ()


ERRATA = (
    Erratum(
        "HP-ODD-SIN-SIGN",
        "half_power.family_coefficients (sine family, odd orders)",
        True,
        "rational-part solution with overall sign (-1)^n",
        "sign must be (-1)^(n+1): the printed one contradicts the family's own "
        "difference equation and seeds, and direct quadrature (order 3 at u=2: "
        "quadrature 0.0297601..., printed sign gives -0.3365...).",
    ),
    Erratum(
        "HP-ODD-COS-SIGN",
        "half_power.family_coefficients (cosine family, odd orders)",
        True,
        "leading 1/sqrt(u) term with sign (-1)^(n+1)",
        "sign must be (-1)^n: the printed one contradicts the stated seed "
        "(+2/sqrt(u) at order 1) and quadrature.",
    ),
    Erratum(
        "HP-EVEN-COS-RECURRENCE",
        "half_power (cosine family difference equation, documentation only)",
        False,
        "right-hand side (8n+2)/u^(2n+1/2)",
        "the exponent should be 2n+3/2; the printed closed solution is already "
        "consistent with the corrected right-hand side, so no code changes.",
    ),
    Erratum(
        "TR-COS-APPROX",
        "two_radical.head_cos_approx",
        True,
        "leading term -(gamma/c) sin(c gamma^2)",
        "coefficient must be -(gamma/(4c)): term-by-term integration by parts "
        "of the z^2 correction gives 1/(4c), and the printed coefficient is "
        "20-60x less accurate against the series reference.",
    ),
    Erratum(
        "TR-COS-APPROX-TREND",
        "two_radical.head_cos_approx (monotone-improvement check)",
        False,
        "relative error expected to shrink monotonically in c",
        "even the corrected coefficient fails strict monotonicity on "
        "c in {5,10,20,40} at gamma=0.5: the leading residual oscillates with "
        "sin(c gamma^2), which is near-extremal at c=20,40 and small at c=10. "
        "The error envelope does decay like c^(-1/2).",
    ),
    Erratum(
        "RP-COS-TAIL",
        "radical_pole.pole_tail_cos",
        True,
        "(pi/2){cos(c)[S+C+1] + sin(c)[S-C]} + sqrt(2 pi/c)",
        "diverges as c->0+ while the integral stays below pi/2; the correct "
        "form, via the complementary-error-function evaluation, is "
        "(pi/2){cos(c)[1-S-C] + sin(c)[C-S]} and matches quadrature at every "
        "tested c.",
    ),
    Erratum(
        "RP-SIN-HEAD",
        "radical_pole.pole_head_sin_series",
        False,
        "series with denominator (2k+1)!(4k+1) and bracket {1 - 2F1(1,...)}",
        "verified correct as printed against direct quadrature (suspected "
        "typo did not materialize).  The library sums the equivalent moment "
        "form, terms 2F1(1, 2k+3/2; 2k+5/2; -gamma^2)/(4k+3) times c gamma^3, "
        "because {1 - 2F1} cancels at small gamma (2.9e-10 relative error at "
        "gamma = 1e-3, against ~2e-16 for the moment form).",
    ),
    Erratum(
        "RP-COS-APPROX-TREND",
        "radical_pole.pole_head_cos_approx (monotone-improvement check)",
        False,
        "relative error expected to shrink monotonically in c",
        "formula is correct as printed, but its leading residual oscillates "
        "with sin(c gamma^2), so the strict monotone check fails on "
        "c in {5,10,20,40} at gamma=0.5 while the error envelope decays.",
    ),
    Erratum(
        "LOM-GAMMA-ORDER",
        "lommel.lommel_s_half",
        True,
        "incomplete-gamma realization with Gamma(-alpha, +-ix)",
        "the order must be Gamma(1-alpha, +-ix) (contour rotation of the "
        "defining integral); the printed order computes exactly the cosine "
        "transform of (t+x)^-(alpha+1), not the sine of (t+x)^-alpha.",
    ),
    Erratum(
        "LOM-SICI-PHASE",
        "lommel.si_ci_representation (sine form)",
        True,
        "second term sin(x) ci(...)",
        "must be sin(zeta x), by symmetry with the cosine form and by "
        "quadrature at zeta=2, x=1.",
    ),
)


def find(ident: str) -> Erratum:
    for e in ERRATA:
        if e.ident == ident:
            return e
    raise KeyError(ident)
