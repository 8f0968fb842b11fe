"""oscint: Fourier sine/cosine transforms of irrational integrands.

Closed-form evaluators for four families of semi-infinite oscillatory
integrals -- inverse half-integer powers, two-radical weights,
radical-pole weights, and general real exponents via Lommel functions --
each cross-validated against an independent lobe-quadrature oracle.

Every result is pure double precision; all functions are pure,
reentrant and thread-safe.  The only global mutable state is the memo
caches of pure functions (``functools``: the half-power family
coefficients, the last Fresnel, (J0, Y0) and (si, ci) pairs, the moment-table
length per phase, the oracle's GK21 rule and phase tables, and the nodes of
``quad``'s first level on its 32 latest ranges, read-only arrays like the
tables), the coefficient lists the series loops grow (the Fresnel
and Bessel rows are constants), which never change a value, and this
package's name cache below.

``import oscint`` loads no submodule.  ``_SUBMODULE`` below is the one
list of public names: a new public name is added there only, and no
submodule keeps an ``__all__``.  A public name resolves on first
access (PEP 562 module ``__getattr__``): the submodule that defines it
is imported then, and the name is cached in this package's globals, so
later lookups, ``dir`` and patching see an ordinary attribute.  That
cache is the only global state this module writes.  The submodule
import runs under Python's import lock, and concurrent first accesses
store the same object.
"""

from importlib import import_module

# public name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in {
    "control": ("DEFAULT_CONTROL", "SeriesControl", "control_from_env"),
    "errata": ("ERRATA", "Erratum"),
    "errors": ("AccelerationStalledError", "ConvergenceError", "DivergentIntegralError",
               "DomainError", "Kernel", "MaxSubdivisionsError", "PoleError",
               "UnsupportedError"),
    "half_power": ("FamilyCoefficients", "HalfPowerParams", "PhasePattern", "c0", "c_alpha",
                   "family_coefficients", "fresnel_bracket", "s0", "s_alpha"),
    "lommel": ("GeneralExponent", "LommelOrder", "cos_exponent_transform",
               "general_cos_transform", "general_sin_transform", "log_weighted_sin_integral",
               "log_weighted_sin_integral_fd", "lommel_s_half", "pre_reduction_values",
               "si_ci_representation", "sin_exponent_transform"),
    "oracle": ("HalfPower", "IntegrandSpec", "LogHalfPower", "QuadraticPhase",
               "QuadratureReport", "RadicalPole", "ThreeRadical", "TwoRadical",
               "integrate_finite", "integrate_semi_infinite", "kernel_breakpoints",
               "lobe_sum", "oscillatory_integral"),
    "radical_pole": ("RadicalPoleParams", "approx_pole_cos_transform",
                     "approx_pole_sin_transform", "pole_cos_transform",
                     "pole_head_cos_approx", "pole_head_cos_series", "pole_head_sin_approx",
                     "pole_head_sin_series", "pole_sin_transform", "pole_tail_cos",
                     "pole_tail_sin"),
    "special_functions": ("EULER_GAMMA", "bessel_j0", "bessel_y0", "fresnel_c", "fresnel_s",
                          "gamma_real", "gen_ci", "gen_si", "hyp2f1", "hyp2f2_half",
                          "upper_incomplete_gamma"),
    "two_radical": ("TwoRadicalParams", "approx_cos_transform", "approx_sin_transform",
                    "cos_transform", "head_cos_approx", "head_cos_series", "head_sin_approx",
                    "head_sin_series", "sin_transform", "tail_cos", "tail_sin"),
}.items() for name in names}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
