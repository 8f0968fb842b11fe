"""Bit pins of the series kernels, the five closed-form families and the oracle.

Each case is a public function at a fixed in-grid or wide argument, and
its pin is the ``float.hex`` of the value (real and imaginary part for a
complex one), frozen from the implementation before the series loops
read their shape-only coefficients from tables.  Those tables keep every
float operation and operand of the loops, so a value that moves by one
bit here means a loop's arithmetic changed order or operand.  The five
pins of values through the Gamma form (two half-power, two Lommel and a
radical-pole cosine whose tails are past the Fresnel switch) were frozen
again when that form's phase became a product of two exponentials.  Those
five and ``general_sin_transform(1, 3, 6.0, 1.25)``, all six at u >= 3, were
frozen again when the form there became -i u^a / D, the backward fraction
with no phase; each moved closer to 40-digit mpmath.  The two Lommel pins at
u >= 3 were frozen once more when the fraction formed its last denominator
afresh and the cosine took the Gamma order -p exactly (both non-dyadic
orders); each again moved closer.  The three Fresnel pins past the switch
were frozen again when the Fresnel tail became the auxiliary functions from
the phase-free Gamma(1/2) form: 3.7 and 250 moved closer to 40-digit
mpmath, and 1e8 keeps its error, the conditioning of S and C in z, to an ulp.
The two log-weight pins at x >= 3 were frozen again when that weight took the
order derivative of the backward fraction there instead of the 2F2 series:
against 40-digit mpmath 9.5 moved from 8.3e-13 to 1.7e-16 and 12 from 6.4e-13
to 1.1e-16.  The eleven radical pins that pass through the head series were
frozen again when both heads became one Horner pass to the moment table's top
(the seed's 2F1 summed only as deep as the recurrence carries its error):
against 40-digit mpmath eight moved closer, and sin_transform(0.9, 1.3, 1.8),
pole_sin_transform(0.7, 2.6, 0.5) and cos_transform(0.4, 1.9, 1.0) moved one
ulp away (the last one ulp of its cosine head, two of the transform).
``upper_incomplete_gamma(2.0, -5j)`` was frozen again when orders above 1 left
modified Lentz for the backward fraction: against 40-digit mpmath it moved from
2.5e-16 to 7.4e-17.  Two pins with Re z < 0 keep Lentz's bits, and
``lommel_s_half(2.5, 12.0)`` pins the continuation past mu = 1/2.

The 2F1 shapes pinned here are outside the set the Pfaff rule moves on
[-1/2, 0); ``tests/test_series_tables.py`` checks the moved shapes against
mpmath instead.  The oracle's pins, at the end, have their own note.
"""

import hashlib
import math
import random

import pytest

import oscint
from oscint import oracle, special_functions

CASES = [
    # Fresnel: Maclaurin series up to 1.6, the phase-free Gamma(1/2) fraction above
    ("fresnel_s", (0.05,)), ("fresnel_c", (0.9,)), ("fresnel_s", (1.6,)),
    ("fresnel_c", (1.6,)), ("fresnel_s", (1.65,)), ("fresnel_c", (3.7,)),
    ("fresnel_s", (250.0,)), ("fresnel_c", (1e8,)),
    # J0 / Y0: ascending series up to 14, Hankel sums above
    ("bessel_j0", (0.3,)), ("bessel_y0", (2.5,)), ("bessel_j0", (9.75,)),
    ("bessel_y0", (14.0,)), ("bessel_j0", (20.0,)),
    ("hyp2f2_half", (0.2,)), ("hyp2f2_half", (3.3,)), ("hyp2f2_half", (11.0,)),
    ("hyp2f2_half", (-6.0,)),
    # Gamma(a, z): backward fraction, Temme's series with and without the
    # downward lift, and Gamma(a) minus the lower series
    ("upper_incomplete_gamma", (-1.5, -5j)), ("upper_incomplete_gamma", (0.5, -4.2j)),
    ("upper_incomplete_gamma", (-4.5, -3.5j)), ("upper_incomplete_gamma", (1.0, -30j)),
    ("upper_incomplete_gamma", (2.0, -5j)), ("upper_incomplete_gamma", (-0.5, -2j)),
    ("upper_incomplete_gamma", (0.2, -1.1j)), ("upper_incomplete_gamma", (-2.0, -1.5j)),
    ("upper_incomplete_gamma", (2.5, -2j)), ("upper_incomplete_gamma", (3.5, -4j)),
    # the backward fraction off the imaginary axis, at the depth fitted on it
    ("upper_incomplete_gamma", (-2.5, 3 + 4j)), ("upper_incomplete_gamma", (0.5, 10 - 1j)),
    ("upper_incomplete_gamma", (-40.5, 0.5 + 50j)),
    # modified Lentz, Re z < 0
    ("upper_incomplete_gamma", (2.5, -4 + 3j)), ("upper_incomplete_gamma", (-1.5, -3 + 4j)),
    # 2F1 outside the rerouted set: direct inside [-1/2, 0), Pfaff below
    ("hyp2f1", (0.5, 0.5, 1.5, -0.3)), ("hyp2f1", (1.0, 1.0, 2.0, -0.45)),
    ("hyp2f1", (0.3, 0.4, 2.5, -0.35)), ("hyp2f1", (0.5, 3.5, 4.5, -0.8)),
    ("hyp2f1", (1.0, 10.5, 11.5, -0.9)),
    # radical heads: moments downward from the 2F1 seed (gamma <= 1), upward above
    ("head_sin_series", (1.5, 0.5)), ("head_cos_series", (1.5, 0.5)),
    ("head_cos_series", (6.0, 1.2)), ("pole_head_sin_series", (0.8, 0.9)),
    ("pole_head_cos_series", (3.0, 1.4)), ("pole_head_sin_series", (11.0, 0.7)),
    # the five closed-form families, in-grid and wide
    ("sin_transform", (0.4, 1.9, 1.0)), ("cos_transform", (0.4, 1.9, 1.0)),
    ("sin_transform", (0.9, 1.3, 1.8)), ("cos_transform", (25.0, 27.0, 1.2)),
    ("pole_sin_transform", (0.7, 2.6, 0.5)), ("pole_cos_transform", (0.3, 3.2, 1.7)),
    ("pole_cos_transform", (0.95, 1.2, 0.4)),
    ("s_alpha", (2, 3.5, 0.75)), ("c_alpha", (3, 9.0, 1.0)), ("s_alpha", (0, 0.3, 1.1)),
    ("c_alpha", (7, 400.0, 1.0)),
    ("general_sin_transform", (1, 3, 6.0, 1.25)),
    ("general_cos_transform", (2, 5, 7.0, 1.5, True)),
    ("general_sin_transform", (0, 2, 1.5, 1.25)),
    ("general_cos_transform", (1, 4, 300.0, 1.0)),
    ("lommel_s_half", (2.5, 12.0)),
    ("log_weighted_sin_integral", (2.5,)), ("log_weighted_sin_integral", (0.3,)),
    ("log_weighted_sin_integral", (9.5,)), ("log_weighted_sin_integral", (12.0,)),
]

PINS = {
    'fresnel_s(0.05,)': '0x1.1284291f4cee2p-14',
    'fresnel_c(0.9,)': '0x1.8796e20f31963p-1',
    'fresnel_s(1.6,)': '0x1.471c4954fadffp-1',
    'fresnel_c(1.6,)': '0x1.763b966945a14p-2',
    'fresnel_s(1.65,)': '0x1.318954f9cd39fp-1',
    'fresnel_c(3.7,)': '0x1.1579e6de533eep-1',
    'fresnel_s(250.0,)': '0x1.feb23a572ee9ep-2',
    'fresnel_c(100000000.0,)': '0x1.ffffffd38a872p-2',
    'bessel_j0(0.3,)': '0x1.f48b6d692fb9ep-1',
    'bessel_y0(2.5,)': '0x1.fe0628069e15dp-2',
    'bessel_j0(9.75,)': '-0x1.d1941ef58fe49p-3',
    'bessel_y0(14.0,)': '0x1.047d89930ccebp-3',
    'bessel_j0(20.0,)': '0x1.561106f7bed66p-3',
    'hyp2f2_half(0.2,)': '0x1.ff97400db71b0p-1 0x1.6ba4b79bf6d9fp-6',
    'hyp2f2_half(3.3,)': '0x1.aadba89553febp-1 0x1.1263950272dfap-2',
    'hyp2f2_half(11.0,)': '0x1.1f1cb9d7e9b42p-1 0x1.0ffd96b2315ffp-2',
    'hyp2f2_half(-6.0,)': '0x1.5a10a0bea8a8ep-1 -0x1.21baea9f6f603p-2',
    'upper_incomplete_gamma(-1.5, (-0-5j))': '-0x1.391fb756554fbp-7 0x1.8f8dd30b148fep-7',
    'upper_incomplete_gamma(0.5, (-0-4.2j))': '0x1.4310c21793984p-4 -0x1.dfd4719b9e252p-2',
    'upper_incomplete_gamma(-4.5, (-0-3.5j))': '0x1.22f45faceaef1p-13 -0x1.20e70ee911482p-11',
    'upper_incomplete_gamma(1.0, (-0-30j))': '0x1.3be82f2505a54p-3 -0x1.f9df47f1c903ep-1',
    'upper_incomplete_gamma(2.0, (-0-5j))': '-0x1.20b38e2a5ab12p+2 -0x1.30493e3bb3515p+1',
    'upper_incomplete_gamma(-0.5, (-0-2j))': '-0x1.a342bebf87b90p-3 -0x1.74b6d90ed90bap-3',
    'upper_incomplete_gamma(0.2, (-0-1.1j))': '-0x1.1542223b5f2fap-2 0x1.56704ae6c1909p-1',
    'upper_incomplete_gamma(-2.0, (-0-1.5j))': '0x1.4e3ca1d7dce14p-4 -0x1.f47ba31671fbep-4',
    'upper_incomplete_gamma(2.5, (-0-2j))': '0x1.7c3428858f585p+1 0x1.414a7a857389dp+0',
    'upper_incomplete_gamma(3.5, (-0-4j))': '0x1.6f10b217e96b9p+4 0x1.4d2d13bbe9bfdp+4',
    'upper_incomplete_gamma(-2.5, (3+4j))': '0x1.9434a3289c751p-14 -0x1.28a51766f1ab1p-14',
    'upper_incomplete_gamma(0.5, (10-1j))': '0x1.ccb7217a1fd7dp-18 0x1.8db48afd0b4cfp-17',
    'upper_incomplete_gamma(-40.5, (0.5+50j))': '0x1.ba08b88988e13p-237 -0x1.5586eae5b3857p-236',
    'upper_incomplete_gamma(2.5, (-4+3j))': '0x1.94a8669a8ad25p+8 0x1.f6c6d53f38c7fp+7',
    'upper_incomplete_gamma(-1.5, (-3+4j))': '-0x1.77490b3d8ae36p-2 -0x1.3d3237ed317ddp-3',
    'hyp2f1(0.5, 0.5, 1.5, -0.3)': '0x1.e9579d67e9068p-1',
    'hyp2f1(1.0, 1.0, 2.0, -0.45)': '0x1.a6c1badcb90c0p-1',
    'hyp2f1(0.3, 0.4, 2.5, -0.35)': '0x1.f815f5cacb7f7p-1',
    'hyp2f1(0.5, 3.5, 4.5, -0.8)': '0x1.933fdcb858686p-1',
    'hyp2f1(1.0, 10.5, 11.5, -0.9)': '0x1.19844c2b2ddb0p-1',
    'head_sin_series(1.5, 0.5)': '0x1.d958fef6506cep-5',
    'head_cos_series(1.5, 0.5)': '0x1.e62a85fdca177p-2',
    'head_cos_series(6.0, 1.2)': '0x1.310421f378a9dp-2',
    'pole_head_sin_series(0.8, 0.9)': '0x1.0a9ee3ce86aafp-3',
    'pole_head_cos_series(3.0, 1.4)': '0x1.7a24e6c7f67a8p-2',
    'pole_head_sin_series(11.0, 0.7)': '0x1.4360eef19dd75p-3',
    'sin_transform(0.4, 1.9, 1.0)': '0x1.3e3dac13cf42ep-1',
    'cos_transform(0.4, 1.9, 1.0)': '0x1.83650bb5ed702p-2',
    'sin_transform(0.9, 1.3, 1.8)': '0x1.9f0abef107d5cp-2',
    'cos_transform(25.0, 27.0, 1.2)': '0x1.0c41970d11a59p-10',
    'pole_sin_transform(0.7, 2.6, 0.5)': '0x1.694c9ca157071p-2',
    'pole_cos_transform(0.3, 3.2, 1.7)': '0x1.c90e0a809775dp-4',
    'pole_cos_transform(0.95, 1.2, 0.4)': '0x1.512f71680439cp-1',
    's_alpha(2, 3.5, 0.75)': '0x1.16bab04e3e227p-5',
    'c_alpha(3, 9.0, 1.0)': '0x1.28be56c3b8ffcp-13',
    's_alpha(0, 0.3, 1.1)': '0x1.f66c1a4a0dcdep-1',
    'c_alpha(7, 400.0, 1.0)': '0x1.59b3b7cf382c5p-71',
    'general_sin_transform(1, 3, 6.0, 1.25)': '0x1.6718368d228e7p-7',
    'general_cos_transform(2, 5, 7.0, 1.5, True)': '0x1.4bf8fcdb3e2ddp-17',
    'general_sin_transform(0, 2, 1.5, 1.25)': '0x1.2d9446f599ebep-1',
    'general_cos_transform(1, 4, 300.0, 1.0)': '0x1.57f2758d88c80p-26',
    'lommel_s_half(2.5, 12.0)': '0x1.47ef5912bf8b4p+5',
    'log_weighted_sin_integral(2.5,)': '0x1.48cac76e53af8p-1',
    'log_weighted_sin_integral(0.3,)': '0x1.0fdff504a7a00p-10',
    'log_weighted_sin_integral(9.5,)': '0x1.766f462b5cad0p-1',
    'log_weighted_sin_integral(12.0,)': '0x1.6f6153e3c94aep-1',
}


def _hex(value):
    if isinstance(value, complex):
        return f"{value.real.hex()} {value.imag.hex()}"
    return value.hex()


@pytest.mark.parametrize("name,args", CASES, ids=[f"{n}{a}" for n, a in CASES])
def test_value_keeps_its_bits(name, args):
    assert _hex(getattr(oscint, name)(*args)) == PINS[f"{name}{args}"]


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(f"{n}{a}" for n, a in CASES)



# ------------------------------------------------------------------ the oracle
#
# The lobe-quadrature oracle, pinned before its lobe sum consumed a GK21
# block at a time instead of a lobe at a time: the value, the error
# estimate and the lobe count of each case.  Every lobe is still added in
# order, so none of them may move.  The eight ``gen_si``/``gen_ci`` pins were
# frozen again when those functions became the shifted sine S and cosine C
# from 0, rotated by z, and again when S and C became the parts of one complex
# sum C + iS over the e^(it) table: each pins S (gen_si) or C (gen_ci) with the
# shared estimate and lobe count, within 2.4e-16 of 40-digit mpmath (6.3e-16
# as two real sums).

def _jump_over(m):
    # a jump inside the tenth lobe [9 pi, 10 pi]: that whole lobe fails the
    # GK21 test and goes to ``quad``
    return lambda t: m.sin(t) / (t + 1.0) * (1.0 + 0.5 * (t > 9.5 * math.pi))


def _gen_trig_sum(name, alpha, u):
    """The one complex lobe sum C + iS behind ``gen_si``/``gen_ci`` at (alpha, u):
    the shifted sine S for ``gen_si``, the shifted cosine C for ``gen_ci``, each
    with the sum's shared error estimate and lobe count."""
    seen = []
    lobe_sum = oscint.lobe_sum
    special_functions.lobe_sum = lambda *a: seen.append(lobe_sum(*a)) or seen[-1]
    # a memoised pair would make no lobe sum
    special_functions._gen_trig_pair.cache_clear()
    try:
        getattr(oscint, name)(alpha, u)
    finally:
        special_functions.lobe_sum = lobe_sum
    (value, *rest), = seen
    return (value.real if name == "gen_ci" else value.imag, *rest)


def _report(rep):
    return rep.value, rep.abs_err_est, rep.zero_intervals_used


# (weight, kernel, zeta) of ``integrate_semi_infinite``: the six weights at
# both kernels, QuadraticPhase on its power-2 table, an oracle-grid integral
# whose graded first lobe sends six pieces to ``quad``, and one (24 lobes, no
# ``quad`` call) that takes a second block after the table's first
SEMI_INFINITE = [(w, k, 0.8) for w in (
    oscint.HalfPower(1.0, 0.5), oscint.TwoRadical(0.5, 2.0), oscint.RadicalPole(0.7, 1.9),
    oscint.ThreeRadical(0.4, 1.0, 2.5), oscint.LogHalfPower(1.5),
    oscint.QuadraticPhase(1.3, 0.5)) for k in oscint.Kernel] + [
    (oscint.HalfPower(5.0, 0.06219830681309388), oscint.Kernel.COS, 0.48950548999670707),
    (oscint.LogHalfPower(0.2973751452588066), oscint.Kernel.SIN, 1.0)]

# the table's first block with a plain lobe that fails its test: the jump's
# weight from 0, whose tenth lobe alone goes to ``quad``
TABLE_JUMP = "oscillatory_integral(jump at 9.5 pi, sin, 1.0)"

ORACLE_CASES = {
    **{f"integrate_semi_infinite({w!r}, {k.value}, {zeta})": lambda w=w, k=k, zeta=zeta:
       _report(oscint.integrate_semi_infinite(oscint.IntegrandSpec(w, k, zeta)))
       for w, k, zeta in SEMI_INFINITE},
    # from a later start the kernel comes from the zero stream, not the table
    "oscillatory_integral(TwoRadical(0.5, 2.0), cos, 0.8, 2.0)": lambda: _report(
        oscint.oscillatory_integral(None, oscint.Kernel.COS, 0.8, 2.0, g_over=lambda m:
                                    lambda t: 1.0 / m.sqrt((t + 0.5) * (t + 2.0)))),
    **{f"{name}({alpha}, {u})": lambda name=name, alpha=alpha, u=u:
       _gen_trig_sum(name, alpha, u)[:3]
       for name in ("gen_si", "gen_ci") for alpha in (0.0, -0.5) for u in (0.3, 1.7)},
    # a plain lobe that goes to quad, in the second block
    "lobe_sum(jump at 9.5 pi)": lambda: oscint.lobe_sum(
        None, oscint.kernel_breakpoints(oscint.Kernel.SIN, 1.0), f_over=_jump_over)[:3],
    TABLE_JUMP: lambda: _report(oscint.oscillatory_integral(
        None, oscint.Kernel.SIN, 1.0, 0.0, g_over=lambda m: lambda t:
        1.0 / (t + 1.0) * (1.0 + 0.5 * (t > 9.5 * math.pi)))),
}

ORACLE_PINS = {
    'gen_ci(-0.5, 0.3)':
        '0x1.905a9466bcc68p+0 0x1.69260369ad9f4p-49 19',
    'gen_ci(-0.5, 1.7)':
        '0x1.5a87f170d5bcfp-3 0x1.d70bfb27b019cp-51 19',
    'gen_ci(0.0, 0.3)':
        '0x1.fe098ec1a1ad7p-1 0x1.85e3ce6b3f79ap-48 19',
    'gen_ci(0.0, 1.7)':
        '0x1.7160a052d7f86p-3 0x1.13b324d04f628p-48 19',
    'gen_si(-0.5, 0.3)':
        '0x1.fe5fbd66af1dbp-1 0x1.69260369ad9f4p-49 19',
    'gen_si(-0.5, 1.7)':
        '0x1.2510b3bf48629p-2 0x1.d70bfb27b019cp-51 19',
    'gen_si(0.0, 0.3)':
        '0x1.060c30f4ae011p+0 0x1.85e3ce6b3f79ap-48 19',
    'gen_si(0.0, 1.7)':
        '0x1.ca32dae228c44p-2 0x1.13b324d04f628p-48 19',
    'integrate_semi_infinite(HalfPower(alpha=1.0, x=0.5), cos, 0.8)':
        '0x1.0b46ea8f14239p+0 0x1.024ed23f056f0p-49 19',
    'integrate_semi_infinite(HalfPower(alpha=1.0, x=0.5), sin, 0.8)':
        '0x1.8ab57421468cep-1 0x1.b9a1ae92b2cf0p-50 19',
    'integrate_semi_infinite(HalfPower(alpha=5.0, x=0.06219830681309388), cos, 0.48950548999670707)':
        '0x1.d11493cc9fe81p+15 0x1.12d3e77726032p-34 19',
    'integrate_semi_infinite(LogHalfPower(x=1.5), cos, 0.8)':
        '-0x1.ea38aedcf0d40p-3 0x1.e378478ef5edbp-43 21',
    'integrate_semi_infinite(LogHalfPower(x=1.5), sin, 0.8)':
        '0x1.64bede36f7f6fp-1 0x1.dedd4dc3e5df1p-43 20',
    'integrate_semi_infinite(LogHalfPower(x=0.2973751452588066), sin, 1.0)':
        '-0x1.93c0fa0446c00p-10 0x1.30bc16c7ea686p-45 24',
    'integrate_semi_infinite(QuadraticPhase(scale=1.3, power=0.5), cos, 0.8)':
        '0x1.299907658599dp-1 0x1.4fc31e774607dp-49 19',
    'integrate_semi_infinite(QuadraticPhase(scale=1.3, power=0.5), sin, 0.8)':
        '0x1.c5dc8ea692f91p-2 0x1.31d30a5b8f29ap-49 19',
    'integrate_semi_infinite(RadicalPole(a=0.7, b=1.9), cos, 0.8)':
        '0x1.2cced8e3b5410p-2 0x1.1ddf296f95948p-50 19',
    'integrate_semi_infinite(RadicalPole(a=0.7, b=1.9), sin, 0.8)':
        '0x1.7c8d83d1d5c6bp-2 0x1.c145aa2ef2750p-51 19',
    'integrate_semi_infinite(ThreeRadical(a=0.4, b=1.0, c=2.5), cos, 0.8)':
        '0x1.b782359d8127cp-2 0x1.4bba5e9ed7eebp-50 19',
    'integrate_semi_infinite(ThreeRadical(a=0.4, b=1.0, c=2.5), sin, 0.8)':
        '0x1.cbe0975fac967p-2 0x1.054242de3ae14p-50 19',
    'integrate_semi_infinite(TwoRadical(a=0.5, b=2.0), cos, 0.8)':
        '0x1.aa5fcb96252acp-2 0x1.3a20a56fdb496p-48 19',
    'integrate_semi_infinite(TwoRadical(a=0.5, b=2.0), sin, 0.8)':
        '0x1.519728206ee0bp-1 0x1.31bcdccc859bep-48 19',
    'lobe_sum(jump at 9.5 pi)':
        '0x1.3dea304a4b46fp-1 0x1.c0e384212de76p-41 36',
    TABLE_JUMP:
        '0x1.3dea304a4b470p-1 0x1.c06e3c212de76p-41 36',
    'oscillatory_integral(TwoRadical(0.5, 2.0), cos, 0.8, 2.0)':
        '-0x1.5788ee6c17ae5p-2 0x1.2276929bea573p-48 19',
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_oracle_result_keeps_its_bits(case):
    value, err, lobes = ORACLE_CASES[case]()
    assert f"{value.hex()} {err.hex()} {lobes}" == ORACLE_PINS[case]


def test_every_oracle_case_is_pinned():
    assert sorted(ORACLE_PINS) == sorted(ORACLE_CASES)


SECOND_BLOCK = "integrate_semi_infinite(LogHalfPower(x=0.2973751452588066), sin, 1.0)"


@pytest.mark.parametrize("case, ranges", [
    (TABLE_JUMP, [(9 * math.pi, 10 * math.pi)]), (SECOND_BLOCK, [])])
def test_table_path_sends_only_failed_lobes_to_quad(monkeypatch, case, ranges):
    # the table's failed plain lobe goes to quad alone, on its own range, and
    # the second block taken after the table sends none
    quad, calls = oracle.quad, []
    monkeypatch.setattr(oracle, "quad", lambda *a, **k: calls.append(a[1:3]) or quad(*a, **k))
    ORACLE_CASES[case]()
    assert [(a.hex(), b.hex()) for a, b in calls] == [(a.hex(), b.hex()) for a, b in ranges]


# The oracle in bulk: one SHA-256 over seeded results on every path a lobe
# takes, frozen before the settled first block became one straight pass.
# Each line is (value, abs_err_est, lobes, accelerated), or the error raised:
# the phase table from 0 for each weight at both kernels over oracle-grid's
# in-grid ranges (lommel exponents among the half powers) and at steep first
# lobes; the complex e^(it) table behind gen_si/gen_ci; the zero stream from a
# start above 0, in blocks and on floats (every lobe by ``quad``), at several
# tolerances.

def _bulk_weight(rng, name):
    u = rng.uniform
    if name == "HalfPower":
        n, m = rng.randint(0, 2), rng.randint(1, 5)
        alpha = rng.choice([rng.randint(0, 5), 2 * n + 1 / m - 0.5 + rng.randint(0, 1)])
        return oscint.HalfPower(alpha, u(0.05, 10.0))
    if name == "LogHalfPower":
        return oscint.LogHalfPower(u(0.05, 10.0))
    if name == "QuadraticPhase":
        return oscint.QuadraticPhase(u(0.5, 10.0), rng.choice([0.5, 1.0]))
    a = u(0.05, 1.0)
    b = a + u(0.2, 3.5)
    if name == "ThreeRadical":
        return oscint.ThreeRadical(a, b, b + u(0.2, 3.5))
    return getattr(oscint, name)(a, b)


def _bulk_line(call):
    try:
        return " ".join(_hex(x) if isinstance(x, (float, complex)) else str(x) for x in call())
    except ArithmeticError as exc:
        return repr(exc)


def _gen_trig_pair(alpha, z, seen):
    """(gen_si, gen_ci, and the lobe sum behind both) at (alpha, z)."""
    seen.clear()
    special_functions._gen_trig_pair.cache_clear()
    pair = oscint.gen_si(alpha, z), oscint.gen_ci(alpha, z)
    (result,) = seen
    return (*pair, *result)


def _bulk_oracle_lines():
    rng = random.Random(4901)
    for name in ("HalfPower", "TwoRadical", "RadicalPole", "ThreeRadical", "LogHalfPower",
                 "QuadraticPhase"):
        for j in range(100):
            spec = oscint.IntegrandSpec(_bulk_weight(rng, name), list(oscint.Kernel)[j % 2],
                                        rng.uniform(0.25, 2.0))
            yield _bulk_line(lambda: oscint.integrate_semi_infinite(spec))
    for j in range(10):     # steep first lobes, whose graded pieces go to quad
        spec = oscint.IntegrandSpec(oscint.HalfPower(rng.uniform(2.0, 5.0), rng.uniform(
            0.005, 0.1)), list(oscint.Kernel)[j % 2], rng.uniform(0.25, 2.0))
        yield _bulk_line(lambda: oscint.integrate_semi_infinite(spec))
    lobe_sum, seen = special_functions.lobe_sum, []
    special_functions.lobe_sum = lambda *a: seen.append(lobe_sum(*a)) or seen[-1]
    try:
        for j in range(40):
            alpha = 0.0 if j % 8 == 0 else rng.uniform(-3.0, 1.0)
            z = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
            yield _bulk_line(lambda: _gen_trig_pair(alpha, z, seen))
    finally:
        special_functions.lobe_sum = lobe_sum
    for j in range(20):
        g = _bulk_weight(rng, rng.choice(["HalfPower", "TwoRadical", "RadicalPole"]))
        g_over = lambda m, g=g: oracle._WEIGHT_OVER[type(g)](g, m)
        args = (list(oscint.Kernel)[j % 2], rng.uniform(0.25, 2.0), rng.uniform(0.1, 30.0),
                oscint.SeriesControl(rng.choice([1e-6, 1e-10, 1e-12, 1e-14])))
        yield _bulk_line(lambda: oscint.oscillatory_integral(None, *args, g_over=g_over)
                         if j % 5 else oscint.oscillatory_integral(g_over(math), *args))


BULK_DIGEST = "ee5cd38405e55209dad01aca1ef1ac8fe5c4c39f97ef8e498eaf33f07825a2ea"


def test_oracle_keeps_its_bits_in_bulk():
    lines = list(_bulk_oracle_lines())
    assert len(lines) == 670
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == BULK_DIGEST
