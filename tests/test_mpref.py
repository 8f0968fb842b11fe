"""tools/mpref.py: its conventions pinned by three cross-identities, and the one place
where the tests and tools call mpmath's ``gammainc`` and ``quad``."""

import ast
import pathlib

import mpmath as mp

from oscint import HalfPower

import mpref

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_the_p_one_pair_is_the_auxiliary_si_ci_form():
    # 1/(t+u): I_cos = -Ci(u) cos u - (Si(u) - pi/2) sin u, I_sin = Ci(u) sin u - (Si(u) - pi/2) cos u
    for u in (1e-20, 1.0, 30.0):
        s, c = mpref.pair(1, u, 30)
        with mp.workdps(30):
            si, ci = mp.si(u) - mp.pi / 2, mp.ci(u)
            assert mpref.rel(s, ci * mp.sin(u) - si * mp.cos(u)) <= 1e-20, u
            assert mpref.rel(c, -ci * mp.cos(u) - si * mp.sin(u)) <= 1e-20, u


def test_the_half_pair_is_the_base_fresnel_form():
    # (t+u)^-1/2: sqrt(pi/2) [cos u (1 - 2S) - sin u (1 - 2C)] and
    # sqrt(pi/2) [cos u (1 - 2C) + sin u (1 - 2S)], S and C at sqrt(2u/pi)
    for u in (1e-3, 2.0, 50.0):
        s, c = mpref.pair(0.5, u, 30)
        with mp.workdps(30):
            r = mp.sqrt(2 * u / mp.pi)
            fs, fc, k = 1 - 2 * mp.fresnels(r), 1 - 2 * mp.fresnelc(r), mp.sqrt(mp.pi / 2)
            assert mpref.rel(s, k * (mp.cos(u) * fs - mp.sin(u) * fc)) <= 1e-20, u
            assert mpref.rel(c, k * (mp.cos(u) * fc + mp.sin(u) * fs)) <= 1e-20, u


def test_the_rotated_contour_of_a_power_is_the_pair():
    # fixes the frequency's scale: zeta^(p-1) times the pair at u = zeta x
    got = mpref.contour(HalfPower(1.0, 0.7), 1.9, 30)
    want = mpref.pair(1.5, 0.7, 30, 1.9)
    for part in ("sin", "cos"):
        assert mpref.rel(getattr(got, part), getattr(want, part)) <= 1e-20, part


def _mpmath_calls(source):
    """(line, name) of each call of mpmath's ``gammainc`` or ``quad`` in ``source``:
    ``gammainc`` on any object, ``quad`` on a name bound to mpmath, and either name
    imported from mpmath."""
    tree = ast.parse(source)
    aliases, calls = {"mp", "mpmath"}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "mpmath"}
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and [ast.unparse(a) for a in node.value.args] == ["'mpmath'"]):
            aliases |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            calls += [(node.lineno, a.name) for a in node.names if a.name in ("gammainc", "quad")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name, owner = node.func.attr, node.func.value
            if name == "gammainc" or (name == "quad" and isinstance(owner, ast.Name)
                                      and owner.id in aliases):
                calls.append((node.lineno, name))
    return calls


def test_the_gate_sees_mpmath_calls_only():
    source = ("import mpmath as m\nfrom scipy.integrate import quad\n"
              "mq = pytest.importorskip('mpmath')\n"
              "m.quad(f, [0, 1]); mq.quad(f, [0, 1]); m.gammainc(1, 2j)\n"
              "oracle.quad(f, 0, 1); quad(f, 0, 1)\n")
    assert _mpmath_calls(source) == [(4, "quad"), (4, "quad"), (4, "gammainc")]


def test_gammainc_and_quad_are_called_in_the_reference_module_only():
    found = [(path.relative_to(ROOT).as_posix(), line, name)
             for folder in ("tests", "tools") for path in sorted((ROOT / folder).glob("*.py"))
             if path.name != "mpref.py"
             for line, name in _mpmath_calls(path.read_text())]
    assert found == []
    assert len(_mpmath_calls((ROOT / "tools" / "mpref.py").read_text())) > 0
