"""The series loops' coefficient tables and the rerouted 2F1 seed.

Each series loop reads its index- and shape-only numbers from a table
that is complete before the loop runs: the Fresnel and Bessel rows are
tuples built at import, at their loops' caps; the heads' and moments'
lists grow once, before their one pass, to the moment table's top.  Only the
ratio series (2F1, 2F2) grows its table while it sums, as far as it has
run.  The gates here count entries; none of them takes a timing.
"""

import ast
import inspect
import json
import random
import sys
import threading

import mpmath

from oscint import SeriesControl, hyp2f1, sin_transform
from oscint import special_functions as sf
from oscint import two_radical as tr
from oscint.special_functions import _gauss_series
from test_imports import _fresh

# the index-only lists, by module; the shape-keyed ones are lru-cached list factories
LISTS = {sf: ("_F22_RATIOS",), tr: ("_HEAD_TERMS",)}
FACTORIES = {sf: ("_cf_numerators", "_gauss_ratios"), tr: ("_moment_ratios",)}


class _Recorder(list):
    """A table that counts the entries a loop read: its highest index + 1."""

    read = 0

    def __getitem__(self, key):
        got = range(len(self))[key]         # an IndexError where the list raises one
        self.read = max([self.read, *(i + 1 for i in (got if isinstance(got, range) else [got]))])
        return super().__getitem__(key)


def test_importing_every_family_module_leaves_every_table_empty():
    code = ("import importlib, json\n"
            "mods = [importlib.import_module('oscint.' + m) for m in ('half_power',"
            " 'two_radical', 'radical_pole', 'lommel', 'special_functions')]\n"
            "print(json.dumps({f'{m.__name__}.{n}': len(v) if isinstance(v, list)"
            " else v.cache_info().currsize for m in mods for n, v in vars(m).items()"
            " if isinstance(v, list) or hasattr(v, 'cache_info')}))")
    sizes = json.loads(_fresh(code)[0][0])
    for module, names in [*LISTS.items(), *FACTORIES.items()]:
        for name in names:
            assert f"{module.__name__}.{name}" in sizes
    assert set(sizes.values()) == {0}


def test_one_transform_grows_each_table_only_as_far_as_it_read(monkeypatch):
    recorders, made = {}, {}
    for module, names in LISTS.items():
        for name in names:
            recorders[name] = _Recorder()
            monkeypatch.setattr(module, name, recorders[name])
    for module, names in FACTORIES.items():
        for name in names:
            monkeypatch.setattr(module, name,
                                lambda *shape, _n=name: made.setdefault((_n, shape), _Recorder()))
    sf._bessel_pair.cache_clear()
    sin_transform(0.4, 1.9, 1.0)
    # every table ends at the entries read: the heads' pass reads its table
    # to the moment table's top + 1 and the moments' ratios to the top
    top = tr._table_top(0.4, sf.DEFAULT_CONTROL)
    assert len(recorders["_HEAD_TERMS"]) == top + 1
    tables = [*recorders.values(), *made.values()]
    assert [len(t) for t in tables] == [t.read for t in tables]
    assert sum(map(len, tables)) > 0
    assert [len(t) for (name, _), t in made.items() if name == "_moment_ratios"] == [top]
    # the moment seed's 2F1 is the one shape summed: Pfaff's, 28 terms direct
    seeds = [(shape, t) for (name, shape), t in made.items() if name == "_gauss_ratios"]
    assert len(seeds) == 1
    (p, one, c), ratios = seeds[0]
    assert (p, one) == (0.5, 1.0) and 0 < len(ratios) <= 16


def test_index_tables_under_racing_threads():
    # threads released together grow the same index tables at once; a lost
    # or duplicated entry would shift every later term of a loop (the Fresnel
    # and Bessel rows are tuples, built at import: their calls check values)
    zs = [0.1 + 0.05 * k for k in range(30)]
    calls = [(sf._fresnel_series, z) for z in zs] + [(sf._bessel_pair.__wrapped__, 10 * z)
                                                     for z in zs]
    calls += [(sf.hyp2f2_half, 6 * z) for z in zs]
    want = [f(z) for f, z in calls]
    tables = [getattr(m, n) for m, names in LISTS.items() for n in names if m is sf]
    start = threading.Barrier(4)
    got = []

    def work():
        start.wait(timeout=60)
        got.append([f(z) for f, z in calls])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(6):
            for table in tables:
                del table[:]
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 24


def test_only_the_ratio_series_grows_a_table_while_it_sums():
    # every other loop's table is complete before the loop runs
    handlers = [(module.__name__, func.name) for module in (sf, tr)
                for func in ast.walk(ast.parse(inspect.getsource(module)))
                if isinstance(func, ast.FunctionDef) for node in ast.walk(func)
                if isinstance(node, ast.ExceptHandler) and node.type is not None
                and "IndexError" in ast.unparse(node.type)]
    assert handlers == [("oscint.special_functions", "_ratio_series")]
    tree = ast.parse(inspect.getsource(sf))
    for name in ("_FRESNEL_TERMS", "_BESSEL_TERMS"):
        assigned = [node for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    and name in {t.id for t in node.targets if isinstance(t, ast.Name)}]
        assert assigned and all(node in tree.body for node in assigned)
        assert type(getattr(sf, name)) is tuple


def test_rerouted_2f1_is_as_accurate_as_the_direct_series():
    # the moment seeds' shapes (p, j + 1/2; j + 3/2), which the rule sends to
    # Pfaff's series on [-1/2, 0); at 1e-17, the seeds' deepest stop, the worst error
    # against 40-digit mpmath stays within that of the direct series
    rng = random.Random(20261019)
    ctl = SeriesControl(1e-17, 4000)
    worst_pfaff = worst_direct = 0.0
    with mpmath.workdps(40):
        for _ in range(2000):
            p, j, z = rng.choice((0.5, 1.0)), rng.randint(0, 60), -rng.uniform(1e-9, 0.5)
            want = mpmath.hyp2f1(p, j + 0.5, j + 1.5, z)
            err = lambda v: float(abs((mpmath.mpf(v) - want) / want))
            worst_pfaff = max(worst_pfaff, err(hyp2f1(p, j + 0.5, j + 1.5, z, ctl)))
            worst_direct = max(worst_direct, err(_gauss_series(p, j + 0.5, j + 1.5, z, ctl)))
    assert worst_pfaff <= worst_direct < 2e-15


def test_pfaff_rule_keeps_the_direct_series_where_it_would_not_shorten(monkeypatch):
    # on [-1/2, 0) the rule replaces the parameter nearer c only where that shrinks it
    summed = []
    real = sf._gauss_series
    monkeypatch.setattr(sf, "_gauss_series", lambda *args: summed.append(args) or real(*args))
    for a, b, c in ((0.5, 0.5, 1.5), (-3.0, 0.7, 2.0), (0.5, 10.5, 11.5), (4.0, 0.3, 4.5)):
        hyp2f1(a, b, c, -0.3)
    # c - b = 1 > b; a polynomial keeps its direct form; the moment seed; c - a = 1/2 < a
    assert [args[:4] for args in summed] == [
        (0.5, 0.5, 1.5, -0.3), (-3.0, 0.7, 2.0, -0.3),
        (0.5, 1.0, 11.5, -0.3 / -1.3), (0.5, 0.3, 4.5, -0.3 / -1.3)]
