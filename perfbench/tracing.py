"""Per-layer spans, recorded from outside the library.

``Tracer.install`` wraps every public oscint function at every module
binding that holds it -- ``from ... import`` copies live in
``two_radical``, ``radical_pole``, ``lommel``, ``half_power`` and
``oracle`` as well as the defining module -- plus scipy's ``quad`` as
bound in ``oracle``.  Each call records a span (name, start, end,
parent span, request id, success, and an extra count: ``neval`` for
quad, lobes for ``lobe_sum``) in flat in-memory lists; ``layer_metrics``
turns them into per-request counts and self times.  A span's self time
is its duration minus the durations of its direct children (one thread,
so children never overlap).
"""

from __future__ import annotations

import inspect
import time

import numpy as np

LAYER_MODULES = ("special_functions", "half_power", "two_radical", "radical_pole",
                 "lommel", "oracle")
BINDING_MODULES = ("", "special_functions", "half_power", "two_radical", "radical_pole",
                   "lommel", "oracle", "cli")

# special-function metric groups and the head series each radical family tries first
SPECIAL_GROUPS = {
    "hyp2f1": ("hyp2f1",),
    "fresnel": ("fresnel_s", "fresnel_c"),
    "bessel": ("bessel_j0", "bessel_y0"),
    "upper_incomplete_gamma": ("upper_incomplete_gamma",),
    "hyp2f2_half": ("hyp2f2_half",),
    "gen_trig": ("gen_si", "gen_ci"),
}
HEAD_SERIES = {
    "two_radical": ("head_sin_series", "head_cos_series"),
    "radical_pole": ("pole_head_sin_series", "pole_head_cos_series"),
}


def per_layer_spec():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    out = []
    for g in SPECIAL_GROUPS:
        out += [(f"special_functions.{g}.calls_per_req", "count", "lower"),
                (f"special_functions.{g}.self_us_per_req", "us", "lower")]
    out += [(f"{m}.self_us_per_req", "us", "lower")
            for m in ("half_power", "two_radical", "radical_pole", "lommel")]
    out += [(f"{m}.quad_head_share", "ratio", "lower") for m in HEAD_SERIES]
    out += [("oracle.lobes_per_integral", "count", "lower"),
            ("oracle.quad_calls_per_req", "count", "lower"),
            ("oracle.integrand_evals_per_req", "count", "lower"),
            ("oracle.quad_self_us_per_req", "us", "lower"),
            ("oracle.self_us_per_req", "us", "lower"),
            ("oracle.integrate_finite.calls_per_req", "count", "lower"),
            ("cli.import_us", "us", "lower"),
            ("cli.import_scipy_us", "us", "lower"),
            ("cli.modules_loaded", "count", "lower"),
            ("trace.goodput_ratio", "ratio", "higher")]
    return out


def _lobes(result):
    return result[2]


def _neval(result):
    return result[2]["neval"] if len(result) > 2 else 0


class Tracer:
    def __init__(self):
        self.names = []          # name id -> "binding:module.function"
        self.name_id, self.parent, self.req = [], [], []
        self.start, self.end, self.ok, self.extra = [], [], [], []
        self.stack = []
        self.request = -1
        self._patched = []       # (module, attribute, original)

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, label, extra=None):
        nid = len(self.names)
        self.names.append(label)
        t = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(t.start)
            t.name_id.append(nid)
            t.parent.append(t.stack[-1] if t.stack else -1)
            t.req.append(t.request)
            t.ok.append(0)
            t.extra.append(0)
            t.end.append(0)
            t.stack.append(i)
            t.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t.end[i] = clock()
                t.stack.pop()
            t.ok[i] = 1
            if extra is not None:
                t.extra[i] = extra(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, api):
        """Wrap every public function of ``api`` (the oscint package)."""
        import importlib

        public = {}
        for name in dir(api):
            obj = getattr(api, name)
            mod = getattr(obj, "__module__", "") or ""
            layer = mod.rpartition(".")[2]
            if (callable(obj) and not isinstance(obj, type) and layer in LAYER_MODULES
                    and not inspect.isgeneratorfunction(obj)):
                public[id(obj)] = f"{layer}.{name}"
        for bmod in BINDING_MODULES:
            module = importlib.import_module(f"{api.__name__}.{bmod}" if bmod else api.__name__)
            for attr, obj in list(vars(module).items()):
                if id(obj) in public:
                    label = f"{bmod or 'oscint'}:{public[id(obj)]}"
                    extra = _lobes if attr == "lobe_sum" else None
                    self._patch(module, attr, self._wrap(obj, label, extra))
        oracle = importlib.import_module(f"{api.__name__}.oracle")
        self._patch(oracle, "quad", self._wrap(oracle.quad, "oracle:scipy.quad", _neval))
        return self

    def _patch(self, module, attr, new):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- export -------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "req": np.array(self.req, dtype=np.int64),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "ok": np.array(self.ok, dtype=np.int8),
            "extra": np.array(self.extra, dtype=np.int64),
        }


def write_spans(path, names, a):
    """Write spans as tab-separated text, one span per line."""
    cols = [a[k].tolist() for k in ("parent", "req", "name", "start", "end", "ok", "extra")]
    with open(path, "w") as fh:
        fh.write("span\tparent\treq\tname\tstart_ns\tend_ns\tok\textra\n")
        for i, (par, req, nid, t0, t1, ok, extra) in enumerate(zip(*cols)):
            fh.write(f"{i}\t{par}\t{req}\t{names[nid]}\t{t0}\t{t1}\t{ok}\t{extra}\n")


def merge(parts):
    """Concatenate (names, arrays) span sets from several processes.

    Span and parent indices are shifted; name ids are remapped onto one
    name table.
    """
    names, cols = [], {k: [] for k in ("name", "parent", "req", "start", "end", "ok", "extra")}
    offset = 0
    for part_names, arrs in parts:
        remap = np.array([_intern(names, n) for n in part_names] or [0], dtype=np.int32)
        for k, v in arrs.items():
            v = np.asarray(v)
            if k == "name":
                v = remap[v] if len(v) else v
            elif k == "parent":
                v = np.where(v >= 0, v + offset, -1)
            cols[k].append(v)
        offset += len(arrs["name"])
    return names, {k: np.concatenate(v) if v else np.zeros(0, np.int64) for k, v in cols.items()}


def _intern(names, n):
    if n not in names:
        names.append(n)
    return names.index(n)


def layer_metrics(names, a, n_requests, req_factor):
    """(per-layer metrics, calls per binding) from span arrays.

    ``req_factor[r]`` is the pace factor of the block request r ran in,
    so self times come out in reference-pace microseconds.
    """
    labels = [n.partition(":") for n in names] or [("", "", "")]
    binding = np.array([b for b, _, _ in labels], dtype=object)[a["name"]]
    module = np.array([f.partition(".")[0] for _, _, f in labels], dtype=object)[a["name"]]
    func = np.array([f.partition(".")[2] for _, _, f in labels], dtype=object)[a["name"]]
    dur = (a["end"] - a["start"]) * np.asarray(req_factor, dtype=np.float64)[a["req"]]
    child = np.zeros_like(dur)
    nested = a["parent"] >= 0
    np.add.at(child, a["parent"][nested], dur[nested])
    self_us = (dur - child) / 1e3
    ok = a["ok"] == 1
    n = max(n_requests, 1)
    out = {}
    for g, fns in SPECIAL_GROUPS.items():
        m = np.isin(func, fns) & (module == "special_functions")
        out[f"special_functions.{g}.calls_per_req"] = m.sum() / n
        out[f"special_functions.{g}.self_us_per_req"] = self_us[m].sum() / n
    for mod in ("half_power", "two_radical", "radical_pole", "lommel"):
        out[f"{mod}.self_us_per_req"] = self_us[module == mod].sum() / n
    finite = (func == "integrate_finite") & (module == "oracle")
    for mod, series in HEAD_SERIES.items():
        quad_heads = (finite & (binding == mod)).sum()
        heads = quad_heads + (np.isin(func, series) & (binding == mod) & ok).sum()
        out[f"{mod}.quad_head_share"] = quad_heads / heads if heads else 0.0
    lobes = (func == "lobe_sum") & ok
    quad = module == "scipy"
    out["oracle.lobes_per_integral"] = (a["extra"][lobes].sum() / lobes.sum()
                                        if lobes.any() else 0.0)
    out["oracle.quad_calls_per_req"] = quad.sum() / n
    out["oracle.integrand_evals_per_req"] = a["extra"][quad].sum() / n
    out["oracle.quad_self_us_per_req"] = self_us[quad].sum() / n
    out["oracle.self_us_per_req"] = self_us[module == "oracle"].sum() / n
    out["oracle.integrate_finite.calls_per_req"] = finite.sum() / n
    counts = np.bincount(a["name"], minlength=len(names))
    return ({k: float(v) for k, v in out.items()},
            {label: int(c) for label, c in zip(names, counts)})


# ---------------------------------------------------------------------------
# cold-import profile from ``python -X importtime``
# ---------------------------------------------------------------------------

def parse_importtime(stderr_text, root="oscint"):
    """(import_us, scipy_us, modules) for the import of package ``root``.

    Rows are printed children-first; a row's parent is the next row at
    one level less indentation.  ``import_us`` sums the cumulative time
    of the top-level ``root`` rows, ``scipy_us`` the cumulative time of
    scipy rows with no scipy ancestor, and ``modules`` counts the rows
    loaded under ``root``.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        stripped = name.lstrip(" ")
        rows.append(((len(name) - len(stripped) - 1) // 2, int(cum), stripped.strip()))
    import_us = scipy_us = modules = 0
    stack = []   # ancestors, walking the rows backwards (parents first)
    for level, cum, name in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        names = [n for _, n in stack]
        under_root = any(n == root or n.startswith(root + ".") for n in names + [name])
        if level == 0 and (name == root or name.startswith(root + ".")):
            import_us += cum
        if under_root:
            modules += 1
            if (name == "scipy" or name.startswith("scipy.")) and not any(
                    n == "scipy" or n.startswith("scipy.") for n in names):
                scipy_us += cum
        stack.append((level, name))
    return import_us, scipy_us, modules
