"""tools/accuracy.py: short runs of the Gamma and gen-trig routes' strata against mpmath."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_two_points_per_gamma_stratum(tmp_path):
    pytest.importorskip("mpmath")
    record = tmp_path / "accuracy.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "accuracy.py"),
                    "--points", "2", "--seed", "3", "--record", str(record)],
                   cwd=ROOT, check=True, capture_output=True, timeout=60)
    got = json.loads(record.read_text())
    strata = got["strata"]
    # 5 order bands x 3 |z| bands x 3 directions of Gamma(a, z); the Gamma form on the
    # 15 bands' 18 parts either side of its switch; S_{mu,1/2} past mu = 1/2 on both
    assert (got["points"], len(strata)) == (2, 65)
    for name, sides in strata.items():
        row = sides["change"]
        assert list(sides) == ["change"] and row["points"] == 2, name
        assert row["raises"] == {}, name
        assert 0.0 <= row["worst"] < 1e-12, name
    # on the backward fraction's route the form is -i u^a / D at every order
    fraction = [name for name in strata if name.startswith("form") and name.endswith("fraction")]
    assert len(fraction) == 14
    for name in fraction:
        assert strata[name]["change"]["worst"] <= 1e-15, name


def test_two_points_per_gen_trig_stratum(tmp_path):
    pytest.importorskip("mpmath")
    record = tmp_path / "accuracy.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "accuracy.py"), "--route", "gen-trig",
                    "--points", "2", "--seed", "3", "--record", str(record)],
                   cwd=ROOT, check=True, capture_output=True, timeout=60)
    got = json.loads(record.read_text())
    strata = got["strata"]
    # gen_si and gen_ci on 3 alpha bands x 4 z bands, up to 1e16 (below 2^52 half-periods)
    assert (got["route"], got["points"], len(strata)) == ("gen-trig", 2, 24)
    for name, sides in strata.items():
        row = sides["change"]
        assert list(sides) == ["change"] and row["points"] == 2, name
        # no raise where the value is a double, and each part within the lobe sum's
        # tolerance of the modulus
        assert row["off_range"] == 0 and row["raises"] == {}, name
        assert 0.0 <= row["worst"] < 1e-12, name
