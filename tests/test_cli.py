import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kernelgauge.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def _fast_disc(tmp_path, out_dir, **weight_extra):
    doc = {
        "domain": {"kind": "disc"},
        "point": {"z0": 0.0},
        "k": 0,
        "weight": {"p0": 1.0, "c": {"kind": "constant_one"}, **weight_extra},
        "run": {
            "basis_schedule": [8, 16],
            "boundary_nodes": 128,
            "radial_cells": 128,
            "angular_cells": 96,
            "refine_quadrature": False,
            "output_dir": str(out_dir),
        },
    }
    return _write(tmp_path, doc)


def test_verify_disc_baseline(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["verify", _fast_disc(tmp_path, out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "verdict: pass" in captured
    csv_lines = (out / "report.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 2
    header = csv_lines[0].split(",")
    row = dict(zip(header, csv_lines[1].split(",")))
    assert abs(float(row["ratio"]) - 1.0) < 1e-5
    assert row["verdict"] == "pass"
    assert (out / "report.md").exists()


def test_verify_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"domain": {"kind": "disc",}}')
    code = main(["verify", str(path)])
    assert code == 2
    assert "line" in capsys.readouterr().err


def test_verify_unknown_key(tmp_path, capsys):
    doc = {
        "domain": {"kind": "disc"},
        "point": {"z0": 0.0},
        "weight": {"p0": 1.0, "c": {"kind": "constant_one"}, "typo_key": 1},
    }
    code = main(["verify", _write(tmp_path, doc)])
    assert code == 2
    assert "typo_key" in capsys.readouterr().err


def test_verify_nonintegrable_profile(tmp_path, capsys):
    doc = {
        "domain": {"kind": "disc"},
        "point": {"z0": 0.0},
        "weight": {"p0": 1.0, "c": {"kind": "exp_delta", "delta": 1.2}},
    }
    code = main(["verify", _write(tmp_path, doc)])
    assert code == 2
    assert "not integrable" in capsys.readouterr().err


def test_verify_rejects_exterior_point(tmp_path, capsys):
    doc = {
        "domain": {"kind": "annulus", "q": 0.25},
        "point": {"z0": 0.1},
        "weight": {"p0": 1.0, "c": {"kind": "constant_one"}},
    }
    code = main(["verify", _write(tmp_path, doc)])
    assert code == 2
    assert "interior" in capsys.readouterr().err


def test_sweep_minimum_at_matched_character(tmp_path):
    out = tmp_path / "sweepout"
    doc = {
        "domain": {"kind": "annulus", "q": 0.25},
        "point": {"z0": 0.5},
        "k": 0,
        "weight": {
            "p0": 1.0,
            "u": {"log": 0.0, "coeffs": []},
            "c": {"kind": "constant_one"},
        },
        "run": {
            "basis_schedule": [8, 16],
            "boundary_nodes": 256,
            "radial_cells": 160,
            "angular_cells": 128,
            "refine_quadrature": False,
            "output_dir": str(out),
        },
    }
    path = _write(tmp_path, doc)
    code = main(["sweep", path, "--param", "alpha_u", "--range", "0:1:5"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "param,K,B,I_c,ratio,character_distance,expected_equality,verdict"
    assert len(lines) == 6
    ratios = [float(line.split(",")[4]) for line in lines[1:]]
    # matched character at alpha_u = 0.5 is the third row
    assert int(np.argmin(ratios)) == 2
    # deterministic output: rerun produces identical bytes
    first = (out / "sweep.csv").read_bytes()
    assert main(["sweep", path, "--param", "alpha_u", "--range", "0:1:5"]) == 0
    assert (out / "sweep.csv").read_bytes() == first


def test_sweep_bad_range(tmp_path, capsys):
    path = _fast_disc(tmp_path, tmp_path / "o")
    assert main(["sweep", path, "--param", "alpha_u", "--range", "0..1"]) == 2
    assert main(["sweep", path, "--param", "bogus", "--range", "0:1:3"]) == 2


def test_sweep_negative_range_start(tmp_path):
    out = tmp_path / "neg"
    path = _fast_disc(tmp_path, out, c={"kind": "exp_delta", "delta": 0.0})
    assert main(["sweep", path, "--param", "delta", "--range", "-0.4:-0.2:2"]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [-0.4, -0.2]


def test_reports_identical_across_blas_thread_counts(tmp_path):
    names = ("disc_baseline", "annulus_strict", "annulus_matched")
    script = (
        "import sys\n"
        "from kernelgauge.cli import main\n"
        "for name in sys.argv[2:]:\n"
        "    main(['verify', f'{sys.argv[1]}/{name}.json', '--out', name])\n"
    )
    reports = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        cwd = tmp_path / threads
        cwd.mkdir()
        subprocess.run([sys.executable, "-c", script, str(SCENARIOS), *names], cwd=cwd, env=env,
                       check=True, capture_output=True, timeout=600)
        reports[threads] = [(cwd / name / "report.csv").read_bytes() for name in names]
    assert reports["1"] == reports["2"]


def test_kernel_eval_radial_baseline(tmp_path):
    out = tmp_path / "keval"
    path = _fast_disc(tmp_path, out)
    code = main(["kernel-eval", path, "--curve", "radial"])
    assert code == 0
    lines = (out / "kernel_eval_radial.csv").read_text().strip().splitlines()
    assert lines[0] == "re_z,im_z,re_K,im_K,re_B,im_B"
    assert len(lines) == 65
    # disc baseline: K(z, conj(0)) = 1 and B(z, conj(0)) = 1/pi everywhere
    for line in lines[1:]:
        _, _, re_k, im_k, re_b, im_b = map(float, line.split(","))
        assert abs(re_k - 1.0) < 1e-8 and abs(im_k) < 1e-8
        assert abs(re_b - 1.0 / math.pi) < 1e-8 and abs(im_b) < 1e-8


def test_kernel_eval_boundary_curve(tmp_path):
    out = tmp_path / "keval2"
    path = _fast_disc(tmp_path, out)
    assert main(["kernel-eval", path, "--curve", "boundary"]) == 0
    lines = (out / "kernel_eval_boundary.csv").read_text().strip().splitlines()
    zs = np.array([complex(float(l.split(",")[0]), float(l.split(",")[1])) for l in lines[1:]])
    assert np.allclose(np.abs(zs), 1.0)


def test_shipped_scenarios_parse():
    from kernelgauge.cli import build_config, build_resolution, load_scenario

    for name in ("disc_baseline.json", "annulus_strict.json", "annulus_matched.json"):
        doc = load_scenario(SCENARIOS / name)
        config = build_config(doc)
        build_resolution(doc, config.domain)


def test_thread_cap_env(tmp_path, monkeypatch):
    from kernelgauge.cli import _max_workers

    monkeypatch.setenv("KERNELGAUGE_THREADS", "2")
    assert _max_workers() == 2
    monkeypatch.setenv("KERNELGAUGE_THREADS", "zero")
    path = _fast_disc(tmp_path, tmp_path / "o2")
    assert main(["sweep", path, "--param", "eps", "--range", "0:0:1"]) == 2


def test_verify_inconclusive_exit(tmp_path):
    # Density singular at an off-center point, evaluated coarsely: the
    # honest error estimate swamps the equality margin.
    doc = {
        "domain": {"kind": "disc"},
        "point": {"z0": 0.4},
        "k": 0,
        "weight": {"p0": 1.0, "c": {"kind": "exp_delta", "delta": 0.3}},
        "run": {
            "basis_schedule": [8, 16],
            "boundary_nodes": 128,
            "radial_cells": 128,
            "angular_cells": 96,
            "output_dir": str(tmp_path / "o3"),
        },
    }
    code = main(["verify", _write(tmp_path, doc)])
    assert code == 3


def _k1_disc(out_dir):
    return {
        "domain": {"kind": "disc"},
        "point": {"z0": 0.0},
        "k": 1,
        "weight": {"p0": 2.0, "c": {"kind": "constant_one"}},
        "run": {
            "basis_schedule": [8, 16],
            "boundary_nodes": 128,
            "radial_cells": 160,
            "angular_cells": 96,
            "refine_quadrature": False,
            "output_dir": str(out_dir),
        },
    }


def test_verify_higher_order_scenario(tmp_path, capsys):
    code = main(["verify", _write(tmp_path, _k1_disc(tmp_path / "o4"))])
    out = capsys.readouterr().out
    assert code == 0
    assert "K = 2" in out


def test_reduced_route_mismatch(tmp_path, capsys, monkeypatch):
    # Shift only the reduced (k = 0) route of a k = 1 problem by 1e-3
    # relative: the cross-check must refuse the report.
    import dataclasses

    import kernelgauge.verifier as verifier
    from kernelgauge.cli import build_config, build_resolution
    from kernelgauge.errors import RouteMismatch

    real = verifier.kernel_diag

    def shifted(config, side, res=None):
        value = real(config, side, res)
        if config.k == 0:
            return dataclasses.replace(value, value=value.value * (1.0 + 1e-3))
        return value

    monkeypatch.setattr(verifier, "kernel_diag", shifted)
    doc = _k1_disc(tmp_path / "o5")
    config = build_config(doc)
    with pytest.raises(RouteMismatch):
        verifier.verify(config, build_resolution(doc, config.domain))
    assert main(["verify", _write(tmp_path, doc)]) == 3
    assert "RouteMismatch" in capsys.readouterr().err


def test_verify_unrefined_quadrature_reported_unchecked(tmp_path, capsys):
    # With refinement off there is no quadrature estimate; reports say so
    # instead of printing the roundoff floor as if it had been measured.
    doc = json.loads((SCENARIOS / "disc_baseline.json").read_text())
    out = tmp_path / "out"
    doc["run"].update(refine_quadrature=False, output_dir=str(out))
    assert main(["verify", _write(tmp_path, doc)]) == 0
    summary = capsys.readouterr().out
    assert "K = 1 (trunc 1.00e-12, quad not checked)" in summary
    assert "(trunc 3.18e-13, quad not checked)" in summary
    header, values = (out / "report.csv").read_text().strip().splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    assert row["K_quad"] == row["B_quad"] == "nan"
    # The truncation estimates, tol_ineq and the verdict are as with the
    # missing estimate counted as 0.
    assert row["K_trunc"] == "1.000000e-12"
    assert row["tol_ineq"] == "3.000e-12"
    assert row["verdict"] == "pass"
    md = (out / "report.md").read_text()
    assert "| K_quad | nan |" in md and "| B_quad | nan |" in md


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
