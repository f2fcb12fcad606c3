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
    weight = {"p0": 1.0, "c": {"kind": "constant_one"}}
    for extra, key in (
        ({"weight": {**weight, "typo_key": 1}}, "typo_key"),
        # The refinement grading is a fixed constant, no longer a run key.
        ({"weight": weight, "run": {"patch_grading": 0.7}}, "patch_grading"),
        # So are the refinement ring's Gauss panels.
        ({"weight": weight, "run": {"patch_panels": 16}}, "patch_panels"),
        # Every ring is a Gauss panel, so no run key switches the ring off.
        ({"weight": weight, "run": {"patch_radius": 0.0}}, "patch_radius"),
        # Every kernel value is refined, so no run key switches refinement off.
        ({"weight": weight, "run": {"refine_quadrature": False}}, "refine_quadrature"),
    ):
        doc = {"domain": {"kind": "disc"}, "point": {"z0": 0.0}, **extra}
        code = main(["verify", _write(tmp_path, doc)])
        assert code == 2
        assert key in _one_scenario_error(capsys)


def test_verify_too_coarse_resolution(tmp_path, capsys):
    # 64 angles cannot integrate a basis of order 32: a configuration error.
    doc = json.loads(Path(_fast_disc(tmp_path, tmp_path / "out")).read_text())
    doc["run"].update(basis_schedule=[8, 16, 32], angular_cells=64)
    code = main(["verify", _write(tmp_path, doc)])
    assert code == 2
    err = capsys.readouterr().err
    assert "too coarse" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "run",
    [{"boundary_nodes": 4}, {"basis_schedule": [8, 16, 32], "angular_cells": 64}],
    ids=["four_boundary_nodes", "coarse_angles"],
)
@pytest.mark.parametrize("command", ["verify", "kernel-eval"])
def test_too_coarse_resolution_rejected_by_every_command(tmp_path, capsys, command, run):
    # kernel-eval makes the resolution test of verify: exit 2 and one line,
    # not a traceback from the boundary rule or a CSV from a too coarse rule.
    doc = json.loads(Path(_fast_disc(tmp_path, tmp_path / "out")).read_text())
    doc["run"].update(run)
    args = [command, _write(tmp_path, doc)] + (["--curve", "radial"] if command == "kernel-eval" else [])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration rejected: ") and "too coarse" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _one_scenario_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "run",
    [{"patch_levels": -3}, {"radial_cells": 48.7}, {"basis_schedule": [8, 4]}],
    ids=["negative_patch_levels", "fractional_radial_cells", "decreasing_schedule"],
)
def test_verify_rejects_bad_resolution(tmp_path, capsys, run):
    doc = json.loads(Path(_fast_disc(tmp_path, tmp_path / "out")).read_text())
    doc["run"].update(run)
    assert main(["verify", _write(tmp_path, doc)]) == 2
    assert f"'run.{next(iter(run))}'" in _one_scenario_error(capsys)


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("verify", "tol_eq", "1e-4"),
        ("verify", "tol_eq", [1e-4]),
        ("verify", "output_dir", 5),
        ("verify", "u", {"coeffs": [[1, "a", 0]]}),
        ("kernel-eval", "curve_samples", "x"),
        ("kernel-eval", "angular_cells", 0),
    ],
    ids=["string_tol_eq", "list_tol_eq", "numeric_output_dir", "string_coefficient", "string_curve_samples",
         "zero_angular_cells"],
)
def test_untyped_scenario_values_rejected(tmp_path, capsys, command, key, value):
    doc = json.loads(Path(_fast_disc(tmp_path, tmp_path / "out")).read_text())
    doc["weight" if key == "u" else "run"][key] = value
    args = [command, _write(tmp_path, doc)] + (["--curve", "radial"] if command == "kernel-eval" else [])
    assert main(args) == 2
    _one_scenario_error(capsys)


def test_run_section_must_be_an_object(tmp_path, capsys):
    doc = json.loads(Path(_fast_disc(tmp_path, tmp_path / "out")).read_text())
    doc["run"] = 64
    assert main(["verify", _write(tmp_path, doc)]) == 2
    _one_scenario_error(capsys)


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
        for name in names:
            # Every report carries measured quadrature estimates.
            header, values = (cwd / name / "report.csv").read_text().strip().splitlines()
            row = dict(zip(header.split(","), values.split(",")))
            md = dict(line.strip("|").replace(" ", "").split("|")
                      for line in (cwd / name / "report.md").read_text().splitlines() if line.startswith("| "))
            for cells in (row, md):
                assert all(math.isfinite(float(cells[col])) for col in ("K_quad", "B_quad"))
    assert reports["1"] == reports["2"]


def test_runtime_path_imports_no_scipy(tmp_path):
    script = (
        "import sys\n"
        "import kernelgauge\n"
        "from kernelgauge import cli\n"
        "assert cli.main(['verify', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "assert kernelgauge.CProfile.poly(2.0).h(0.5) > 0.0\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", script, str(SCENARIOS / "disc_baseline.json"), str(tmp_path / "out")],
                   cwd=tmp_path, env=env, check=True, capture_output=True, timeout=600)
    assert (tmp_path / "out" / "report.csv").exists()


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


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0


def _small_annulus_strict(out_dir):
    """scenarios/annulus_strict.json on a coarser grid."""
    doc = json.loads((SCENARIOS / "annulus_strict.json").read_text())
    doc["run"] = {"basis_schedule": [8, 16], "boundary_nodes": 160, "radial_cells": 80, "angular_cells": 80,
                  "patch_levels": 12, "output_dir": str(out_dir)}
    return doc


SHARED_SWEEPS = {"alpha_u": "-0.4:0.5:2", "delta": "-0.5:0.5:2", "p0": "1:1.5:2", "aG": "0:0.5:2"}


def test_sweep_points_equal_independent_verify_reports(tmp_path, monkeypatch):
    # Sweep points share one Green function and its rules; every report
    # equals, bit for bit, the report of a verify that builds its own.
    import kernelgauge.cli as cli

    doc = _small_annulus_strict(tmp_path / "out")
    path = _write(tmp_path, doc)
    real = cli.verify
    shared = {}

    def recording(config, res, tol_eq):
        report = real(config, res, tol_eq)
        key = (config.psi.p0, config.phi.a_g, config.phi.u.alpha_log, config.c)
        shared.setdefault(key, []).append((config.green_rep, report))
        return report

    monkeypatch.setattr(cli, "verify", recording)
    for param, spec in SHARED_SWEEPS.items():
        lo, hi, n = spec.split(":")
        independent = {}
        for value in np.linspace(float(lo), float(hi), int(n)):
            varied = cli._apply_param(doc, param, float(value))
            config = cli.build_config(varied)
            key = (config.psi.p0, config.phi.a_g, config.phi.u.alpha_log, config.c)
            independent[key] = real(config, cli.build_resolution(varied, config.domain), cli._tol_eq(varied))
        shared.clear()
        main(["sweep", path, "--param", param, f"--range={spec}"])
        assert sorted(shared, key=repr) == sorted(independent, key=repr)
        greens = {id(green) for points in shared.values() for green, _ in points}
        assert len(greens) == 1
        for key, points in shared.items():
            assert [report for _, report in points] == [independent[key]]


def test_sweep_rules_built_once_per_command_and_released(tmp_path, monkeypatch):
    # Each command builds its own rules (admissibility, 1x, 2x) once, and
    # none of them outlives it.
    import weakref

    import kernelgauge.potential as potential

    real = potential.area_quadrature
    built = []

    def tracked(*args, **kwargs):
        rule = real(*args, **kwargs)
        built.append(weakref.ref(rule))
        return rule

    monkeypatch.setattr(potential, "area_quadrature", tracked)
    path = _write(tmp_path, _small_annulus_strict(tmp_path / "out"))
    for _ in range(2):
        built.clear()
        main(["sweep", path, "--param", "alpha_u", "--range=-0.4:0.5:3"])
        assert len(built) == 3
        assert all(ref() is None for ref in built)


def test_higher_order_verify_builds_each_rule_once(tmp_path, monkeypatch):
    # The order-zero reduction reads the rules of the k = 1 configuration.
    import kernelgauge.potential as potential

    builds = []
    for name in ("area_quadrature", "boundary_quadrature"):
        real = getattr(potential, name)
        monkeypatch.setattr(potential, name, lambda *a, real=real, name=name, **kw: builds.append((name, a, kw))
                            or real(*a, **kw))
    doc = _k1_disc(tmp_path / "o6")
    doc["run"].update(boundary_nodes=160)
    assert main(["verify", _write(tmp_path, doc)]) == 0
    names = [name for name, _, _ in builds]
    assert names.count("area_quadrature") == 3 and names.count("boundary_quadrature") == 3
    assert len({repr(b) for b in builds}) == len(builds)
