"""The benchmark's traced run hooks into ltgsim by name; keep those names alive.

``perfbench/spans.py`` wraps functions it finds with ``getattr`` and reads
work counts off their results.  A rename in ``src/`` would only show when
the benchmark runs with ``--trace 1``; this test runs its tracer on three
small configs instead.
"""
import importlib.util
import json
import sys
from pathlib import Path

from ltgsim.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_count(tmp_path):
    spans = load_spans()
    configs = {
        "delta": {"command": "transition-delta", "rtn": {"gamma": 0.12}, "grid": {"points": 40}},
        "spectral": {
            "command": "transition-spectral",
            "rtn": {"gamma": 0.12},
            "grid": {"points": 40},
            "spectral": {"widths_nm": [15.0]},
        },
        "mc": {
            "command": "mc-moment",
            "rtn": {"gamma": 1.0},
            "grid": {"points": 40},
            "mc": {"order": 2, "n_real": 200, "antithetic": False},
        },
    }
    tracer = spans.Tracer()
    with tracer.installed(0):
        for name, mod, attr, _ in spans.TARGETS:
            target = sys.modules[f"ltgsim.{mod}"]
            for part in attr.split("."):
                target = getattr(target, part)
            assert hasattr(target, "__wrapped__"), f"{name} is not traced"
        for label, config in configs.items():
            path = tmp_path / f"{label}.json"
            path.write_text(json.dumps(config))
            assert main(["--config", str(path), "--out", str(tmp_path / label)]) == 0

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[0], []).append(span)
    # one phase field per kernel config: 54 independent blocks and their mirrors
    fields = by_name["slm.build_phase_field"]
    assert [field[5]["blocks"] for field in fields] == [108, 108]
    field_ids = [tracer.spans.index(field) for field in fields]
    assert [s[3] for s in by_name["rtn.sample_trajectory"]] == [field_ids[0]] * 54 + [field_ids[1]] * 54
    assert by_name["rtn.mc"][0][5]["samples"] == 200 * 40
    assert by_name["rtn.sample_batch"][0][5]["jump_cols"] >= 1
    metrics = tracer.pass_metrics(0, wall_s=1.0, output_bytes=0)
    assert metrics["slm.build_phase_field.blocks"] == 216
    assert metrics["rtn.sample_trajectory.calls"] == 108
    for name in ("joint_profile", "evaluate", "estimate_wp", "estimate_wcp_tilde", "curve_fit"):
        assert f"optics.{name}" in by_name, name
    assert metrics["optics.grid_points"] == 511 * 511 + 401 * 9  # F, then the averaged slice
