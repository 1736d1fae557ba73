import dataclasses
import json
import math

import numpy as np
import pytest

from reluflow.cli import main
from reluflow.errors import ConfigError
from reluflow.experiments import (
    EXPERIMENTS,
    RunConfig,
    _MLPPass,
    parse_config_file,
    run_experiment,
)


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ----------------------------------------------------------------
# config files

def test_parse_minimal_config(tmp_path):
    p = write_cfg(
        tmp_path,
        "# flow sanity run\n"
        "experiment = flow   # trailing comments are fine\n"
        "m = 1\n"
        "t_end = 2.0\n"
        "anchors = 0,100,200\n",
    )
    cfg = parse_config_file(p)
    assert cfg.experiment == "flow"
    assert cfg.m == 1
    assert cfg.t_end == 2.0
    assert cfg.anchors == (0, 100, 200)
    assert cfg.seed == 0


def test_parse_numeric_init_scale(tmp_path):
    cfg = parse_config_file(
        write_cfg(tmp_path, "experiment = figure-angle\nm = 0\ninit_scale = 0.31\n")
    )
    assert cfg.init_scale == pytest.approx(0.31)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("experiment = flow\nm = 1\nwidth = 3\n", "unknown key"),
        ("experiment = flow\nm = 1\nm = 2\n", "duplicate key"),
        ("experiment = flow\nm = one\n", "bad value"),
        ("m = 1\n", "missing required key"),
        ("experiment = flow\nm 1\n", "expected 'key = value'"),
        ("experiment = no-such-thing\nm = 0\n", "unknown experiment"),
        ("experiment = figure-angle\nm = 0\n", "needs keys"),
        ("experiment = flow\nm = 1\nanchors = 0,abc\n", "bad value"),
    ],
)
def test_parse_errors_carry_context(tmp_path, text, needle):
    p = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match=needle):
        parse_config_file(p)


def test_parse_errors_name_the_line(tmp_path):
    p = write_cfg(tmp_path, "experiment = flow\nm = 1\nbogus = 3\n")
    with pytest.raises(ConfigError, match=rf"{p.name}:3"):
        parse_config_file(p)


def test_registry_lists_every_kind():
    assert set(EXPERIMENTS) == {
        "flow",
        "gd",
        "figure-angle",
        "figure-magnitude",
        "reanchor",
        "lemma-verify",
        "error-scaling",
        "stopping-time",
        "deep-general",
    }


def test_deep_general_rejects_middle_scale(tmp_path):
    cfg = RunConfig(experiment="deep-general", init_scale="middle",
                    output_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="small or large"):
        run_experiment(cfg)


def _reference_forward_backward(weights, x, y):
    """The allocating pass the buffered _MLPPass replaced, kept as its oracle."""
    acts = [x]
    pres = []
    h = x
    for w in weights[:-1]:
        z = h @ w
        pres.append(z)
        h = np.maximum(z, 0.0)
        acts.append(h)
    out = (h @ weights[-1])[:, 0]
    n = x.shape[0]
    e = (out - y) / n
    grads = [None] * len(weights)
    grads[-1] = acts[-1].T @ e[:, None]
    g = e[:, None] @ weights[-1].T
    for i in range(len(weights) - 2, -1, -1):
        g = g * (pres[i] > 0.0)
        grads[i] = acts[i].T @ g
        if i:
            g = g @ weights[i].T
    loss = 0.5 * float(np.mean((out - y) ** 2))
    return loss, grads


def test_buffered_mlp_pass_is_bit_identical_to_allocating_pass():
    rng = np.random.default_rng(5)
    dims = [15, 30, 24, 30, 1]  # unequal widths exercise every buffer shape
    weights = [rng.normal(0.0, 0.4, (a, b)) for a, b in zip(dims, dims[1:])]
    ref = [w.copy() for w in weights]
    x = rng.standard_normal((300, dims[0]))
    y = rng.standard_normal(300)
    mlp = _MLPPass(weights, x, y)
    for _ in range(4):
        want_loss, want = _reference_forward_backward(ref, x, y)
        assert mlp.loss(weights) == want_loss
        grads = mlp.gradients(weights)
        for w, r, g, gr in zip(weights, ref, grads, want):
            assert g.shape == gr.shape and np.array_equal(g, gr)
            w -= 0.05 * g
            r -= 0.05 * gr


@pytest.mark.parametrize("scale", ["small", "large"])
def test_short_deep_general_run(tmp_path, scale):
    cfg = RunConfig(experiment="deep-general", init_scale=scale, steps=60,
                    output_dir=str(tmp_path))
    res = run_experiment(cfg)
    checks = {c["name"]: c["pass"] for c in res.report["checks"]}
    assert checks["loss_decreased"]
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 62
    if scale == "large":
        assert res.passed
    # At 60 steps the 1 % burn-in is a single step, shorter than the small
    # start's early dip in norm, so its monotonicity check is not asserted.


# ----------------------------------------------------------------
# artifacts

@pytest.fixture(scope="module")
def flow_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("flowrun")
    cfg = RunConfig(experiment="flow", m=0, d=6, t_end=3.0, dt=1e-3,
                    seed=2, output_dir=str(out))
    return cfg, run_experiment(cfg)


def test_flow_run_writes_the_artifact_set(flow_run):
    _, res = flow_run
    assert set(res.files) == {"trajectory.csv", "bounds.csv", "plot.gp", "report.json"}
    assert res.passed


def test_report_schema(flow_run):
    _, res = flow_run
    report = json.loads((res.output_dir / "report.json").read_text())
    assert set(report) == {"experiment", "seed", "checks", "runtime_seconds"}
    assert report["experiment"] == "flow"
    assert report["seed"] == 2
    assert report["runtime_seconds"] > 0
    for c in report["checks"]:
        assert set(c) == {"name", "pass", "margin"}


def test_trajectory_csv_roundtrips_at_full_precision(flow_run):
    _, res = flow_run
    lines = (res.output_dir / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "step_or_time,magnitude,angle,loss"
    assert len(lines) > 100
    prev_t = -1.0
    for row in lines[1:]:
        t, mag, ang, loss = map(float, row.split(","))
        assert t > prev_t
        prev_t = t
        assert mag > 0 and 0 < ang <= math.pi and loss >= 0
    # 17 significant digits survive a float round trip exactly
    val = lines[1].split(",")[1]
    assert f"{float(val):.17g}" == val


def test_bounds_csv_schema(flow_run):
    _, res = flow_run
    lines = (res.output_dir / "bounds.csv").read_text().splitlines()
    assert lines[0] == "step_or_time,kind,lower,upper"
    kinds = {row.split(",")[1] for row in lines[1:]}
    assert kinds == {"magnitude", "angle"}
    for row in lines[1:]:
        t, _, lo, up = row.split(",")
        assert float(lo) <= float(up)


def test_flow_run_on_stiff_deep_start_passes(tmp_path):
    # seed 3 draws a start whose field is stiff enough to make RK4 at the
    # old fixed dt = 1e-3 unstable; the default step now follows the start
    cfg = RunConfig(experiment="flow", m=2, seed=3, output_dir=str(tmp_path))
    assert run_experiment(cfg).passed


def test_rerun_is_byte_identical(flow_run, tmp_path):
    cfg, res = flow_run
    import dataclasses

    again = run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path)))
    for name in ("trajectory.csv", "bounds.csv"):
        assert (res.output_dir / name).read_bytes() == (tmp_path / name).read_bytes()


def test_reanchor_writes_per_anchor_bounds(tmp_path):
    cfg = RunConfig(experiment="reanchor", m=1, d=8, n=400, eta=1e-4,
                    steps=400, seed=1, output_dir=str(tmp_path))
    res = run_experiment(dataclasses.replace(cfg, anchors=(0, 100, 200)))
    names = set(res.files)
    for a in (0, 100, 200):
        assert f"bounds_anchor_{a}.csv" in names
    tighten = [c for c in res.report["checks"] if c["name"] == "anchors_tighten"]
    assert len(tighten) == 1


def test_reanchor_rejects_anchor_past_end(tmp_path):
    cfg = RunConfig(experiment="reanchor", m=1, d=8, n=400, eta=1e-4,
                    steps=400, seed=1, output_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        run_experiment(dataclasses.replace(cfg, anchors=(0, 100, 500)))


# ----------------------------------------------------------------
# command line

def test_cli_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_cli_config_error_exits_two(tmp_path, capsys):
    p = write_cfg(tmp_path, "experiment = flow\nm = 1\nbogus = 3\n")
    assert main(["run", "--config", str(p)]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "experiment = gd\nm = 1\ninit_scale = small\neta = 0.5\nsteps = 200\n",
        "experiment = deep-general\ninit_scale = large\neta = 5.0\nsteps = 50\n",
    ],
    ids=["gd-divergence", "deep-general-blowup"],
)
def test_cli_numerical_failure_exits_three(tmp_path, capsys, text):
    p = write_cfg(tmp_path, text)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "experiment = flow\nm = 1\nt_end = inf\n",
        "experiment = figure-angle\nm = 0\ninit_scale = small\neta = nan\nsteps = 20\n",
    ],
    ids=["flow-t_end-inf", "figure-angle-eta-nan"],
)
def test_cli_non_finite_value_exits_two(tmp_path, capsys, text):
    p = write_cfg(tmp_path, text)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_cli_run_and_seed_override(tmp_path, capsys):
    p = write_cfg(tmp_path, "experiment = flow\nm = 0\nd = 5\nt_end = 1.0\n")
    code = main(["run", "--config", str(p), "--seed", "4", "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] flow seed=4" in out
    assert (tmp_path / "o" / "report.json").exists()


def test_cli_verify_exit_codes(tmp_path, capsys):
    ok = main(["verify", "--n", "200000", "--out", str(tmp_path / "a")])
    assert ok == 0
    bad = main(["verify", "--n", "200000", "--seed", "0", "--out", str(tmp_path / "b")])
    assert bad == 1
    assert "failed:" in capsys.readouterr().out


def test_cli_reanchor_anchor_override(tmp_path, capsys):
    p = write_cfg(
        tmp_path,
        "experiment = reanchor\nm = 1\nd = 8\nn = 400\neta = 1e-4\nsteps = 400\nseed = 1\n",
    )
    code = main(
        ["reanchor", "--config", str(p), "--anchors", "0,50,150",
         "--out", str(tmp_path / "r")]
    )
    capsys.readouterr()
    assert code in (0, 1)  # band membership is seed-dependent; artifacts are not
    assert (tmp_path / "r" / "bounds_anchor_150.csv").exists()
