import dataclasses
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from reluflow import cli, experiments
from reluflow.cli import main
from reluflow.errors import ConfigError, DivergenceError
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
        "experiment = reanchor   # trailing comments are fine\n"
        "m = 1\n"
        "eta = 2.0\n"
        "anchors = 0,100,200\n",
    )
    cfg = parse_config_file(p)
    assert cfg.experiment == "reanchor"
    assert cfg.m == 1
    assert cfg.eta == 2.0
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
        # An empty output_dir would write into the working directory.
        ("experiment = flow\nm = 1\noutput_dir =\n", "run.cfg:3: 'output_dir' needs a value"),
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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_shipped_configs_parse():
    """The benchmark's grid runs every shipped config; one it refuses would
    fail every run after it there, so tier-1 parses them all."""
    paths = sorted(CONFIGS.glob("*.cfg"))
    assert len(paths) == 24
    for path in paths:
        assert parse_config_file(path).experiment in EXPERIMENTS, path.name


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_seed_out_and_paper_scale_are_legal_everywhere(name):
    # --seed, --out and --paper-scale apply to every config of a run.
    needs = {"m": 1, "init_scale": "small"}
    keys = {k: needs[k] for k in EXPERIMENTS[name].required}
    assert set(keys) <= EXPERIMENTS[name].reads
    RunConfig(experiment=name, seed=3, output_dir="o", paper_scale=True, **keys)


def test_lemma_verify_refuses_one_dimension():
    # Two unit vectors in R^1 are parallel or antiparallel, so the run would
    # redraw its degenerate pair forever.
    with pytest.raises(ConfigError, match="d must be >= 2"):
        RunConfig(experiment="lemma-verify", d=1)
    RunConfig(experiment="lemma-verify", d=2)
    # A network has no teacher angle to degenerate: one input is a legal width.
    RunConfig(experiment="deep-general", init_scale="small", d=1)


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


@pytest.mark.parametrize(
    "experiment,keys",
    [("flow", {"t_end": 3.0}), ("gd", {"n": 200, "steps": 400})],
    ids=["flow", "gd"],
)
def test_band_checks_follow_one_rule(tmp_path, experiment, keys):
    # At seed 0 the magnitude leaves the recipe's [r, R], so the angle band,
    # whose rates assume it, is only advisory; at seed 1 it stays inside.
    # Every margin is slack - worst excursion, re-read from the artifacts:
    # 1e-6 on the flow, 2 % of the band's range on descent.
    for seed, angle in ((0, "angle_envelope_advisory"), (1, "angle_envelope")):
        out = tmp_path / str(seed)
        res = run_experiment(RunConfig(experiment=experiment, m=0, d=5, init_scale="small",
                                       seed=seed, output_dir=str(out), **keys))
        checks = {c["name"]: c for c in res.report["checks"]}
        names = ["magnitude_bracket_advisory", "magnitude_envelope", angle]
        assert list(checks) == names + ["eta_regime"] * (experiment == "gd")
        assert (checks["magnitude_bracket_advisory"]["margin"] < 0) == (seed == 0)
        rows = [[float(x) for x in line.split(",")]
                for line in (out / "trajectory.csv").read_text().splitlines()[1:]]
        bands = [line.split(",") for line in (out / "bounds.csv").read_text().splitlines()[1:]]
        for name, col in (("magnitude_envelope", 1), (angle, 2)):
            kind = name.split("_")[0]
            band = [(float(lo), float(up)) for _, k, lo, up in bands if k == kind]
            assert len(band) == len(rows)
            worst = max(max(lo - row[col], row[col] - up) for row, (lo, up) in zip(rows, band))
            slack = 1e-6 if experiment == "flow" else 0.02 * (
                max(up for _, up in band) - min(lo for lo, _ in band))
            assert checks[name]["margin"] == slack - worst
            enforced = not name.endswith("_advisory")
            assert checks[name]["pass"] == (not enforced or worst <= slack)


def test_reanchor_writes_per_anchor_bounds(tmp_path):
    cfg = RunConfig(experiment="reanchor", m=1, d=8, n=400, eta=1e-4,
                    steps=400, seed=1, output_dir=str(tmp_path))
    res = run_experiment(dataclasses.replace(cfg, anchors=(0, 100, 200)))
    names = set(res.files)
    for a in (0, 100, 200):
        assert f"bounds_anchor_{a}.csv" in names
    tighten = [c for c in res.report["checks"] if c["name"] == "anchors_tighten"]
    assert len(tighten) == 1
    # A second run into the same directory lists only what it wrote, not the
    # first run's anchors still on disk.
    again = run_experiment(dataclasses.replace(cfg, anchors=(0, 50)))
    assert again.files == ("bounds_anchor_0.csv", "bounds_anchor_50.csv", "plot.gp",
                           "report.json", "trajectory.csv")
    assert (tmp_path / "bounds_anchor_200.csv").exists()


@pytest.mark.parametrize("label,v0,tnorm", [("small", 2.0, 1.0), ("large", 0.4, 1.0)])
def test_degenerate_bracket_recipe_widens_with_an_advisory(label, v0, tnorm):
    # A small start above the target norm, or a large one below half of it,
    # gives r >= R; the bracket widens around both norms and says so.
    r, R, checks = experiments._rr_recipe(label, v0, tnorm)
    (raw_r, raw_R) = (v0, tnorm) if label == "small" else (tnorm / 2.0, v0)
    assert checks == [{"name": "rR_recipe_degenerate_advisory", "pass": True,
                       "margin": raw_r - raw_R}]
    assert (r, R) == (0.5 * min(v0, tnorm), 1.001 * max(v0, tnorm))
    assert r < min(v0, tnorm) and max(v0, tnorm) < R


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
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "experiment = gd\nm = 1\ninit_scale = small\neta = 0.5\nsteps = 200\n",
        "experiment = deep-general\ninit_scale = large\neta = 5.0\nsteps = 50\n",
        # A DomainError raised inside the run (the step size is past the
        # band's threshold) is a failed run, not a bad config.
        "experiment = stopping-time\neta = 1.0\n",
        # So is one so small that 1 - rate*eta rounds to 1: no T is certified.
        "experiment = stopping-time\neta = 1e-300\n",
        # Float faults no routine types: an overflow in a band's closed form
        # and a division by zero in the convergence horizon.
        "experiment = flow\nm = 3\nd = 5\ntarget_scale = 1e200\n",
        "experiment = flow\nm = 3\nd = 5\ninit_scale = 1e-300\n",
    ],
    ids=["gd-divergence", "deep-general-blowup", "stopping-time-eta-past-threshold",
         "stopping-time-eta-below-resolution",
         "flow-overflow", "flow-zero-division"],
)
def test_cli_numerical_failure_exits_three(tmp_path, capsys, text):
    p = write_cfg(tmp_path, text)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,needle",
    [
        ("experiment = flow\nm = 1\nt_end = inf\n", "must be finite"),
        ("experiment = figure-angle\nm = 0\ninit_scale = small\neta = nan\nsteps = 20\n",
         "must be finite"),
        ("experiment = flow\nm = 1\nd = 0\n", "d must be >= 1"),
        ("experiment = figure-angle\nm = 0\ninit_scale = -1\n", "init_scale must be positive"),
        ("experiment = lemma-verify\nn = 1\n", "n must be >= 2"),
        ("experiment = gd\nm = 1\nsteps = -5\n", "steps must be >= 1"),
        # At T = 0 every band equals the start: the checks would test nothing.
        ("experiment = gd\nm = 0\nsteps = 0\n", "steps must be >= 1"),
        ("experiment = reanchor\nm = 1\nanchors = 0,-10\n", "anchors must be non-negative"),
        ("experiment = flow\nm = 1\ndt = 0\n", "dt must be positive"),
        ("experiment = stopping-time\neps = -0.1\n", "eps must be positive"),
        # pi - eps <= 0: the final angle would beat the target vacuously.
        ("experiment = stopping-time\neps = 3.5\n", "eps must be < pi"),
        # pi - eps == pi: no final angle can beat the target.
        ("experiment = stopping-time\nm = 1\neta = 1e-3\neps = 1e-300\n",
         "eps must exceed pi's resolution, got 1e-300"),
        ("experiment = flow\nm = 1\nseed = -1\n", "seed must be >= 0"),
        ("experiment = reanchor\nm = 1\nanchors = 0,100,100\n", "anchors must be distinct"),
        ("experiment = lemma-verify\nm = 7\nanchors = 5\ndt = 0.5\n",
         "'lemma-verify' does not read keys: ['m', 'dt', 'anchors']"),
        ("experiment = flow\nm = 1\nsteps = 100\n", "'flow' does not read keys: ['steps']"),
        ("experiment = flow\nm = 1\nt_end = 0.0001\ndt = 0.001\n", "dt must be <= t_end"),
        # dt above the t_end the run resolves when the config sets none
        ("experiment = flow\nm = 0\nd = 5\ndt = 100\n", "dt must be <= t_end"),
        # A stiff deep start picks dt near 1e-10: 7.5e9 RK4 steps to t_end.
        ("experiment = flow\nm = 5\n", "set a shorter t_end"),
        # In R^1 the start is parallel or antiparallel to the teacher.
        ("experiment = flow\nm = 1\nd = 1\n", "d must be >= 2"),
        ("experiment = stopping-time\nd = 1\n", "d must be >= 2"),
        # eta = 1e-9 certifies 567,717,453 population steps: hours of descent.
        ("experiment = stopping-time\neta = 1e-9\n", "T = 567717453 population steps"),
    ],
    ids=["flow-t_end-inf", "figure-angle-eta-nan", "flow-d-zero", "figure-angle-init_scale-negative",
         "lemma-verify-n-one", "gd-steps-negative", "gd-steps-zero", "reanchor-anchor-negative",
         "flow-dt-zero",
         "stopping-time-eps-negative", "stopping-time-eps-past-pi",
         "stopping-time-eps-below-pi-resolution", "flow-seed-negative", "reanchor-anchor-repeated",
         "lemma-verify-unread-keys", "flow-unread-key", "flow-dt-above-t_end",
         "flow-dt-above-resolved-t_end", "flow-step-cap", "flow-d-one", "stopping-time-d-one",
         "stopping-time-step-cap"],
)
def test_cli_non_finite_value_exits_two(tmp_path, capsys, text, needle):
    # Out-of-range values are config errors too: they are refused before the
    # run starts, not left to fail inside it.
    p = write_cfg(tmp_path, text)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert needle in capsys.readouterr().err


def test_eps_must_resolve_against_pi():
    with pytest.raises(ConfigError, match="eps must exceed pi's resolution"):
        RunConfig(experiment="stopping-time", eps=1e-300)
    assert RunConfig(experiment="stopping-time", eps=1e-14).eps == 1e-14


def test_run_config_built_in_code_keeps_the_file_rules(tmp_path, monkeypatch):
    # An empty output_dir would be the working directory, and a fractional
    # depth would run int(m) under a directory named for m.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="output_dir needs a value"):
        RunConfig(experiment="flow", m=0, d=5, t_end=0.5, output_dir="")
    for key in ("m", "d", "n", "steps", "seed"):
        for bad in (2.5, True):
            with pytest.raises(ConfigError, match=f"{key} must be an integer"):
                RunConfig(**{"experiment": "gd", "m": 1, key: bad})
    assert list(tmp_path.iterdir()) == []


def test_cli_negative_seed_flag_exits_two(tmp_path, capsys):
    p = write_cfg(tmp_path, "experiment = flow\nm = 0\nd = 5\nt_end = 1.0\n")
    assert main(["run", "--config", str(p), "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_cli_empty_out_flag_exits_two_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # Path('') is the working directory; the flag is refused as the empty
    # output_dir key is.
    p = write_cfg(tmp_path, "experiment = flow\nm = 0\nd = 5\nt_end = 1.0\n")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["run", "--config", str(p), "--out", ""]) == 2
    assert "--out" in capsys.readouterr().err
    assert list(cwd.iterdir()) == []


def test_cli_run_and_seed_override(tmp_path, capsys):
    p = write_cfg(tmp_path, "experiment = flow\nm = 0\nd = 5\nt_end = 1.0\n")
    code = main(["run", "--config", str(p), "--seed", "4", "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] flow seed=4" in out
    assert (tmp_path / "o" / "report.json").exists()


def test_cli_verify_exit_codes(tmp_path, capsys):
    p = write_cfg(tmp_path, "experiment = lemma-verify\nn = 200000\nseed = 1\n")
    ok = main(["run", "--config", str(p), "--out", str(tmp_path / "a")])
    assert ok == 0
    bad = main(["run", "--config", str(p), "--seed", "0", "--out", str(tmp_path / "b")])
    assert bad == 1
    assert "failed:" in capsys.readouterr().out


def test_cli_reanchor_anchor_override(tmp_path, capsys):
    p = write_cfg(
        tmp_path,
        "experiment = reanchor\nm = 1\nd = 8\nn = 400\neta = 1e-4\nsteps = 400\nseed = 1\n"
        "anchors = 0,50,150\n",
    )
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "r")])
    capsys.readouterr()
    assert code in (0, 1)  # band membership is seed-dependent; artifacts are not
    assert (tmp_path / "r" / "bounds_anchor_150.csv").exists()


def _artifacts(base):
    out = {}
    for path in sorted(base.rglob("*")):
        if path.suffix == ".csv":
            out[str(path.relative_to(base))] = path.read_bytes()
        elif path.name == "report.json":
            out[str(path.relative_to(base))] = json.loads(path.read_text())["checks"]
    return out


def test_cli_config_error_inside_a_runner_exits_two(tmp_path, capsys):
    # figure-magnitude refuses m = 2 inside its run, after the run before it
    # has written its artifacts and printed its line.
    paths = [
        write_cfg(tmp_path, "experiment = flow\nm = 0\nd = 5\nt_end = 1.0\n", "flow.cfg"),
        write_cfg(tmp_path, "experiment = figure-magnitude\nm = 2\ninit_scale = small\n",
                  "bad.cfg"),
    ]
    argv = ["run"] + [a for p in paths for a in ("--config", str(p))]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "m <= 1 only" in captured.err
    assert captured.out == f"[PASS] flow seed=0 (3/3 checks) -> {tmp_path / 'o' / 'flow'}\n"
    assert (tmp_path / "o" / "flow" / "report.json").exists()


def test_cli_a_plan_that_overflows_leaves_the_runs_before_it(tmp_path, capsys):
    # Planning the gd config overflows in NeuronConfig's norm**m at m = 400;
    # the flow run before it still runs and prints, and the gd run raises
    # the same OverflowError at its turn.
    g = write_cfg(tmp_path, "experiment = gd\nm = 400\neta = 1e-6\nsteps = 5\n", "g.cfg")
    out = tmp_path / "o"
    argv = ["run", "--config", str(CONFIGS / "flow-m2.cfg"), "--config", str(g)]
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "OverflowError" in captured.err
    assert captured.out == f"[PASS] flow seed=0 (3/3 checks) -> {out / 'flow-m2'}\n"
    assert (out / "flow-m2" / "report.json").exists()


def test_cli_a_batch_that_raises_leaves_the_runs_before_it(tmp_path, capsys, monkeypatch):
    # The gd config's data draw does not fit in memory (simulated here, so
    # nothing is allocated): the prefill's batch raises and stores nothing,
    # the flow run before it still runs and prints, and the gd run descends
    # alone at its turn and fails there.
    lone = []

    def out_of_memory(*args):
        lone.append(args)
        raise MemoryError("cannot allocate the data draw")

    monkeypatch.setattr(experiments, "run_gd_batch", out_of_memory)
    monkeypatch.setattr(experiments, "run_gd", out_of_memory)
    g = write_cfg(tmp_path, "experiment = gd\nm = 0\nsteps = 5\n", "g.cfg")
    out = tmp_path / "o"
    argv = ["run", "--config", str(CONFIGS / "flow-m2.cfg"), "--config", str(g)]
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "MemoryError" in captured.err
    assert captured.out == f"[PASS] flow seed=0 (3/3 checks) -> {out / 'flow-m2'}\n"
    assert (out / "flow-m2" / "report.json").exists()
    assert len(lone) == 2  # the batch, then the gd run's own descent


def test_cli_out_of_memory_exits_three(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("cannot allocate the trajectory")

    monkeypatch.setattr(experiments, "integrate_polar", out_of_memory)
    p = write_cfg(tmp_path, "experiment = flow\nm = 1\nd = 5\nt_end = 1.0\n")
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert "error: MemoryError: cannot allocate" in capsys.readouterr().err


@pytest.mark.parametrize("name,checks,files", [
    ("error-scaling", ["halving_ratio_eta_0.01", "halving_ratio_eta_0.005",
                       "halving_ratio_eta_0.0025", "log_log_slope"], ["errors.csv"]),
    ("stopping-time", ["magnitude_bracket_advisory", "angle_beats_target"],
     ["bounds.csv", "plot.gp", "trajectory.csv"]),
], ids=["error-scaling", "stopping-time"])
def test_cli_runs_a_shipped_config_end_to_end(tmp_path, capsys, name, checks, files):
    out = tmp_path / name
    assert main(["run", "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(out)]) == 0
    n = len(checks)
    assert capsys.readouterr().out == f"[PASS] {name} seed=0 ({n}/{n} checks) -> {out}\n"
    report = json.loads((out / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == checks
    assert sorted(p.name for p in out.iterdir()) == sorted(files + ["report.json"])


def test_cli_paper_scale_run_writes_its_default_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    p = write_cfg(tmp_path, "experiment = flow\nm = 0\nt_end = 0.5\n")
    assert main(["run", "--config", str(p), "--paper-scale"]) == 0
    run = Path("runs") / "flow-m0-t_end0.5-paper-seed0"
    assert capsys.readouterr().out == f"[PASS] flow seed=0 (3/3 checks) -> {run}\n"
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [run.name]
    assert sorted(p.name for p in run.iterdir()) == ["bounds.csv", "plot.gp", "report.json",
                                                     "trajectory.csv"]


def test_cli_refuses_two_runs_into_one_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # default directories land under tmp_path/runs
    flow = "experiment = flow\nm = 0\nd = 5\nt_end = 1.0\n"
    same = write_cfg(tmp_path, flow, "f.cfg")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    twins = [write_cfg(tmp_path / side, flow, "x.cfg") for side in ("a", "b")]
    keyed = [write_cfg(tmp_path, flow + f"output_dir = {tmp_path / 'k'}\nseed = {k}\n",
                       f"k{k}.cfg") for k in (1, 2)]
    for paths, out in (([same, same], ["--out", str(tmp_path / "o")]),
                       (twins, ["--out", str(tmp_path / "o")]),
                       (keyed, []),
                       (twins, [])):  # identical configs, one default directory
        argv = ["run"] + [a for p in paths for a in ("--config", str(p))]
        assert main(argv + out) == 2
        err = capsys.readouterr().err
        assert f"{paths[0]} and {paths[1]} both write to" in err
    assert not any((tmp_path / name).exists() for name in ("o", "k", "runs"))
    # Configs that differ in any key get default directories of their own.
    other = write_cfg(tmp_path, flow.replace("d = 5", "d = 6"), "f6.cfg")
    assert main(["run", "--config", str(same), "--config", str(other)]) == 0
    dirs = sorted(p.name for p in (tmp_path / "runs").iterdir())
    assert dirs == ["flow-m0-d5-t_end1.0-seed0", "flow-m0-d6-t_end1.0-seed0"]
    assert all((tmp_path / "runs" / name / "report.json").exists() for name in dirs)


def test_cli_unwritable_output_is_a_usage_error(tmp_path, capsys):
    p = write_cfg(tmp_path, "experiment = flow\nm = 0\nd = 5\nt_end = 1.0\n")
    (tmp_path / "file").write_text("")
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "file" / "x")]) == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------
# one descent per distinct input within an invocation

_SMALL_DESCENT = "m = 1\nd = 5\nn = 300\nsteps = 400\n"


def _count_descents(monkeypatch) -> list:
    """Counts every descent computed: each lone run_gd call, and each
    problem handed to the batched march a serial invocation starts with."""
    calls = []
    real, real_batch = experiments.run_gd, experiments.run_gd_batch

    def counted(config, init, dc):
        calls.append(dc)
        return real(config, init, dc)

    def counted_batch(problems):
        calls.extend(dc for _, _, dc in problems)
        return real_batch(problems)

    monkeypatch.setattr(experiments, "run_gd", counted)
    monkeypatch.setattr(experiments, "run_gd_batch", counted_batch)
    return calls


def test_cli_twin_runs_share_one_descent_bit_for_bit(tmp_path, capsys, monkeypatch):
    """figure-angle, figure-magnitude and gd at the same m and seed descend
    from the same inputs: one invocation runs that descent once, and every
    run's artifacts are those of the config run alone."""
    paths = [
        write_cfg(tmp_path, "experiment = figure-angle\ninit_scale = small\n" + _SMALL_DESCENT,
                  "angle.cfg"),
        write_cfg(tmp_path, "experiment = figure-magnitude\ninit_scale = small\n"
                  + _SMALL_DESCENT, "magnitude.cfg"),
        write_cfg(tmp_path, "experiment = gd\n" + _SMALL_DESCENT, "gd.cfg"),
    ]
    calls = _count_descents(monkeypatch)
    argv = ["run"] + [a for p in paths for a in ("--config", str(p))]
    main(argv + ["--out", str(tmp_path / "together")])
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == 1
    runs = [line for line in lines if line.startswith("[")]
    assert [line.endswith("(descent shared)") for line in runs] == [False, True, True]

    for p in paths:
        main(["run", "--config", str(p), "--out", str(tmp_path / "alone" / p.stem)])
        assert "(descent shared)" not in capsys.readouterr().out
    assert len(calls) == 4
    assert _artifacts(tmp_path / "together") == _artifacts(tmp_path / "alone")


@pytest.mark.parametrize("change", ["seed = 1", "eta = 4e-6", "steps = 300", "n = 200",
                                    "d = 4", "init_scale = middle", "target_scale = 2.0"],
                         ids=lambda change: change.split(" = ")[0])
def test_cli_runs_again_when_any_descent_input_differs(tmp_path, capsys, monkeypatch, change):
    key = change.split(" = ")[0]
    base = {"m": "1", "d": "5", "n": "300", "steps": "400", "init_scale": "small"}
    other = {**base, key: change.split(" = ")[1]}
    paths = [
        write_cfg(tmp_path, "experiment = figure-angle\n"
                  + "".join(f"{k} = {v}\n" for k, v in cfg.items()), f"{name}.cfg")
        for name, cfg in (("base", base), ("other", other))
    ]
    calls = _count_descents(monkeypatch)
    argv = ["run"] + [a for p in paths for a in ("--config", str(p))]
    main(argv + ["--out", str(tmp_path / "o")])
    assert "(descent shared)" not in capsys.readouterr().out
    assert len(calls) == 2


def test_a_descent_that_raises_is_not_stored(monkeypatch):
    config, init, _, _ = experiments._draw_problem(
        RunConfig(experiment="gd", m=1, d=5), 1, 0.5, "small")
    dc = experiments.DescentConfig(eta=8e-6, steps=10, mode="empirical", n_samples=50)
    real, attempts = experiments.run_gd, []

    def fails_once(*args):
        attempts.append(args)
        if len(attempts) == 1:
            raise DivergenceError("first attempt")
        return real(*args)

    monkeypatch.setattr(experiments, "run_gd", fails_once)
    memo = experiments.DescentMemo()
    with pytest.raises(DivergenceError):
        memo.run(config, init, dc)
    traj = memo.run(config, init, dc)
    assert memo.run(config, init, dc) is traj
    assert (len(attempts), memo.reused) == (2, 1)


def _small_descent(seed=0, eta=8e-6, steps=40):
    config, init, _, _ = experiments._draw_problem(
        RunConfig(experiment="gd", m=1, d=5, seed=seed), 1, 0.5, "small")
    return config, init, experiments.DescentConfig(
        eta=eta, steps=steps, mode="empirical", n_samples=80, seed=seed, record_every=3)


def test_memo_serves_one_trajectory_without_weight_states():
    """Every reader, the first included, gets the same stored object, which
    keeps times, states and losses bit for bit and drops the weight states
    no runner reads."""
    problem = _small_descent()
    want = experiments.run_gd(*problem)
    for fill in (False, True):
        memo = experiments.DescentMemo()
        if fill:
            memo.prefill([problem])
        first = memo.run(*problem)
        assert first.weight_states is None and memo.reused == 0
        assert memo.run(*problem) is first and memo.reused == 1
        assert np.array_equal(first.times, want.times)
        assert np.array_equal(first.losses, want.losses)
        assert first.states == want.states


def test_prefill_runs_distinct_descents_once_and_stores_no_failure(monkeypatch):
    good, other = _small_descent(seed=0), _small_descent(seed=1)
    bad = _small_descent(seed=2, eta=5e3)  # diverges inside the batch
    calls = _count_descents(monkeypatch)
    memo = experiments.DescentMemo()
    memo.prefill([good, bad, good, other])
    assert len(calls) == 3  # one batch of three distinct descents
    memo.prefill([good, other])  # stored already: nothing runs
    assert len(calls) == 3
    for problem in (good, other):
        memo.run(*problem)
    assert len(calls) == 3 and memo.reused == 0
    with pytest.raises(DivergenceError):
        memo.run(*bad)  # not stored: the lone run repeats it and raises
    assert len(calls) == 4


def test_planning_stops_at_the_first_config_whose_plan_raises():
    base = {"experiment": "figure-angle", "m": 1, "d": 5, "n": 300, "steps": 40,
            "init_scale": "small"}
    cfgs = [RunConfig(**base), RunConfig(**{**base, "experiment": "flow", "t_end": 1.0,
                                           "n": None, "steps": None}),
            RunConfig(**{**base, "experiment": "figure-magnitude", "m": 2}),
            RunConfig(**{**base, "seed": 1})]
    planned = experiments.plan_descents(cfgs)
    assert [dc.seed for _, _, dc in planned] == [0]
    assert len(experiments.plan_descents(cfgs[:2] + cfgs[3:])) == 2


def test_plans_state_the_descents_the_runners_run(tmp_path, monkeypatch):
    """Over the shipped configs the plans give exactly the run_gd inputs of
    the runs themselves, config by config, at the configs' seeds."""
    runner_keys = []

    def plan_only(config, init, dc):
        runner_keys.append(experiments._descent_key(config, init, dc))
        raise _Planned

    cfgs = [parse_config_file(p) for p in sorted(CONFIGS.glob("*.cfg"))]
    cfgs = [c for c in cfgs if EXPERIMENTS[c.experiment].descent is not None]
    planned = [experiments._descent_key(*p) for p in experiments.plan_descents(cfgs)]
    monkeypatch.setattr(experiments, "run_gd", plan_only)
    for cfg in cfgs:
        with pytest.raises(_Planned):
            run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / "o")))
    assert planned == runner_keys and len(planned) == 19


@pytest.mark.parametrize("jobs", ["0", "-3", "2"])
def test_cli_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    p = write_cfg(tmp_path, "experiment = flow\nm = 0\nd = 5\nt_end = 1.0\n")
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--config", str(p), "--jobs", jobs])
    assert exit_.value.code == 2
    assert "--jobs" in capsys.readouterr().err


class _Planned(Exception):
    """Raised in place of a descent: the test wants its inputs, not its run."""


@pytest.mark.parametrize("seed", [None, 3])
def test_shipped_grid_has_eleven_distinct_empirical_descents(tmp_path, monkeypatch, seed):
    """The shipped configs' 18 empirical descents have 11 distinct inputs, so
    a serial invocation over the grid runs 11 of them. Keys come from the
    runners' own calls, through the helper the memo keys on."""
    keys = []

    def plan_only(config, init, dc):
        keys.append(experiments._descent_key(config, init, dc))
        raise _Planned

    monkeypatch.setattr(experiments, "run_gd", plan_only)
    descending = 0
    for path in sorted(CONFIGS.glob("*.cfg")):
        cfg = parse_config_file(path)
        if cfg.experiment in ("flow", "lemma-verify", "error-scaling", "deep-general"):
            continue  # no descent here; lemma-verify and deep-general take seconds
        if seed is not None:
            cfg = dataclasses.replace(cfg, seed=seed)
        with pytest.raises(_Planned):
            run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / path.stem)))
        descending += 1
    empirical = [k for k in keys if k[0].mode == "empirical"]
    assert (descending, len(keys), len(empirical)) == (19, 19, 18)
    assert len(set(empirical)) == 11


def _documented_invocations(text: str) -> list[list[str]]:
    prefixes = ("reluflow ", "python3 -m reluflow.cli ")
    return [
        shlex.split(line.strip())[len(prefix.split()):]
        for line in text.splitlines()
        for prefix in prefixes
        if line.strip().startswith(prefix)
    ]


def test_documented_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for source, text in (("README.md", readme), ("reluflow.cli", cli.__doc__)):
        argvs = _documented_invocations(text)
        assert len(argvs) >= 3, source
        for argv in argvs:
            args = cli._parser().parse_args(argv)  # exits on an unknown command or flag
            assert args.command in ("run", "list-experiments"), (source, argv)
