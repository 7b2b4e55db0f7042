import json
from fractions import Fraction

import pytest

from liftchroma import experiments
from liftchroma.base_graph import connected_components, make_complete_graph
from liftchroma.coloring import (
    _Budget,
    _dsatur_decide,
    _local_adjacency,
    count_strongly_equitable,
)
from liftchroma.errors import (
    BudgetExhaustedError,
    InvalidConfigError,
    UndefinedRatioError,
)
from liftchroma.experiments import (
    CSV_HEADER,
    CampaignConfig,
    joint_ratio_estimate,
    make_statistic,
    mc_expectation,
    run_campaign,
    sample_seed,
)
from liftchroma.lift import count_cycles, expand, sample_lift
from liftchroma.moments_exact import brute_force_moment


def test_statistic_parsing(k3):
    assert make_statistic("Z3", None)
    assert make_statistic("Y*Z4", 3)
    assert make_statistic("chi", None)
    lift = sample_lift(k3, 3, sample_seed(0, 0, 0))
    for name in ("Z2", "Z12", "Y*Z2", "Y*Z12"):  # the cycle lengths 2..MAX_CYCLE_LENGTH
        assert make_statistic(name, 3)(lift) >= 0
    with pytest.raises(InvalidConfigError):
        make_statistic("Q7", 3)
    with pytest.raises(InvalidConfigError):
        make_statistic("X", None)  # needs k


def test_mc_determinism(k3):
    a = mc_expectation(k3, 4, None, "Z3", samples=50, seed=5)
    b = mc_expectation(k3, 4, None, "Z3", samples=50, seed=5)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    c = mc_expectation(k3, 4, None, "Z3", samples=50, seed=6)
    assert (a.mean, a.stderr) != (c.mean, c.stderr)


def test_mc_converges_to_enumeration(k3):
    # E[Z_3] over (K_3, n=2) is exactly 1; the sample mean must land within 3 sigma
    rec = mc_expectation(k3, 2, None, "Z3", samples=20000, seed=11)
    assert abs(rec.mean - 1.0) <= 3 * rec.stderr
    assert rec.censored == 0


def test_joint_ratio_exact_equals_brute_force(k3):
    exact = joint_ratio_estimate(k3, 3, 3, 3)
    num = brute_force_moment(
        k3, 3, lambda l: Fraction(count_strongly_equitable(l, 3) * count_cycles(expand(l), 3))
    )
    den = brute_force_moment(k3, 3, lambda l: Fraction(count_strongly_equitable(l, 3)))
    assert exact == num / den == Fraction(3, 4)


def test_joint_ratio_undefined(k3):
    with pytest.raises(UndefinedRatioError):
        joint_ratio_estimate(k3, 2, 3, 3)  # 3 does not divide 2: Y is identically 0


def test_joint_ratio_sampled_runs(k4):
    value = joint_ratio_estimate(k4, 3, 3, 3, samples=200, seed=4)
    assert value > 0
    # bit-identical to summing the Y and Y*Z3 statistics lift by lift
    lifts = [sample_lift(k4, 3, sample_seed(4, 0, idx)) for idx in range(200)]
    num = sum(make_statistic("Y*Z3", 3)(lift) for lift in lifts)
    den = sum(make_statistic("Y", 3)(lift) for lift in lifts)
    assert value == float(num / den)


def test_campaign_requires_valid_config(tmp_path):
    config = CampaignConfig(
        graph="K4",
        n_values=[4],
        k=None,
        statistics=["nope"],
        samples=5,
        seed=1,
        output_prefix=str(tmp_path / "out"),
    )
    with pytest.raises(InvalidConfigError):
        run_campaign(config)
    config2 = CampaignConfig(
        graph="K4",
        n_values=[4],
        k=None,
        statistics=["Z3"],
        samples=0,
        seed=1,
        output_prefix=str(tmp_path / "out"),
    )
    with pytest.raises(InvalidConfigError):
        run_campaign(config2)


@pytest.mark.parametrize(
    "statistics,n_values",
    [
        (["Z0"], [4]),
        (["Z1"], [4]),
        (["Z13"], [4]),
        (["Y*Z1"], [4]),
        (["Z3"], [0]),
        (["Z3"], ["4"]),
    ],
    ids=["Z0", "Z1", "Z13", "Y*Z1", "n=0", "n='4'"],
)
def test_campaign_rejects_bad_cells_before_running(tmp_path, statistics, n_values):
    # cycle lengths outside 2..12 and fiber sizes that are not integers >= 1
    # would die mid-run
    config = CampaignConfig(
        graph="K4",
        n_values=n_values,
        k=3,
        statistics=statistics,
        samples=2,
        seed=1,
        output_prefix=str(tmp_path / "out"),
    )
    with pytest.raises(InvalidConfigError):
        config.validate_config()
    with pytest.raises(InvalidConfigError):
        run_campaign(config)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "statistic,k", [("Y", 0), ("X", -1), ("X", 0), ("Y*Z3", 2.5)], ids=["Y-0", "X-1", "X0", "YZ2.5"]
)
def test_campaign_rejects_bad_k_before_running(tmp_path, statistic, k):
    # each of these died mid-run (ZeroDivisionError, ValueError) or wrote a
    # mean of 0
    config = CampaignConfig(
        graph="K3",
        n_values=[3],
        k=k,
        statistics=[statistic],
        samples=2,
        seed=1,
        output_prefix=str(tmp_path / "out"),
    )
    with pytest.raises(InvalidConfigError):
        config.validate_config()
    with pytest.raises(InvalidConfigError):
        run_campaign(config)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "field,value",
    [
        ("samples", 2.5),
        ("samples", True),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", True),
        ("budget", "x"),
        ("budget", 0),
        ("budget", True),
        ("n_values", [True]),
        ("k", 2.5),
        ("k", True),
        ("statistics", []),
    ],
)
def test_campaign_rejects_badly_typed_fields_before_running(tmp_path, field, value):
    # each passed validation, then crashed mid-run (TypeError, ValueError),
    # was silently accepted, or wrote True or a header-only CSV
    fields = dict(
        graph="K3",
        n_values=[2],
        k=None,
        statistics=["Z3"],
        samples=2,
        seed=1,
        output_prefix=str(tmp_path / "out"),
    )
    config = CampaignConfig(**{**fields, field: value})
    with pytest.raises(InvalidConfigError):
        config.validate_config()
    with pytest.raises(InvalidConfigError):
        run_campaign(config)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("statistic", ["Y", "Y*Z3"])
def test_campaign_refuses_oversized_equitable_cells_before_running(
    tmp_path, monkeypatch, statistic
):
    # the n=3 cell ran, then the 48-vertex count died with TooLargeError
    # and no CSV or JSONL was written
    ran = []
    monkeypatch.setattr(experiments, "mc_expectation", lambda *a, **kw: ran.append(a))
    config = CampaignConfig(
        graph="K4",
        n_values=[3, 12],
        k=3,
        statistics=[statistic],
        samples=2,
        seed=1,
        output_prefix=str(tmp_path / "out"),
    )
    with pytest.raises(InvalidConfigError, match="48 vertices exceeds exact-count cap 40"):
        run_campaign(config)
    assert ran == []
    assert not list(tmp_path.iterdir())


def test_campaign_x_cell_past_the_equitable_cap(tmp_path):
    # the proper count has no vertex cap: K4 n=11 is 44 vertices
    config = CampaignConfig(
        graph="K4",
        n_values=[11],
        k=3,
        statistics=["X"],
        samples=2,
        seed=1,
        output_prefix=str(tmp_path / "out"),
    )
    (record,) = run_campaign(config)
    assert record.samples == 2 and record.censored == 0 and record.mean > 0


def test_campaign_outputs_deterministic(tmp_path):
    config = CampaignConfig(
        graph="K4",
        n_values=[3, 5],
        k=3,
        statistics=["Z3", "X"],
        samples=25,
        seed=7,
        output_prefix=str(tmp_path / "campaign"),
    )
    records = run_campaign(config)
    assert len(records) == 4
    csv_path = tmp_path / "campaign.csv"
    jsonl_path = tmp_path / "campaign.jsonl"
    first_csv = csv_path.read_bytes()
    first_jsonl = jsonl_path.read_bytes()
    run_campaign(config)
    assert csv_path.read_bytes() == first_csv
    assert jsonl_path.read_bytes() == first_jsonl

    header = first_csv.decode().splitlines()[0]
    assert header == ",".join(CSV_HEADER)
    meta = json.loads(first_jsonl.decode().splitlines()[0])
    assert meta["config_sha256"] == config.sha256()
    assert meta["config"]["seed"] == 7


def test_campaign_config_roundtrip(tmp_path):
    config = CampaignConfig(
        graph="K3",
        n_values=[2],
        k=3,
        statistics=["Z3"],
        samples=3,
        seed=9,
        output_prefix=str(tmp_path / "c"),
    )
    back = CampaignConfig.from_json(config.canonical_json())
    assert back == config
    with pytest.raises(InvalidConfigError):
        CampaignConfig.from_json('{"graph": "K3"}')


def test_censoring_reported(monkeypatch):
    # a tiny budget forces the chromatic solver to give up on every sample:
    # deciding 3- or 4-colourability of a K_6 lift needs genuine search
    k6 = make_complete_graph(6)
    monkeypatch.setenv("LIFTCHROMA_BUDGET", "2")
    with pytest.raises(BudgetExhaustedError):
        mc_expectation(k6, 5, None, "chi", samples=3, seed=0)


def test_campaign_refuses_a_bad_budget_env_before_any_cell(tmp_path, monkeypatch):
    # the Z3 cell used to run in full before the first chi sample refused it
    monkeypatch.setenv("LIFTCHROMA_BUDGET", "abc")
    config = CampaignConfig(
        graph="K4", n_values=[10], k=None, statistics=["Z3", "chi"], samples=3, seed=0,
        output_prefix=str(tmp_path / "bad"),
    )
    with pytest.raises(ValueError, match="LIFTCHROMA_BUDGET"):
        config.validate_config()


def test_campaign_budget_reaches_solver(tmp_path, monkeypatch):
    # the config's budget, not only LIFTCHROMA_BUDGET, bounds each solver call
    monkeypatch.delenv("LIFTCHROMA_BUDGET", raising=False)
    config = CampaignConfig(
        graph="K6",
        n_values=[5],
        k=None,
        statistics=["chi"],
        samples=3,
        seed=0,
        output_prefix=str(tmp_path / "budget"),
        budget=2,
    )
    with pytest.raises(BudgetExhaustedError):
        run_campaign(config)


def test_chi_of_large_k5_lifts_is_censored_not_crashed(k5):
    # 1500 vertices: the recursive DSATUR took one Python frame per coloured
    # vertex and raised RecursionError here.  DSATUR alone censors sample 0
    # at this budget; the tabu search's certificate now decides it.
    rec = mc_expectation(k5, 300, None, "chi", samples=3, seed=1, budget=20_000)
    assert (rec.mean, rec.censored) == (3.0, 0)
    adj = expand(sample_lift(k5, 300, sample_seed(1, 0, 0))).simple_adjacency
    [(comp, _)] = connected_components(adj)
    with pytest.raises(BudgetExhaustedError):
        _dsatur_decide(_local_adjacency(adj, comp), 3, _Budget(20_000))


def test_seed_expansion_is_stable():
    ss = sample_seed(123, 4, 5)
    assert ss.spawn_key == (4, 5)
    assert ss.entropy == 123


@pytest.mark.slow
def test_campaign_z3_tracks_lambda3(tmp_path):
    # triangle counts stay near lambda_3 = 4 across fiber sizes
    config = CampaignConfig(
        graph="K4",
        n_values=[50, 100, 200],
        k=None,
        statistics=["Z3"],
        samples=100,
        seed=13,
        output_prefix=str(tmp_path / "z3"),
    )
    records = run_campaign(config)
    assert len(records) == 3
    for rec in records:
        assert abs(rec.mean - 4.0) <= 3 * rec.stderr


def test_campaign_embed_timings(tmp_path):
    config = CampaignConfig(
        graph="K3",
        n_values=[2],
        k=None,
        statistics=["Z3"],
        # seconds are rounded to milliseconds: 5 samples (about 0.5 ms) could
        # round to 0.0, 200 take well over 1 ms
        samples=200,
        seed=1,
        output_prefix=str(tmp_path / "timed"),
        embed_timings=True,
    )
    records = run_campaign(config)
    assert records[0].seconds > 0
    body = (tmp_path / "timed.csv").read_text().splitlines()[1]
    assert not body.endswith(",0.0")


def test_campaign_dotted_prefix_writes_exact_paths(tmp_path):
    cfg = CampaignConfig(
        graph="K3", n_values=[2], k=None, statistics=["Z3"], samples=4, seed=1,
        output_prefix=str(tmp_path / "run.v1"),
    )
    run_campaign(cfg)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v1.csv", "run.v1.jsonl"]
