import json
from fractions import Fraction

import pytest

from liftchroma.base_graph import make_complete_graph
from liftchroma.coloring import count_strongly_equitable
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
    # vertex and raised RecursionError here
    rec = mc_expectation(k5, 300, None, "chi", samples=3, seed=1, budget=20_000)
    assert (rec.mean, rec.censored) == (3.0, 1)


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
        samples=5,
        seed=1,
        output_prefix=str(tmp_path / "timed"),
        embed_timings=True,
    )
    records = run_campaign(config)
    assert records[0].seconds > 0
    body = (tmp_path / "timed.csv").read_text().splitlines()[1]
    assert not body.endswith(",0.0")
