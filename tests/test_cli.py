import json
import math
import re
import shlex
from pathlib import Path

import pytest

from liftchroma import asymptotics
from liftchroma.base_graph import make_complete_graph
from liftchroma.cli import build_parser, main


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_thresholds_csv(capsys):
    out = run_cli(capsys, "thresholds", "--k-max", "5")
    lines = out.strip().splitlines()
    assert lines[0] == "k,u_k,ell_k,c_k"
    assert len(lines) == 4
    assert lines[1].startswith("3,")


def test_classify_json(capsys):
    out = json.loads(run_cli(capsys, "classify", "--d", "5"))
    assert out["kind"] == "two_point"
    assert out["chromatic_values"] == [3, 4]


def test_sample_and_reload(capsys, tmp_path):
    out = run_cli(capsys, "sample", "--graph", "K4", "--n", "5", "--seed", "3")
    rec = json.loads(out)
    assert rec["n"] == 5 and rec["seed"] == 3
    assert len(rec["matchings"]) == 6
    lift_file = tmp_path / "lift.json"
    lift_file.write_text(out)
    chromatic = json.loads(
        run_cli(capsys, "chromatic", "--graph", "K4", "--lift", str(lift_file))
    )
    assert chromatic["chi"] == 3


def test_count_colorings(capsys):
    out = json.loads(
        run_cli(
            capsys,
            "count-colorings",
            "--graph",
            "K3",
            "--n",
            "3",
            "--seed",
            "1",
            "--k",
            "3",
            "--equitable",
        )
    )
    assert out["count"] >= 0


def test_count_colorings_found_case_within_small_budget(capsys, monkeypatch):
    # 24 vertices: the node search spent its whole 10^8 budget on this count
    monkeypatch.setenv("LIFTCHROMA_BUDGET", "1000000")
    argv = "count-colorings --graph K4 --n 6 --seed 2 --k 4".split()
    assert json.loads(run_cli(capsys, *argv)) == {"n": 6, "k": 4, "count": 6102566736}


def test_moments_exact_cli(capsys):
    out = json.loads(
        run_cli(
            capsys, "moments-exact", "--graph", "K3", "--n", "2", "--k", "3", "--which", "X"
        )
    )
    assert out["value"] == "51/1"


def test_sscm_cli(capsys):
    out = json.loads(run_cli(capsys, "sscm", "--graph", "K4", "--k", "3"))
    assert out["identity_gap"] < 1e-8
    assert out["lambda"][2] == pytest.approx(4.0)
    assert out["C1"] == pytest.approx(4096.0)
    # the bound on the series tail past the truncation J that the gap respects
    check = asymptotics.sscm_identity_check(make_complete_graph(4), 3)
    assert out["identity_J"] == check.J
    assert out["identity_tail_bound"] == check.tail_bound
    assert out["identity_gap"] <= out["identity_tail_bound"] + 1e-12


def test_opt_verify_cli(capsys):
    out = json.loads(
        run_cli(capsys, "opt-verify", "--which", "rect", "--q", "4", "--k", "3", "--trials", "500", "--seed", "2")
    )
    assert out["worst_gap"] >= -1e-10
    out_f = json.loads(
        run_cli(capsys, "opt-verify", "--which", "F", "--graph", "K4", "--k", "3", "--trials", "5", "--seed", "1")
    )
    assert out_f["gap_to_uniform"] >= -1e-9


@pytest.mark.parametrize("which", ["an", "rect", "f", "F"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_opt_verify_rejects_trials_below_one(capsys, which, trials):
    # --trials 0 used to die in numpy ("zero-size array") for an and rect
    with pytest.raises(SystemExit) as exc:
        main(["opt-verify", "--which", which, "--trials", trials])
    assert exc.value.code == 2
    assert "--trials: must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        ("laplace-check --which EY --graph K4 --k 3 --n 0", "argument --n: must be an integer >= 1, got 0"),
        ("moments-exact --which X --graph K4 --n 0 --k 3", "argument --n: must be an integer >= 1, got 0"),
        ("opt-verify --which an --q 2", "argument --q: must be an integer >= 3, got 2"),
        ("opt-verify --which rect --q 4 --k 5", "need q >= 3 and k <= q, got 4 x 5"),
        ("moments-exact --which Y2 --graph K4 --n 12 --k 3", "transitions exceed cap 1000000"),
        ("moments-exact --which Y --graph K4 --n 2 --k 0", "argument --k: must be an integer >= 1, got 0"),
        ("chromatic --graph K4", "need --n (to sample) or --lift FILE"),
        ("count-colorings --graph K4 --k 3", "need --n (to sample) or --lift FILE"),
        ("campaign", "campaign needs --config or --graph/--n/--statistics/--out"),
    ],
)
def test_cli_errors_are_one_usage_line(capsys, argv, message):
    # these ended in library tracebacks (a bare "math domain error" for the
    # first); a rejected argument or a refused request exits 2 with one line
    command = argv.split()[0]
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"liftchroma {command}: error: ")
    assert last.endswith(message)


def test_chromatic_refuses_a_zero_budget(capsys, monkeypatch):
    # a zero budget used to end every sample as "search node budget exhausted"
    monkeypatch.setenv("LIFTCHROMA_BUDGET", "0")
    with pytest.raises(SystemExit) as exc:
        main(["chromatic", "--graph", "K5", "--n", "20"])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "liftchroma chromatic: error: LIFTCHROMA_BUDGET must be an integer >= 1, got '0'"


def test_censored_chromatic_names_its_bracket(capsys, monkeypatch):
    # a censored chi used to end as a bare "search node budget exhausted"
    monkeypatch.setenv("LIFTCHROMA_BUDGET", "100")
    with pytest.raises(SystemExit) as exc:
        main(["chromatic", "--graph", "K6", "--n", "20", "--seed", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "liftchroma chromatic: error: search node budget exhausted; chromatic number in [3, 4]"
    ]


def test_tau_cli(capsys, tmp_path):
    path = tmp_path / "c6.txt"
    # C_6 viewed as a multigraph file: 6 spanning trees
    path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    out = json.loads(run_cli(capsys, "tau", "--graph", str(path)))
    assert out["tau"] == 6


def test_laplace_check_cli(capsys):
    out = json.loads(
        run_cli(capsys, "laplace-check", "--which", "EY", "--graph", "K3", "--k", "3", "--n", "30")
    )
    assert out["rel_error"] < 1e-9
    assert out["kernel_dim"] == 3  # (k^2 - 3k + 1)|E| for K3, k = 3
    assert out["det_path"] == "exact"


def test_campaign_cli(capsys, tmp_path):
    prefix = tmp_path / "camp"
    out = json.loads(
        run_cli(
            capsys,
            "campaign",
            "--graph",
            "K3",
            "--n",
            "2",
            "--statistics",
            "Z3",
            "--samples",
            "10",
            "--seed",
            "4",
            "--out",
            str(prefix),
        )
    )
    assert out["cells"] == 1
    assert (tmp_path / "camp.csv").exists()
    assert (tmp_path / "camp.jsonl").exists()


def test_campaign_cli_config_file(capsys, tmp_path):
    config = {
        "graph": "K3",
        "n_values": [2],
        "k": 3,
        "statistics": ["X"],
        "samples": 5,
        "seed": 2,
        "output_prefix": str(tmp_path / "cfg_run"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = json.loads(run_cli(capsys, "campaign", "--config", str(cfg_path)))
    assert out["cells"] == 1


def test_campaign_dotted_prefix_lands_where_reported(capsys, tmp_path):
    prefix = tmp_path / "out" / "run.v1"
    out = json.loads(
        run_cli(
            capsys, "campaign", "--graph", "K3", "--n", "2", "--statistics", "Z3",
            "--samples", "4", "--seed", "1", "--out", str(prefix),
        )
    )
    assert out["csv"] == str(prefix) + ".csv"
    assert out["jsonl"] == str(prefix) + ".jsonl"
    assert sorted(p.name for p in prefix.parent.iterdir()) == ["run.v1.csv", "run.v1.jsonl"]


def test_tau_cli_complete_graph_shorthand(capsys):
    # Cayley: K4 has 4^2 spanning trees
    assert json.loads(run_cli(capsys, "tau", "--graph", "K4"))["tau"] == 16


def test_tau_cli_irregular_multigraph_file(capsys, tmp_path):
    # tau takes any loopless multigraph, not only a regular base graph: a
    # triangle with a pendant edge has the triangle's 3 spanning trees
    path = tmp_path / "paw.txt"
    path.write_text("4 4\n0 1\n1 2\n2 0\n2 3\n")
    assert json.loads(run_cli(capsys, "tau", "--graph", str(path)))["tau"] == 3


def test_sscm_cli_reports_logs_past_float_range(capsys):
    out = json.loads(run_cli(capsys, "sscm", "--graph", "K30", "--k", "10"))
    g = make_complete_graph(30)
    assert out["log_C2"] == asymptotics.log_c2(g, 10) > 709.8  # above log(float max)
    assert out["C2"] is None
    assert out["log_C1"] == asymptotics.log_c1(g, 10)
    assert out["C1"] == math.exp(out["log_C1"])
    assert out["log_h"] == asymptotics.log_h_dk(g, 10)
    k4 = json.loads(run_cli(capsys, "sscm", "--graph", "K4", "--k", "3"))
    assert k4["C1"] == math.exp(k4["log_C1"]) == pytest.approx(4096.0)


def test_readme_cli_examples_parse():
    # every `liftchroma ...` line of README's CLI block names a command and
    # options the parser still has; nothing is run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```bash\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("liftchroma ")]
    assert lines
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
