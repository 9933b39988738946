"""Fixed-seed CLI output, pinned byte for byte.

Each case runs ``binapprox.cli.main`` on a small configuration and compares
its output, with the ``wall_time`` column removed, to the fixture of the
same name under ``tests/golden/``.  The Monte Carlo cases shrink the
simulator chunk so that a run spans several chunks: with SMALL_CHUNK draws
per chunk, r-scan n=100, r=2 draws 700 reps per chunk and Matern 1-d
lam=200 draws 353.  The sparse Matern case (lam=8, one chunk) has 2 empty
and 7 one-point reps, so it pins the wrap-around and lone-point paths of
the 1-d simulator.
"""

from pathlib import Path

import pytest

from binapprox import bounds, cli, engine, oracle
from binapprox.lattice import make_pmf

GOLDEN = Path(__file__).parent / "golden"
SMALL_CHUNK = 70700

CASES = {
    "rscan": ["rscan", "--n", "100", "--r", "2", "--a", "1.0",
              "--reps", "2000", "--seed", "3"],
    "rscan_uniform": ["rscan", "--n", "60", "--r", "3", "--a", "1.5",
                      "--dist", "uniform01", "--reps", "3000", "--seed", "4"],
    "matern_1d": ["matern", "--d", "1", "--lam", "200", "--a", "1.0",
                  "--reps", "2000", "--seed", "3"],
    "matern_1d_sparse": ["matern", "--d", "1", "--lam", "8", "--a", "0.5",
                         "--reps", "3000", "--seed", "3"],
    "matern_2d": ["matern", "--d", "2", "--lam", "100", "--r", "0.1",
                  "--reps", "20", "--seed", "3"],
    "rates_rscan": ["rates", "--app", "rscan", "--scales", "100", "200",
                    "400", "--reps", "2000", "--seed", "3"],
    "rates_matern": ["rates", "--app", "matern", "--scales", "200", "400",
                     "800", "--reps", "1500", "--seed", "5",
                     "--metric", "loc"],
    "exact_two_runs": ["exact", "two-runs", "--n", "60", "--p", "0.4"],
    "exact_poisson_binomial": ["exact", "poisson-binomial", "--n", "40",
                               "--p", "0.3"],
    "bound_decomposable": ["bound", "spec.json"],
    "bound_local_dependence": ["bound", "spec.json"],
    "bound_point_process": ["bound", "spec.json", "--sigma2", "4.0"],
    "bound_independent": ["bound", "spec.json"],
}

# Centered summand laws: Bernoulli(0.3), uniform on {-1, 0, 1} and
# Bernoulli(0.5), on three different lattices.
INDEPENDENT_LAWS = {
    "a": make_pmf([0.7, 0.3], min_index=-1, offset=0.7),
    "b": make_pmf([1 / 3, 1 / 3, 1 / 3], min_index=-1),
    "c": make_pmf([0.5, 0.5], min_index=-1, offset=0.5),
}

# Bound specs the ``bound`` cases read from spec.json.
SPECS = {
    "bound_decomposable": lambda: oracle.two_runs_decomposable_spec(
        oracle.TwoRunsModel(60, 0.4)),
    "bound_local_dependence": lambda: oracle.two_runs_dependence_spec(
        oracle.TwoRunsModel(60, 0.4)),
    "bound_point_process": lambda: bounds.PointProcessSpec(
        [bounds.PointTerm(weight=w, palm_prod=0.3 * w, plain_prod=0.7,
                          mu_A=0.1, mu_B=0.45 / w, palm_B=0.2 + w,
                          c1=1.3, c2=2.9)
         for w in (0.25, 1.5, 3.125)]),
    # Runs of equal summands a a b b b a c c, each a separate object after
    # the JSON round-trip: pins the leave-one-out reuse across runs.
    "bound_independent": lambda: bounds.IndependentSummandSpec(
        [INDEPENDENT_LAWS[c] for c in "aabbbacc"]),
}

RSCAN_COLS = ["n", "r", "a", "dist", "reps", "seed", "sigma2", "bound_l1",
              "bound_l2", "emp_tv", "emp_tv_lo", "emp_tv_hi", "emp_loc",
              "emp_loc_lo", "emp_loc_hi", "tv_floor", "loc_floor",
              "wall_time"]
MATERN_COLS = ["d", "lam", "r", "a"] + RSCAN_COLS[4:]


def drop_wall_time(text: str) -> str:
    """The CSV text without its wall_time column, if it has one."""
    lines = text.splitlines(keepends=True)
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    names = lines[data[0]].rstrip("\n").split(",")
    if "wall_time" not in names:
        return text
    k = names.index("wall_time")
    for i in data:
        fields = lines[i].rstrip("\n").split(",")
        del fields[k]
        lines[i] = ",".join(fields) + "\n"
    return "".join(lines)


def run_case(name: str, workdir: Path) -> str:
    """Run one case in workdir and return its output without wall_time."""
    if name in SPECS:
        (workdir / "spec.json").write_text(bounds.spec_to_json(SPECS[name]()))
    out = workdir / f"{name}.csv"
    assert cli.main(CASES[name] + ["--out", str(out)]) == cli.EXIT_OK
    return drop_wall_time(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_fixture(name, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "CHUNK_DRAWS", SMALL_CHUNK)
    monkeypatch.chdir(tmp_path)
    expected = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    assert run_case(name, tmp_path) == expected


@pytest.mark.parametrize("name,cols", [("rscan", RSCAN_COLS),
                                       ("matern_1d", MATERN_COLS),
                                       ("rates_matern", MATERN_COLS)])
def test_experiment_columns(name, cols, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.csv"
    assert cli.main(CASES[name] + ["--out", str(out)]) == cli.EXIT_OK
    header = [ln for ln in out.read_text().splitlines()
              if not ln.startswith("#")][0]
    assert header.split(",") == cols
