"""Figure/ablation experiment functions (tiny protocols; shape checks).

The full regeneration runs via ``python -m repro.bench``; these tests run
the cheap ablations completely and the figure claims on reduced axes so
the suite stays fast while still asserting each paper claim's direction.
"""

import inspect
import json
import re
from pathlib import Path

import pytest

from repro.bench.figures import Sweep
from repro.bench.report import EXPERIMENTS, run_experiment
from repro.cluster.world import mpiexec
from repro.workloads.adapters import ADAPTERS
from repro.workloads.pingpong import sweep_buffer_pingpong, sweep_tree_pingpong

QUICK = {"iterations": 6, "timed": 3, "runs": 1}
ROOT = Path(__file__).resolve().parents[2]
SWEEPS = [e for e in EXPERIMENTS.values() if isinstance(e.runner, Sweep)]


class TestTable:
    """The experiment table, checked without running it."""

    def test_ids_and_headings_in_order(self):
        rows = list(EXPERIMENTS.values())
        assert [e.id for e in rows[:2]] == ["fig9", "fig10"]
        assert [e.heading.split(":")[0] for e in rows] == ["Figure 9", "Figure 10"] + [
            f"A{i}" for i in range(1, 18)
        ]
        assert all(e.id.startswith("ablate-") for e in rows[2:])
        assert list(EXPERIMENTS) == [e.id for e in rows]
        for e in rows:
            assert callable(e.runner) and callable(e.check), e.id
            assert e.title and e.section, e.id

    @pytest.mark.parametrize("exp", SWEEPS, ids=lambda e: e.id)
    def test_sweep_rows_name_real_things(self, exp):
        """The typo net: flavors, keyword arguments and axes exist."""
        sweep = exp.runner
        # a sweep forwards the keywords it does not name to mpiexec
        params = {*inspect.signature(sweep.kind.sweep).parameters,
                  *inspect.signature(mpiexec).parameters}
        for label, flavor, kwargs in sweep.arms:
            assert flavor in ADAPTERS, (exp.id, label)
            assert set(kwargs) <= set(params), (exp.id, label)
        labels = [label for label, _flavor, _kw in sweep.arms]
        assert len(set(labels)) == len(labels)
        for xs in (sweep.quick, sweep.full):
            assert xs is None or (xs and set(xs) <= set(sweep.kind.axis)), exp.id

    def test_pal_axis_is_what_the_loop_varies(self):
        """A8 has one point per distinct input: a backend prices every PAL
        call alike, so that is a single row, the calls one round makes."""
        s = EXPERIMENTS["ablate-pal"].run(quick=True)
        assert s.xs() == [3]
        assert s.series == {"windows": {3: 80.0}, "unix": {3: 260.0}}


class TestDocsMatchTable:
    """Docs <-> table <-> committed artifacts: none can drift silently."""

    experiments_md = (ROOT / "EXPERIMENTS.md").read_text()

    def test_every_row_has_its_section_in_experiments_md(self):
        data = self.experiments_md.partition("# Regenerated series and claim checks")[2]
        assert re.findall(r"^## (.+)$", data, re.M) == [
            e.heading for e in EXPERIMENTS.values()
        ]

    def test_summary_lists_every_claim_of_the_data_section(self):
        summary, _, data = self.experiments_md.partition(
            "# Regenerated series and claim checks"
        )
        blocks = re.findall(r"^\[(HOLDS|DIFFERS)\] ", data, re.M)
        held, total = map(int, re.search(r"\*\*(\d+) of (\d+) claims hold", summary).groups())
        assert (held, total) == (blocks.count("HOLDS"), len(blocks))
        rows = re.findall(r"^\| (Figure \d+|A\d+) \(.*\| (HOLDS|DIFFERS) \|$", summary, re.M)
        assert [v for _tag, v in rows] == blocks
        tags = [e.heading.split(":")[0] for e in EXPERIMENTS.values()]
        assert list(dict.fromkeys(tag for tag, _v in rows)) == tags

    def test_every_row_is_in_the_design_index(self):
        design = (ROOT / "DESIGN.md").read_text()
        index = design.partition("## 4. Experiment index")[2].partition("\n## 5.")[0]
        targets = re.findall(r"^\| \*\*.*`python -m repro\.bench ([\w-]+)`", index, re.M)
        assert targets == list(EXPERIMENTS)

    def test_committed_smoke_json_is_the_smoke_rows(self):
        committed = json.loads((ROOT / "BENCH_smoke.json").read_text())
        smoke = [e for e in EXPERIMENTS.values() if e.smoke]
        assert [x["id"] for x in committed["experiments"]] == [e.id for e in smoke]
        assert [x["title"] for x in committed["experiments"]] == [e.heading for e in smoke]


class TestCheapAblations:
    def test_calls(self):
        s, claims = run_experiment("ablate-calls")
        assert all(c.holds for c in claims), [c.measured for c in claims]

    def test_buildtype(self):
        s, claims = run_experiment("ablate-buildtype")
        assert all(c.holds for c in claims)
        # size-proportional pin cost shows in the series
        free = s.series["sscli-free"]
        assert free[262144] > free[64]

    def test_split(self):
        s, claims = run_experiment("ablate-split")
        assert all(c.holds for c in claims)

    def test_copies(self):
        s, claims = run_experiment("ablate-copies")
        assert all(c.holds for c in claims), [c.measured for c in claims]
        # the ratios are exact, not merely bounded
        assert all(v == 1.0 for v in s.series["eager-matched"].values())
        assert all(v == 1.0 for v in s.series["rendezvous"].values())
        assert all(v == 2.0 for v in s.series["eager-unexpected"].values())


class TestFigure9Shape:
    """Reduced-axis versions of the §8 claims."""

    SIZES = [4, 256, 8192, 131072, 262144]

    @pytest.fixture(scope="class")
    def series(self):
        return {
            flavor: sweep_buffer_pingpong(flavor, self.SIZES, **QUICK)
            for flavor in ("cpp", "motor", "indiana-sscli", "indiana-dotnet", "mpijava")
        }

    def test_ordering(self, series):
        for x in self.SIZES:
            assert (
                series["cpp"][x]
                < series["motor"][x]
                < series["indiana-dotnet"][x]
                < series["indiana-sscli"][x]
                < series["mpijava"][x]
            )

    def test_motor_within_a_few_percent_of_native(self, series):
        for x in self.SIZES:
            assert series["motor"][x] / series["cpp"][x] < 1.05

    def test_motor_vs_indiana_band(self, series):
        ratios = [
            series["indiana-sscli"][x] / series["motor"][x] - 1 for x in self.SIZES
        ]
        assert 0.10 <= max(ratios) <= 0.25  # paper: 16% peak
        assert ratios[0] == max(ratios)  # peak at the smallest buffer

    def test_monotone_in_size(self, series):
        for flavor in series:
            vals = [series[flavor][x] for x in self.SIZES]
            assert vals == sorted(vals)


class TestFigure10Shape:
    COUNTS = [2, 64, 1024, 2048, 8192]

    @pytest.fixture(scope="class")
    def series(self):
        return {
            flavor: sweep_tree_pingpong(flavor, self.COUNTS, **QUICK)
            for flavor in ("motor", "indiana-sscli", "indiana-dotnet", "mpijava")
        }

    def test_motor_best_below_2048(self, series):
        for x in (2, 64, 1024):
            others = [
                series[f][x]
                for f in ("indiana-sscli", "indiana-dotnet", "mpijava")
                if series[f][x] is not None
            ]
            assert series["motor"][x] < min(others)

    def test_motor_degrades_at_large_counts(self, series):
        """The linear visited record catches up with Motor (§8)."""
        assert series["motor"][8192] > series["indiana-dotnet"][8192]

    def test_mpijava_stops_at_1024(self, series):
        assert series["mpijava"][1024] is not None
        assert series["mpijava"][2048] is None
        assert series["mpijava"][8192] is None

    def test_dotnet_beats_sscli_serializer(self, series):
        for x in (64, 1024, 8192):
            assert series["indiana-dotnet"][x] < series["indiana-sscli"][x]
