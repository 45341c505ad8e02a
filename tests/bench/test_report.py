"""Claim checking and the report/CLI plumbing."""

import dataclasses

import pytest

from repro.bench.harness import SeriesSet
from repro.bench.report import (
    DATA_HEADING,
    EXPERIMENTS,
    SUMMARY_BEGIN,
    SUMMARY_END,
    ClaimResult,
    check_ablate_calls,
    check_fig9,
    render_claims,
    rewrite_experiments_md,
    run_experiment,
)


def fig9_like(motor_base=58.0, sscli_mult=1.16) -> SeriesSet:
    """A synthetic Figure 9 with the paper's shape."""
    s = SeriesSet("fig9", "t", "bytes", "us")
    sizes = [4 << i for i in range(17)]
    series = {}
    for name, mult in (
        ("C++", 0.97),
        ("Motor", 1.0),
        ("Indiana .NET", 1.06),
        ("Indiana SSCLI", sscli_mult),
        ("Java", 1.8),
    ):
        series[name] = {
            x: (motor_base + x * 0.02) * (1 + (mult - 1) * 60 / (60 + x * 0.02))
            for x in sizes
        }
    for name, pts in series.items():
        s.add(name, pts)
    return s


class TestFig9Checks:
    def test_paper_shape_holds(self):
        claims = check_fig9(fig9_like())
        by_claim = {c.claim: c for c in claims}
        assert by_claim["series ordering per iteration"].holds
        assert by_claim["Motor vs Indiana-SSCLI, peak"].holds

    def test_wrong_ordering_detected(self):
        s = fig9_like()
        # make Motor slower than Indiana everywhere
        s.series["Motor"] = {x: v * 2 for x, v in s.series["Motor"].items()}
        claims = check_fig9(s)
        assert not claims[0].holds

    def test_out_of_band_ratio_detected(self):
        claims = check_fig9(fig9_like(sscli_mult=2.0))  # 100% gap, not ~16%
        by_claim = {c.claim: c for c in claims}
        assert not by_claim["Motor vs Indiana-SSCLI, peak"].holds


class TestAblateChecks:
    def test_calls_check(self):
        s = SeriesSet("ablate-calls", "t", "args", "ns")
        s.add("FCall", {0: 250.0})
        s.add("P/Invoke", {0: 4000.0})
        s.add("JNI", {0: 9000.0})
        assert check_ablate_calls(s)[0].holds

    def test_calls_check_fails_when_flat(self):
        s = SeriesSet("ablate-calls", "t", "args", "ns")
        s.add("FCall", {0: 4000.0})
        s.add("P/Invoke", {0: 4000.0})
        s.add("JNI", {0: 4000.0})
        assert not check_ablate_calls(s)[0].holds


class TestRendering:
    def test_render_claims(self):
        text = render_claims(
            [
                ClaimResult("a claim", "paper says", "we measured", True),
                ClaimResult("another", "x", "y", False),
            ]
        )
        assert "[HOLDS] a claim" in text
        assert "[DIFFERS] another" in text
        assert "paper says" in text and "we measured" in text


class TestExperimentsMd:
    """The two generated parts of EXPERIMENTS.md come from the same results."""

    def results(self, holds):
        row = EXPERIMENTS["ablate-pal"]
        series = row.series_set("x", "y")
        series.add("a", {1: 2.0})
        return [(row, series, [ClaimResult("a claim", "paper | says", "measured", holds)])]

    def test_summary_and_data_are_replaced_and_prose_kept(self):
        old = (
            "# title\n\nintro\n\n" + SUMMARY_BEGIN + "stale summary\n" + SUMMARY_END
            + "\n## Notes\n\nprose\n\n" + DATA_HEADING + "\nstale data\n"
        )
        new = rewrite_experiments_md(old, self.results(True))
        assert "stale" not in new
        assert new.startswith("# title\n\nintro\n\n" + SUMMARY_BEGIN)
        assert "\n## Notes\n\nprose\n\n" + DATA_HEADING in new
        assert "Summary: **1 of 1 claims hold.**" in new
        assert "| A8 (§5.4) | a claim | paper \\| says | measured | HOLDS |" in new
        assert "## A8: PAL backend thickness" in new and "[HOLDS] a claim" in new
        assert rewrite_experiments_md(new, self.results(True)) == new

    def test_a_differing_claim_shows_in_both_parts(self):
        new = rewrite_experiments_md("# title\n\n", self.results(False))
        assert "Summary: **0 of 1 claims hold.**" in new
        assert "| DIFFERS |" in new and "[DIFFERS] a claim" in new
        assert new.index(SUMMARY_END) < new.index(DATA_HEADING)


class TestRunExperiment:
    def test_cheap_experiment_end_to_end(self):
        series, claims = run_experiment("ablate-calls", quick=True)
        assert series.experiment == "ablate-calls"
        assert claims and all(c.holds for c in claims)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestCli:
    def test_cli_runs_cheap_experiment(self, capsys, tmp_path):
        from repro.bench.cli import main

        rc = main(["ablate-buildtype", "--csv", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pin/unpin pair cost" in out
        assert "[HOLDS]" in out
        assert (tmp_path / "ablate-buildtype.csv").exists()

    def test_cli_exits_nonzero_when_a_claim_differs(self, monkeypatch, capsys):
        from repro.bench.cli import main

        row = EXPERIMENTS["ablate-buildtype"]
        differs = dataclasses.replace(
            row, check=lambda s: [ClaimResult("a claim", "paper", "measured", False)]
        )
        monkeypatch.setitem(EXPERIMENTS, row.id, differs)
        assert main([row.id]) == 1
        assert "[DIFFERS] a claim" in capsys.readouterr().out

    def test_cli_rejects_unknown(self):
        from repro.bench.cli import main

        with pytest.raises(SystemExit):
            main(["figure-nine"])

    def test_cli_metrics_prints_the_merged_report_and_a_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.bench.cli import main

        trace = tmp_path / "trace.json"
        assert main(["metrics", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# cluster report: ranks [0, 1]")
        assert "mp.ch3.eager_sends" in out and "mp.recv.complete" in out
        events = json.loads(trace.read_text())["traceEvents"]
        assert {e["pid"] for e in events} == {0, 1}
