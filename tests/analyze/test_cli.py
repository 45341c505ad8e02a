"""The analyzer CLI: static files, the ablation alias, bench forwarding."""

import json

import pytest

from repro.analyze.cli import main

pytestmark = pytest.mark.analyze

BUGGY_IL = """
.class Node transportable {
    int32[] data transportable
    Node next transportable
}

.method main() returns {
    newobj Node
    ldc.i4 1
    ldc.i4 5
    callintern MP.Send/3
    ldc.i4 0
    ret
}
"""

CLEAN_IL = """
.method main() returns {
    ldc.i4 8
    newarr int32
    ldc.i4 1
    ldc.i4 5
    callintern MP.Send/3
    ldc.i4 8
    newarr int32
    ldc.i4 0
    ldc.i4 5
    callintern MP.Recv/3:r
    ret
}
"""


@pytest.fixture
def buggy_il(tmp_path):
    path = tmp_path / "buggy.il"
    path.write_text(BUGGY_IL)
    return str(path)


@pytest.fixture
def clean_il(tmp_path):
    path = tmp_path / "clean.il"
    path.write_text(CLEAN_IL)
    return str(path)


class TestStatic:
    def test_buggy_file_exits_nonzero(self, buggy_il, capsys):
        assert main(["static", buggy_il, "--world-size", "2"]) == 1
        out = capsys.readouterr().out
        assert "MA-S01" in out

    def test_clean_file_exits_zero(self, clean_il, capsys):
        assert main(["static", clean_il, "--world-size", "2"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_json_output_parses(self, buggy_il, capsys):
        assert main(["static", buggy_il, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        # the lone send also trips MA-S03 (no receive in the assembly)
        assert data["counts"]["MA-S01"] == 1
        assert data["counts"]["MA-S03"] == 1

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["static", str(tmp_path / "nope.il")]) == 2


class TestAblate:
    def test_ablate_is_bench_ablate_sanitize(self, monkeypatch, capsys):
        """Same runner, same claims, same exit status — both ways."""
        import dataclasses

        from repro.bench.report import EXPERIMENTS, ClaimResult

        assert main(["ablate"]) == 0
        assert "# ablate-sanitize" in capsys.readouterr().out
        row = EXPERIMENTS["ablate-sanitize"]
        differs = dataclasses.replace(
            row, check=lambda s: [ClaimResult("a claim", "paper", "measured", False)]
        )
        monkeypatch.setitem(EXPERIMENTS, row.id, differs)
        assert main(["ablate"]) == 1
        assert "[DIFFERS] a claim" in capsys.readouterr().out


class TestBenchForwarding:
    def test_bench_cli_delegates_analyze(self, clean_il, capsys):
        from repro.bench.cli import main as bench_main

        assert bench_main(["analyze", "static", clean_il]) == 0
        assert "no findings" in capsys.readouterr().out


WARNING_ONLY_IL = """
.method main() returns {
    ldc.i4 8
    newarr int32
    ldc.i4 1
    ldc.i4 5
    callintern MP.Send/3
    ldc.i4 0
    ret
}
"""

UNVERIFIABLE_IL = """
.method main() returns {
    pop
    ldc.i4 0
    ret
}
"""


class TestOutputOptions:
    def test_severity_threshold_gates_the_exit_code(self, tmp_path, capsys):
        path = tmp_path / "warn.il"
        path.write_text(WARNING_ONLY_IL)
        # the lone send is MA-S03, a warning: fails the default threshold…
        assert main(["static", str(path), "--world-size", "2"]) == 1
        out = capsys.readouterr().out
        assert "MA-S03" in out and "MA-S0" not in out.replace("MA-S03", "")
        # …but passes when only errors gate
        assert main([
            "static", str(path), "--world-size", "2",
            "--severity-threshold", "error",
        ]) == 0

    def test_verification_failure_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.il"
        path.write_text(UNVERIFIABLE_IL)
        assert main(["static", str(path)]) == 2
        assert "MA-S00" in capsys.readouterr().out
