"""The analyzer CI gate (repro.analyze.gate) and its CLI subcommand."""

import json
import pathlib
import time

import pytest

from repro.analyze.cli import main
from repro.analyze.findings import Finding
from repro.analyze.gate import (
    baseline_key,
    discover_il_units,
    load_baseline,
    render_baseline,
    run_gate,
)

pytestmark = pytest.mark.analyze

REPO_ROOT = pathlib.Path(__file__).parent.parent.parent

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

LEAKY_IL = """
.method main() returns {
    ldc.i4 8
    newarr int32
    ldc.i4 0
    ldc.i4 6
    callintern MP.Irecv/3:r
    pop
    ldc.i4 0
    ret
}
"""

DEMO_PY = f'''
"""A demo shipping IL as module constants."""

BUGGY_IL = {LEAKY_IL!r}

NOT_IL = "just a string"

FIXED_IL = BUGGY_IL.replace("pop", "stloc 0")  # computed: invisible
'''


@pytest.fixture
def repo(tmp_path):
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "good.il").write_text(CLEAN_IL)
    (examples / "bad.il").write_text(LEAKY_IL)
    (examples / "demo.py").write_text(DEMO_PY)
    return tmp_path


class TestDiscovery:
    def test_finds_files_and_module_constants(self, repo):
        units = discover_il_units(str(repo))
        assert [u.name for u in units] == ["bad", "demo.BUGGY_IL", "good"]

    def test_computed_constants_are_invisible(self, repo):
        names = {u.name for u in discover_il_units(str(repo))}
        assert "demo.FIXED_IL" not in names
        assert "demo.NOT_IL" not in names

    def test_missing_roots_are_fine(self, tmp_path):
        assert discover_il_units(str(tmp_path)) == []


class TestBaseline:
    def test_key_ignores_the_message(self):
        a = Finding(rule="MA-S08", message="one wording", assembly="x",
                    method="main", pc=3)
        b = Finding(rule="MA-S08", message="another wording", assembly="x",
                    method="main", pc=3)
        assert baseline_key(a) == baseline_key(b)

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) == set()

    def test_render_load_round_trip(self, repo, tmp_path):
        result = run_gate(str(repo), str(tmp_path / "absent.json"))
        text = render_baseline(result.report)
        assert text == render_baseline(result.report)  # deterministic
        path = tmp_path / "baseline.json"
        path.write_text(text)
        assert load_baseline(str(path)) == {
            baseline_key(f) for f in result.report.findings
        }


class TestRunGate:
    def test_unbaselined_findings_fail(self, repo, tmp_path):
        result = run_gate(str(repo), str(tmp_path / "absent.json"))
        assert not result.ok
        assert {f.rule for f in result.new} == {"MA-S08"}
        # both copies of the leak: the .il file and the module constant
        assert {f.assembly for f in result.new} == {"bad", "demo.BUGGY_IL"}

    def test_baselined_findings_pass(self, repo, tmp_path):
        baseline = tmp_path / "baseline.json"
        first = run_gate(str(repo), str(baseline))
        baseline.write_text(render_baseline(first.report))
        second = run_gate(str(repo), str(baseline))
        assert second.ok
        assert not second.new
        assert len(second.suppressed) == len(first.report)

    def test_stale_suppressions_warn_but_pass(self, repo, tmp_path):
        baseline = tmp_path / "baseline.json"
        first = run_gate(str(repo), str(baseline))
        data = json.loads(render_baseline(first.report))
        data["suppressions"].append(
            {"rule": "MA-S99", "assembly": "gone", "method": "main", "pc": 0}
        )
        baseline.write_text(json.dumps(data))
        result = run_gate(str(repo), str(baseline))
        assert result.ok
        assert result.stale == [("MA-S99", "gone", "main", 0)]

    def test_unassemblable_il_always_fails(self, repo, tmp_path):
        (repo / "examples" / "broken.il").write_text(".method oops\n")
        baseline = tmp_path / "baseline.json"
        result = run_gate(str(repo), str(baseline))
        assert not result.ok
        assert any(unit == "broken" for unit, _ in result.broken)


class TestGateCli:
    def test_exit_one_then_update_then_zero(self, repo, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        argv = ["gate", "--root", str(repo), "--baseline", baseline]
        assert main(argv) == 1
        assert "NEW" in capsys.readouterr().out
        assert main(argv + ["--update-baseline"]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "gate OK" in capsys.readouterr().out


class TestRepositoryGate:
    """The real tree must pass its own gate — and quickly."""

    def test_repo_gate_is_green_and_fast(self):
        start = time.monotonic()
        result = run_gate(
            str(REPO_ROOT), str(REPO_ROOT / "analyze-baseline.json")
        )
        elapsed = time.monotonic() - start
        assert result.ok, "\n".join(str(f) for f in result.new)
        assert not result.stale
        assert len(result.units) >= 14
        # the whole-repo sweep is a pre-commit-sized cost
        assert elapsed < 5.0, f"gate took {elapsed:.2f}s"

    def test_every_buggy_demo_is_acknowledged(self):
        result = run_gate(
            str(REPO_ROOT), str(REPO_ROOT / "analyze-baseline.json")
        )
        suppressed_rules = {f.rule for f in result.suppressed}
        for rule in ("MA-S05", "MA-S06", "MA-S07", "MA-S08", "MA-S09",
                     "MA-S10"):
            assert rule in suppressed_rules, rule
