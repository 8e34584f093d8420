"""Analyzer front-end tests: pragmas, config, the JSON schema, the CLI,
parse errors, and the self-check that keeps the repo determinism-clean."""

import json
from pathlib import Path

import pytest

from repro.analysis import analyze, load_exclude
from repro.analysis.__main__ import main
from repro.analysis.contracts import (Baseline, ProjectIndex, extract_facts,
                                      run_rules)
from repro.analysis.contracts.report import REPORT_VERSION

FIXTURE = Path(__file__).parent / "fixtures" / "detlint_cases.py"

DIRTY = "import itertools\n_ids = itertools.count(1)\n"

# CLI flags that keep a test run off the repo's own cache, baseline and
# reference trees.
ISOLATED = ["--no-config", "--no-cache", "--no-baseline", "--refs", ""]


def findings_for(source, select=()):
    """Every finding for one in-memory module, pragmas applied."""
    facts = extract_facts(source, "snippet.py", "snippet")
    return run_rules(ProjectIndex(program=[facts]), select=select)


# -- pragma suppression -------------------------------------------------------

def test_pragma_same_line_suppresses():
    src = "import itertools\n_ids = itertools.count(1)  # detlint: ignore[D001] legacy\n"
    (finding,) = findings_for(src)
    assert finding.suppressed


def test_pragma_comment_line_above_suppresses():
    src = ("import itertools\n"
           "# detlint: ignore[D001] — migrated in PR 9\n"
           "_ids = itertools.count(1)\n")
    (finding,) = findings_for(src)
    assert finding.suppressed


def test_pragma_bare_ignore_suppresses_all_codes():
    src = "import itertools\n_ids = itertools.count(1)  # detlint: ignore\n"
    (finding,) = findings_for(src)
    assert finding.suppressed


def test_pragma_wrong_code_does_not_suppress():
    src = "import itertools\n_ids = itertools.count(1)  # detlint: ignore[D004]\n"
    (finding,) = findings_for(src)
    assert not finding.suppressed


def test_pragma_multiple_codes():
    src = ("import time\n"
           "def f():\n"
           "    return time.time()  # detlint: ignore[D001,D002]\n")
    (finding,) = findings_for(src)
    assert finding.suppressed


def test_pragma_on_distant_line_does_not_suppress():
    src = ("# detlint: ignore[D001]\n"
           "import itertools\n"
           "_ids = itertools.count(1)\n")
    (finding,) = findings_for(src)
    assert not finding.suppressed


# -- config and rule selection ------------------------------------------------

def test_load_config_reads_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.detlint]\nexclude = ['vendored']\n")
    assert load_exclude(tmp_path) == ("vendored",)


def test_load_config_searches_parents(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.detlint]\nexclude = ['deep']\n")
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    assert load_exclude(nested) == ("deep",)


def test_load_config_defaults_without_table(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    assert load_exclude(tmp_path) == ()


def test_select_filters_rules():
    src = (DIRTY +
           "import time\n"
           "def f(registry):\n"
           "    registry.counter('x.total').inc()\n"
           "    return time.time()\n")
    assert [f.code for f in findings_for(src)] == ["D001", "C002", "D002"]
    assert [f.code for f in findings_for(src, ("D001",))] == ["D001"]
    assert [f.code for f in findings_for(src, ("D002", "C002"))] == \
        ["C002", "D002"]


def test_config_unknown_code_raises():
    with pytest.raises(ValueError, match="D999"):
        run_rules(ProjectIndex(), select=("D999",))


def test_exclude_skips_files(tmp_path):
    bad = tmp_path / "vendored" / "bad.py"
    bad.parent.mkdir()
    bad.write_text(DIRTY)
    assert [f.code for f in analyze([tmp_path], cache_path=None).findings] \
        == ["D001"]
    # Excluded files are still scanned (for the contract rules), but no
    # D-rule reports on them.
    report = analyze([tmp_path], cache_path=None, exclude=("vendored",))
    assert report.files_scanned == 1
    assert report.findings == []


# -- JSON report schema -------------------------------------------------------

def test_json_report_schema(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(DIRTY +
                      "_ok = itertools.count(1)  # detlint: ignore[D001]\n")
    payload = analyze([target], cache_path=None).to_dict()
    assert payload["version"] == REPORT_VERSION
    assert payload["tool"] == "repro.analysis"
    assert payload["summary"] == {
        "files_scanned": 1, "cache_hits": 0, "files_reparsed": 1,
        "findings": 2, "unsuppressed": 1, "suppressed": 1, "new": 1,
        "by_code": {"D001": 1},
    }
    unsuppressed = [f for f in payload["findings"] if not f["suppressed"]]
    (finding,) = unsuppressed
    assert set(finding) == {"code", "severity", "path", "line", "col",
                            "message", "hint", "key", "suppressed",
                            "fingerprint"}
    assert finding["code"] == "D001"
    assert finding["line"] == 2
    # Round-trips through json.
    report = analyze([target], cache_path=None)
    assert json.loads(report.to_json())["version"] == REPORT_VERSION


def test_exit_code_semantics(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 5\n")
    assert analyze([clean], cache_path=None).exit_code == 0
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    assert analyze([dirty], cache_path=None).exit_code == 1
    broken = tmp_path / "broken.py"
    broken.write_text("def (:\n")
    report = analyze([broken], cache_path=None)
    assert report.exit_code == 1
    # Parse failures surface as D000 findings, not out-of-band errors.
    assert [f.code for f in report.findings] == ["D000"]


def test_baseline_cannot_absorb_determinism_findings(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    (finding,) = analyze([dirty], cache_path=None).findings
    # --update-baseline never records a D finding...
    assert Baseline.from_findings([finding]).entries == {}
    # ...and a hand-written entry does not absorb one either.
    path = tmp_path / "baseline.json"
    Baseline(entries={finding.fingerprint: {
        "fingerprint": finding.fingerprint, "code": finding.code,
        "note": "tolerated?"}}).save(path)
    report = analyze([dirty], cache_path=None, baseline_path=path)
    assert [f.code for f in report.new_findings] == ["D001"]
    assert report.exit_code == 1


# -- CLI ----------------------------------------------------------------------

def test_cli_clean_run_exits_zero(tmp_path, capsys):
    mod = tmp_path / "ok.py"
    mod.write_text("X = 1\n")
    assert main([str(mod), *ISOLATED]) == 0
    assert "0 finding(s)" in capsys.readouterr().err


def test_cli_findings_exit_one_and_json(tmp_path, capsys):
    mod = tmp_path / "bad.py"
    mod.write_text(DIRTY)
    out_json = tmp_path / "report.json"
    assert main([str(mod), *ISOLATED, "--output", str(out_json)]) == 1
    text = capsys.readouterr().out
    assert "D001" in text and "hint:" in text
    payload = json.loads(out_json.read_text())
    assert payload["summary"]["unsuppressed"] == 1
    assert main([str(mod), *ISOLATED, "--format", "json",
                 "--output", str(out_json)]) == 1
    assert json.loads(out_json.read_text())["summary"]["by_code"] == \
        {"D001": 1}


def test_cli_select_limits_rules(tmp_path):
    mod = tmp_path / "bad.py"
    mod.write_text(DIRTY + "import time\ndef f():\n    return time.time()\n")
    assert main([str(mod), *ISOLATED, "--select", "D002"]) == 1
    assert main([str(mod), *ISOLATED, "--select", "D004"]) == 0


def test_cli_missing_path_and_bad_code(tmp_path, capsys):
    assert main([str(tmp_path / "nope.py"), *ISOLATED]) == 2
    mod = tmp_path / "ok.py"
    mod.write_text("X = 1\n")
    assert main([str(mod), *ISOLATED, "--select", "D999"]) == 2
    assert "D999" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("D000", "D001", "D002", "D003", "D004", "D005", "D006",
                 "C001", "C002", "C003", "C004"):
        assert code in out


# -- the fixture + the self-check ---------------------------------------------

def test_fixture_triggers_every_rule():
    source = FIXTURE.read_text()
    findings = findings_for(source)
    fired = {f.code for f in findings if not f.suppressed}
    assert fired == {"D001", "D002", "D003", "D004", "D005", "D006"}
    # The sanctioned patterns at the bottom of the fixture stay silent:
    # nothing fires at or after the clean-counterpart function.
    clean_start = source.splitlines().index(
        "def sanctioned_patterns(sim, rngs):") + 1
    assert all(f.line < clean_start for f in findings)


def test_detlint_self_check_repo_is_clean(repo_report):
    """The acceptance gate: no unsuppressed D finding anywhere in the
    D-scope (src, benchmarks, examples) of the full-tree run."""
    report = repo_report
    assert report.files_scanned > 200
    determinism = [f for f in report.findings if f.code.startswith("D")]
    offenders = "\n".join(f.render() for f in determinism
                          if not f.suppressed)
    assert not offenders, f"determinism findings:\n{offenders}"
    # Every suppression in the tree carries its pragma deliberately; the
    # inventory is pinned so a new pragma is an explicit decision here:
    # - sim/ids.py D001: the documented no-world fallback sequencer;
    # - analysis/__main__.py D002: CLI elapsed-time display;
    # - scale/runner.py D006: the sanctioned process-pool call site;
    # - C003: loops and calls that look like ad-hoc retries but are not.
    sanctioned = {("sim/ids.py", "D001"), ("analysis/__main__.py", "D002"),
                  ("scale/runner.py", "D006"),
                  ("comm/failover.py", "C003"), ("comm/rpc.py", "C003"),
                  ("core/faulttol.py", "C003"), ("data/ingest.py", "C003"),
                  ("service/service.py", "C003")}
    suppressed = {(f.path.split("repro/", 1)[-1], f.code)
                  for f in report.findings if f.suppressed}
    assert suppressed == sanctioned


# -- multi-line statements ----------------------------------------------------

def test_pragma_on_stmt_first_line_covers_continuation_lines():
    src = ("import time\n"
           "def f():\n"
           "    return (  # detlint: ignore[D002] host clock OK in tooling\n"
           "        time.time())\n")
    (finding,) = findings_for(src)
    assert finding.line == 4
    assert finding.suppressed


def test_comment_above_wrapped_statement_covers_it():
    src = ("import time\n"
           "def f():\n"
           "    # detlint: ignore[D002] host clock OK in tooling\n"
           "    return (\n"
           "        time.time())\n")
    (finding,) = findings_for(src)
    assert finding.line == 5
    assert finding.suppressed


def test_wrong_code_on_stmt_first_line_does_not_suppress():
    src = ("import time\n"
           "def f():\n"
           "    return (  # detlint: ignore[D004]\n"
           "        time.time())\n")
    (finding,) = findings_for(src)
    assert not finding.suppressed


# -- parse errors as findings (D000) ------------------------------------------

def test_syntax_error_is_a_d000_finding(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n    pass\n", "utf-8")
    (tmp_path / "fine.py").write_text(DIRTY, "utf-8")
    report = analyze([tmp_path], cache_path=None)
    assert report.files_scanned == 2
    codes = sorted(f.code for f in report.findings)
    assert codes == ["D000", "D001"]
    d000 = next(f for f in report.findings if f.code == "D000")
    assert d000.path.endswith("broken.py")
    assert d000.line == 1
    assert "does not parse" in d000.message
    assert report.exit_code == 1


def test_d000_locates_error_line(tmp_path):
    (tmp_path / "late.py").write_text("x = 1\ny = 2\nz = (\n", "utf-8")
    (finding,) = analyze([tmp_path], cache_path=None).findings
    assert finding.code == "D000"
    assert finding.line == 3
