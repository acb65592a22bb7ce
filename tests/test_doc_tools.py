"""Doc tooling: docstring ratchet and markdown link/code-reference checker."""

import json

from repro.tools.doccheck import (
    BASELINE_PATH,
    ModuleReport,
    check_against_baseline,
    scan_tree,
)
from repro.tools.linkcheck import (
    REPO_ROOT,
    anchors_of,
    check_file,
    doc_files,
    expand_braces,
    github_slug,
)


def test_ratchet_holds_against_committed_baseline():
    reports = scan_tree()
    baseline = json.loads(BASELINE_PATH.read_text())
    problems = check_against_baseline(reports, baseline)
    assert not problems, "\n".join(problems)


def test_checker_modules_fully_documented():
    """The new subsystem enters the ratchet at a high floor."""
    reports = scan_tree()
    for module in ("repro.check", "repro.check.sanitizer", "repro.trace"):
        assert reports[module].coverage == 1.0, reports[module].missing


def test_ratchet_flags_regression():
    reports = {"m": ModuleReport(module="m", documented=1, total=2)}
    problems = check_against_baseline(reports, {"m": 1.0})
    assert problems and "fell below" in problems[0]


def test_ratchet_requires_new_modules_at_full_coverage():
    report = ModuleReport(module="new", documented=1, total=2)
    report.missing.append("thing")
    problems = check_against_baseline({"new": report}, {})
    assert problems and "new module" in problems[0]


def test_github_slug_rules():
    assert github_slug("Life of a store") == "life-of-a-store"
    assert github_slug("`python -m repro.check`") == "python--m-reprocheck"
    assert github_slug("A, B & C!") == "a-b--c"


def test_anchors_of_headings():
    text = "# Top\n\n## Sub Section\n\ncode\n\n### `cli` usage\n"
    assert anchors_of(text) == {"top", "sub-section", "cli-usage"}


def test_repo_docs_have_no_broken_links():
    problems = []
    for path in doc_files():
        problems.extend(check_file(path))
    assert not problems, "\n".join(problems)


def test_linkcheck_detects_broken_path(tmp_path, monkeypatch):
    import repro.tools.linkcheck as lc

    doc = tmp_path / "x.md"
    doc.write_text("# T\n\n[gone](missing.md) [ok](#t) [bad](#nope)\n")
    monkeypatch.setattr(lc, "REPO_ROOT", tmp_path)
    problems = lc.check_file(doc)
    assert any("broken path" in p for p in problems)
    assert any("missing anchor #nope" in p for p in problems)
    assert not any("#t" in p for p in problems)


def test_linkcheck_covers_design_and_verify_skill():
    covered = {path.relative_to(REPO_ROOT).as_posix() for path in doc_files()}
    assert {"DESIGN.md", ".claude/skills/verify/SKILL.md"} <= covered


def test_expand_braces():
    assert expand_braces("a/b.py") == ["a/b.py"]
    assert expand_braces("a/{b,c}.py") == ["a/b.py", "a/c.py"]
    assert expand_braces("{x,y}/{b,c}.py") == [
        "x/b.py", "x/c.py", "y/b.py", "y/c.py"
    ]


def _code_ref_repo(tmp_path, monkeypatch):
    import repro.tools.linkcheck as lc

    pkg = tmp_path / "src" / "repro" / "harness"
    pkg.mkdir(parents=True)
    (pkg / "experiments.py").write_text(
        "LIMIT = 3\n\n\nclass Scale:\n    def smoke(self):\n"
        "        pass\n\n\ndef run_figure7a():\n    pass\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text("def test_y():\n    pass\n")
    monkeypatch.setattr(lc, "REPO_ROOT", tmp_path)
    return lc


def test_linkcheck_accepts_live_code_refs(tmp_path, monkeypatch):
    lc = _code_ref_repo(tmp_path, monkeypatch)
    doc = tmp_path / "x.md"
    doc.write_text(
        "`harness/experiments.py:run_figure7a`, "
        "`repro/harness/{experiments}.py`, "
        "`src/repro/harness/experiments.py:Scale.smoke`, "
        "`harness/experiments.py:LIMIT`, "
        "`tests/test_x.py::test_y[hoop]`\n"
    )
    assert lc.check_file(doc) == []


def test_linkcheck_detects_stale_code_refs(tmp_path, monkeypatch):
    lc = _code_ref_repo(tmp_path, monkeypatch)
    doc = tmp_path / "x.md"
    doc.write_text(
        "`harness/tables.py` and `harness/experiments.py:run_throughput`"
        " and `repro/harness/{experiments,channel}.py`"
        " and `tests/test_x.py::test_gone`\n"
        "```\n`harness/ignored_in_fences.py`\n```\n"
    )
    problems = lc.check_file(doc)
    assert problems == [
        "x.md: no file harness/tables.py",
        "x.md: harness/experiments.py defines no run_throughput",
        "x.md: no file repro/harness/channel.py",
        "x.md: tests/test_x.py defines no test_gone",
    ]


def test_linkcheck_detects_missing_src_directory(tmp_path, monkeypatch):
    lc = _code_ref_repo(tmp_path, monkeypatch)
    doc = tmp_path / "x.md"
    doc.write_text(
        "| Harness | `src/repro/harness/` |\n"
        "| Trace replay | `src/repro/trace/` |\n"
        "```\n`src/repro/ignored_in_fences/`\n```\n"
    )
    assert lc.check_file(doc) == ["x.md: no directory src/repro/trace/"]


def test_linkcheck_detects_unknown_cli_flags(tmp_path, monkeypatch):
    import repro.tools.linkcheck as lc

    monkeypatch.setattr(lc, "REPO_ROOT", tmp_path)
    doc = tmp_path / "x.md"
    doc.write_text(
        "Run `python -m repro.harness --scale smoke\n--bogus-inline`.\n\n"
        "```bash\nPYTHONPATH=src python -m repro.crashtest --schemes all \\\n"
        "  --sample 0 --bogus-fenced > /dev/null  # --not-an-argument\n"
        "python -m repro.nosuchcli --x\n```\n"
        "`python -m repro.check` takes `--mutant`; `--elsewhere` is prose.\n"
    )
    assert lc.check_file(doc) == [
        "x.md: python -m repro.crashtest has no --bogus-fenced",
        "x.md: python -m repro.nosuchcli has no --help",
        "x.md: python -m repro.harness has no --bogus-inline",
    ]
