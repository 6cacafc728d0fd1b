"""The docs stay honest: tools/check_docs.py over docs/*.md + README.

The checker itself is exercised negatively here too -- a checker that
never fails would let the docs rot silently.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
sys.modules["check_docs"] = check_docs
spec.loader.exec_module(check_docs)


def test_docs_have_no_problems():
    assert check_docs.check_all() == []


def test_expected_docs_exist():
    for name in ("architecture.md", "transient.md", "cli.md"):
        assert (REPO_ROOT / "docs" / name).exists()


class TestCheckerCatchesRot:
    def _block(self, tmp_path, language, source):
        path = tmp_path / "doc.md"
        path.write_text(f"```{language}\n{source}\n```\n")
        blocks = check_docs.iter_code_blocks(path)
        assert len(blocks) == 1
        return blocks[0]

    def test_python_syntax_error_flagged(self, tmp_path):
        block = self._block(tmp_path, "python", "def broken(:")
        assert check_docs.check_python_block(block)

    def test_stale_import_flagged(self, tmp_path):
        block = self._block(
            tmp_path, "python", "from repro import NoSuchSolver"
        )
        problems = check_docs.check_python_block(block)
        assert any("NoSuchSolver" in p for p in problems)

    def test_real_import_passes(self, tmp_path):
        block = self._block(
            tmp_path, "python", "from repro import BatchedTransientSolver"
        )
        assert check_docs.check_python_block(block) == []

    def test_unknown_subcommand_flagged(self, tmp_path):
        block = self._block(tmp_path, "bash", "repro frobnicate --fast")
        surface = check_docs._cli_surface()
        problems = check_docs.check_shell_block(block, surface)
        assert any("frobnicate" in p for p in problems)

    def test_unknown_flag_flagged(self, tmp_path):
        block = self._block(
            tmp_path, "bash", "repro transient --no-such-flag"
        )
        surface = check_docs._cli_surface()
        problems = check_docs.check_shell_block(block, surface)
        assert any("--no-such-flag" in p for p in problems)

    def test_continuation_lines_joined(self, tmp_path):
        block = self._block(
            tmp_path, "bash", "repro transient --sweep \\\n    --csv out.csv"
        )
        surface = check_docs._cli_surface()
        assert check_docs.check_shell_block(block, surface) == []

    def test_broken_link_flagged(self, tmp_path):
        path = tmp_path / "doc.md"
        path.write_text("see [missing](no_such_file.md)\n")
        assert check_docs.check_links(path)

    def test_missing_anchor_flagged(self, tmp_path):
        target = tmp_path / "target.md"
        target.write_text("# Real Heading\n")
        path = tmp_path / "doc.md"
        path.write_text("see [t](target.md#wrong-anchor)\n")
        problems = check_docs.check_links(path)
        assert any("wrong-anchor" in p for p in problems)
        path.write_text("see [t](target.md#real-heading)\n")
        assert check_docs.check_links(path) == []



class TestSchemaTables:
    SERVICE = REPO_ROOT / "docs" / "service.md"

    def _drifted(self, tmp_path, old, new):
        text = self.SERVICE.read_text()
        assert old in text
        path = tmp_path / "service.md"
        path.write_text(text.replace(old, new))
        return check_docs.check_schema_tables(path)

    def test_optimize_budget_drift_flagged(self, tmp_path):
        """The field docs/service.md once documented and the service
        never read."""
        problems = self._drifted(
            tmp_path, "`area_budget: number or null = null`",
            "`budget: number or null = null`",
        )
        assert any("'budget'" in p and "not a field" in p for p in problems)
        assert any("'area_budget'" in p for p in problems)

    def test_default_drift_flagged(self, tmp_path):
        problems = self._drifted(
            tmp_path, "`samples: int = 16`", "`samples: int`"
        )
        assert len(problems) == 1
        assert "mc documents samples as required, the spec says 16" in problems[0]

    def test_missing_row_flagged(self, tmp_path):
        problems = self._drifted(tmp_path, "| `grid` |", "| grid |")
        assert problems == ["service.md: no schema row for 'grid'"]
