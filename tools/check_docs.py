"""Documentation checker: keep docs/*.md and README.md honest.

Five classes of rot this catches, all cheap enough for CI:

* ``python`` fenced blocks must parse, and every ``from repro...``
  import in them must resolve to a real attribute -- renamed or removed
  API surfaces fail the docs build instead of silently going stale;
* ``bash`` fenced blocks mentioning the ``repro`` CLI must name real
  subcommands, and every ``--flag`` they pass must exist on that
  subcommand's parser (checked against ``build_parser()`` itself);
* in docs/cli.md, every backticked ``--flag`` in the prose of a section
  whose heading names `` `repro <cmd>` `` must be a flag of that
  subcommand (a flag the heading names beside it, as "`repro profile`
  and `--profile`" does, must be a flag of some subcommand);
* relative markdown links (and their ``#anchors``) must point at files
  and headings that exist;
* the request-schema tables of docs/service.md (one row per job kind,
  plus ``grid`` and ``scenario``) must name exactly the fields of each
  :mod:`repro.jobspec` spec, with the spec's defaults.

Run:  PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

FENCE_RE = re.compile(r"^```(\w*)\s*$")
LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
#: One documented schema field: `name: type` or `name: type = default`.
FIELD_RE = re.compile(r"`(\w+): [^`=]+?(?: = ([^`]+))?`")
#: A subcommand a heading names, and the flag a code span starts with.
SUBCOMMAND_RE = re.compile(r"`repro ([\w-]+)`")
SPAN_FLAG_RE = re.compile(r"`(--[\w-]+)[^`]*`")


@dataclass
class CodeBlock:
    path: Path
    language: str
    start_line: int
    source: str


def doc_files() -> list[Path]:
    files = sorted((REPO_ROOT / "docs").glob("*.md"))
    readme = REPO_ROOT / "README.md"
    if readme.exists():
        files.append(readme)
    return files


def iter_code_blocks(path: Path) -> list[CodeBlock]:
    blocks = []
    language = None
    start = 0
    lines: list[str] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        fence = FENCE_RE.match(line)
        if fence and language is None:
            language = fence.group(1).lower()
            start = lineno + 1
            lines = []
        elif line.strip() == "```" and language is not None:
            blocks.append(CodeBlock(path, language, start, "\n".join(lines)))
            language = None
        elif language is not None:
            lines.append(line)
    return blocks


# ----------------------------------------------------------------------
def check_python_block(block: CodeBlock) -> list[str]:
    """Syntax-check the block and resolve its ``repro`` imports."""
    where = f"{block.path.name}:{block.start_line}"
    try:
        tree = ast.parse(block.source)
    except SyntaxError as exc:
        return [f"{where}: python block does not parse: {exc}"]

    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        module = node.module or ""
        if module.split(".")[0] != "repro":
            continue
        try:
            mod = importlib.import_module(module)
        except ImportError as exc:
            problems.append(f"{where}: import {module!r} fails: {exc}")
            continue
        for alias in node.names:
            if not hasattr(mod, alias.name):
                problems.append(
                    f"{where}: {module} has no attribute {alias.name!r}"
                )
    return problems


# ----------------------------------------------------------------------
def _cli_surface() -> dict[str, set[str]]:
    """``{subcommand: set of option strings}`` from the live parser."""
    from repro.cli import build_parser

    parser = build_parser()
    surface = {}
    for action in parser._subparsers._group_actions:
        for name, sub in action.choices.items():
            surface[name] = set(sub._option_string_actions)
    return surface


def _repro_invocations(source: str) -> list[list[str]]:
    """Tokenized ``repro ...`` command lines (continuations joined)."""
    joined = source.replace("\\\n", " ")
    commands = []
    for line in joined.splitlines():
        line = line.strip().lstrip("$ ").strip()
        if line.startswith("repro "):
            commands.append(line.split())
    return commands


def check_shell_block(
    block: CodeBlock, surface: dict[str, set[str]]
) -> list[str]:
    where = f"{block.path.name}:{block.start_line}"
    problems = []
    for tokens in _repro_invocations(block.source):
        subcommand = next(
            (t for t in tokens[1:] if not t.startswith("-")), None
        )
        if subcommand is None or subcommand in ("--help", "--version"):
            continue
        if subcommand not in surface:
            problems.append(
                f"{where}: unknown repro subcommand {subcommand!r}"
            )
            continue
        known = surface[subcommand]
        rest = tokens[tokens.index(subcommand) + 1 :]
        if subcommand == "profile":
            # ``repro profile <subcommand> ...`` nests a full workload:
            # flags after the nested subcommand belong to *its* parser.
            # Flag *values* (trace paths etc.) also appear as bare
            # tokens, so match the first token naming a real
            # subcommand rather than the first non-dash token.
            nested = next((t for t in rest if t in surface), None)
            if nested is not None:
                known = known | surface[nested]
        for token in rest:
            if not token.startswith("--"):
                continue
            flag = token.split("=", 1)[0]
            if flag not in known:
                problems.append(
                    f"{where}: repro {subcommand} has no flag {flag!r}"
                )
    return problems


def _sections(path: Path) -> list[tuple[int, str, str]]:
    """``(line, heading, prose)`` of each section of a markdown file;
    fenced code is left out of the prose."""
    sections = [(0, "", [])]
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.startswith("```"):
            in_fence = not in_fence
        elif not in_fence and HEADING_RE.match(line):
            sections.append((lineno, line, []))
        elif not in_fence:
            sections[-1][2].append(line)
    return [(lineno, heading, "\n".join(body)) for lineno, heading, body in sections]


def check_section_flags(path: Path, surface: dict[str, set[str]]) -> list[str]:
    """Each backticked ``--flag`` of a `` `repro <cmd>` `` section is a
    flag of ``<cmd>``, or of some subcommand when the heading names it."""
    anywhere = set().union(*surface.values())
    problems = []
    for lineno, heading, prose in _sections(path):
        commands = SUBCOMMAND_RE.findall(heading)
        if not commands:
            continue
        where = f"{path.name}:{lineno}: section `repro {'`/`'.join(commands)}`"
        unknown = [c for c in commands if c not in surface]
        if unknown:
            problems.append(f"{where} names unknown subcommands {unknown}")
            continue
        known = set().union(*(surface[c] for c in commands))
        named = set(SPAN_FLAG_RE.findall(heading))
        for flag in sorted(set(SPAN_FLAG_RE.findall(prose))):
            if flag not in (anywhere if flag in named else known):
                problems.append(f"{where} documents {flag!r}, not one of its flags")
    return problems


# ----------------------------------------------------------------------
def _anchor_slug(heading: str) -> str:
    """GitHub-style anchor slug of a markdown heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def _anchors(path: Path) -> set[str]:
    anchors = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
        elif not in_fence:
            match = HEADING_RE.match(line)
            if match:
                anchors.add(_anchor_slug(match.group(1)))
    return anchors


def check_links(path: Path) -> list[str]:
    problems = []
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, anchor = target.partition("#")
            # Badge-style links into ../../actions are repo-relative on
            # the forge, not the checkout; skip anything escaping it.
            if base.startswith(".."):
                continue
            resolved = (path.parent / base) if base else path
            if not resolved.exists():
                problems.append(
                    f"{path.name}:{lineno}: broken link {target!r}"
                )
            elif anchor and resolved.suffix == ".md":
                if anchor not in _anchors(resolved):
                    problems.append(
                        f"{path.name}:{lineno}: missing anchor {target!r}"
                    )
    return problems


# ----------------------------------------------------------------------
def check_schema_tables(path: Path) -> list[str]:
    """Each spec's table row (first cell `` `kind` ``) names exactly its
    fields, each default as JSON (absent for a required field)."""
    from repro import jobspec

    specs = {
        "grid": jobspec.GridSpec, "scenario": jobspec.ScenarioSpec,
        **jobspec.JOB_SPECS,
    }
    problems = []
    seen = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        cells = line.split("|")
        label = re.fullmatch(r"\s*`(\w+)`\s*", cells[1]) if len(cells) > 2 else None
        if label is None or label.group(1) not in specs:
            continue
        kind = label.group(1)
        seen.add(kind)
        where = f"{path.name}:{lineno}: {kind}"
        documented = {name: default for name, default in FIELD_RE.findall(cells[2])}
        fields = {f.name: f.default for f in dataclasses.fields(specs[kind])}
        for name in sorted(documented.keys() - fields.keys()):
            problems.append(f"{where} documents {name!r}, which is not a field")
        for name in sorted(fields.keys() - documented.keys()):
            problems.append(f"{where} leaves out the field {name!r}")
        for name in sorted(documented.keys() & fields.keys()):
            default, text = fields[name], documented[name]
            if isinstance(default, tuple):
                default = list(default)
            if default is dataclasses.MISSING:
                spec_says, ok = "required", not text
            else:
                spec_says = json.dumps(default)
                try:
                    ok = json.loads(text) == default
                except ValueError:  # not JSON, or documented as required
                    ok = False
            if not ok:
                problems.append(
                    f"{where} documents {name} as {text or 'required'}, "
                    f"the spec says {spec_says}"
                )
    for kind in sorted(specs.keys() - seen):
        problems.append(f"{path.name}: no schema row for {kind!r}")
    return problems


def check_all() -> list[str]:
    surface = _cli_surface()
    problems = []
    problems.extend(check_schema_tables(REPO_ROOT / "docs" / "service.md"))
    problems.extend(check_section_flags(REPO_ROOT / "docs" / "cli.md", surface))
    for path in doc_files():
        problems.extend(check_links(path))
        for block in iter_code_blocks(path):
            if block.language == "python":
                problems.extend(check_python_block(block))
            elif block.language in ("bash", "sh", "shell", "console"):
                problems.extend(check_shell_block(block, surface))
    return problems


def main() -> int:
    problems = check_all()
    for problem in problems:
        print(problem)
    checked = len(doc_files())
    if problems:
        print(f"{len(problems)} problem(s) across {checked} file(s)")
        return 1
    print(f"docs OK ({checked} file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
