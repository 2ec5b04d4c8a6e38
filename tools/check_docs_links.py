#!/usr/bin/env python3
"""Check that the docs' links and CLI examples are not stale.

Two passes over every tracked ``*.md`` file:

1. **Links** — extracts inline links and image references and verifies
   that each relative target resolves inside the repository.  External
   schemes (http/https/mailto), pure anchors and generated paths
   (``results/``) are skipped.
2. **CLI examples** — extracts every ``python -m repro …`` invocation
   from fenced code blocks and smoke-parses it against the real
   argument parser (``repro.cli.build_parser``), so a renamed
   subcommand or flag breaks the docs build instead of the reader.

Run from anywhere:  python tools/check_docs_links.py
Exit status is the number of broken links + stale commands (0 = all good).
"""

from __future__ import annotations

import pathlib
import re
import shlex
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: inline markdown link or image: [text](target) / ![alt](target)
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

_SKIP_SCHEMES = ("http://", "https://", "mailto:")

#: directories whose contents are generated or vendored, not tracked docs
_SKIP_DIRS = {
    ".git", ".claude", "results", "__pycache__", ".pytest_cache",
    "build", "dist",
}


def iter_markdown_files() -> "list[pathlib.Path]":
    files = []
    for path in sorted(REPO_ROOT.rglob("*.md")):
        parts = set(path.relative_to(REPO_ROOT).parts[:-1])
        if parts & _SKIP_DIRS:
            continue
        files.append(path)
    return files


def check_file(path: pathlib.Path) -> "list[str]":
    errors = []
    text = path.read_text(encoding="utf-8")
    # Strip fenced code blocks: link-looking text in examples is not a link.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_SKIP_SCHEMES) or target.startswith("#"):
            continue
        target = target.split("#", 1)[0]  # drop any fragment
        if not target:
            continue
        resolved = (path.parent / target).resolve()
        if REPO_ROOT not in resolved.parents and resolved != REPO_ROOT:
            errors.append(f"{path.relative_to(REPO_ROOT)}: escapes repo: {target}")
        elif not resolved.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: broken link: {target}")
    return errors


#: one fenced code block (the link pass strips these; the CLI pass reads them)
_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def extract_repro_commands(path: pathlib.Path) -> "list[tuple[int, str]]":
    """``python -m repro …`` invocations inside fenced blocks.

    Returns ``(line_number, command)`` pairs with shell continuations
    (``\\`` line endings) joined, so multi-line examples are validated
    as the single command a reader would paste.
    """
    text = path.read_text(encoding="utf-8")
    commands = []
    for block in _FENCE.finditer(text):
        body = block.group(1)
        start_line = text.count("\n", 0, block.start(1)) + 1
        joined = body.replace("\\\n", " ")
        consumed = 0
        for raw in joined.split("\n"):
            line = raw.strip()
            lineno = start_line + body.count("\n", 0, consumed)
            consumed += len(raw) + 1
            if line.startswith("$ "):
                line = line[2:]
            if line.startswith("#"):
                continue
            if "python -m repro " in line:
                command = line[line.index("python -m repro "):]
                commands.append((lineno, command))
    return commands


def check_cli_examples(path: pathlib.Path, parser) -> "list[str]":
    """Smoke-parse each documented ``repro`` command against the CLI."""
    errors = []
    for lineno, command in extract_repro_commands(path):
        rel = path.relative_to(REPO_ROOT)
        try:
            argv = shlex.split(command, comments=True)
        except ValueError as exc:
            errors.append(f"{rel}:{lineno}: unparseable example: {exc}")
            continue
        # drop "python -m repro" and anything shell-side (pipes, redirects,
        # backgrounding)
        for stop in ("|", ">", ">>", "2>", "&&", ";", "&"):
            if stop in argv:
                argv = argv[: argv.index(stop)]
        argv = argv[3:]
        if not argv:
            continue
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            if exc.code not in (0, None):
                errors.append(
                    f"{rel}:{lineno}: stale CLI example: "
                    f"python -m repro {' '.join(argv)}"
                )
    return errors


def load_parser():
    """The real CLI parser, importable without an installed package."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import build_parser

    return build_parser()


def main() -> int:
    errors: "list[str]" = []
    files = iter_markdown_files()
    parser = load_parser()
    commands = 0
    for path in files:
        errors.extend(check_file(path))
        cli_errors = check_cli_examples(path, parser)
        commands += len(extract_repro_commands(path))
        errors.extend(cli_errors)
    for error in errors:
        print(error, file=sys.stderr)
    print(
        f"checked {len(files)} markdown files "
        f"({commands} CLI examples): {len(errors)} problem(s)"
    )
    return len(errors)


if __name__ == "__main__":
    sys.exit(main())
