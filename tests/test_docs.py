"""Executable documentation: doctests in docs/*.md, docstring examples, CLI examples.

Three layers keep the documentation honest (and back the CI ``docs`` job):

1. every ``>>>`` snippet in ``docs/*.md`` runs as a doctest,
2. every docstring example of every ``repro`` module whose source holds
   a ``>>>`` runs as a doctest,
3. every ``python -m repro …`` command line in ``docs/cli.md`` is executed,
   in order, in one temporary directory — a broken CLI example fails the
   suite.
"""

from __future__ import annotations

import doctest
import importlib
import shlex
from pathlib import Path

import pytest

import repro

DOCS_DIR = Path(__file__).resolve().parent.parent / "docs"
DOC_PAGES = sorted(DOCS_DIR.glob("*.md"))

PACKAGE_DIR = Path(repro.__file__).resolve().parent


def doctested_modules() -> list[str]:
    """Every ``repro`` module whose source holds a ``>>>`` example, by dotted name."""
    names = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if ">>>" in path.read_text(encoding="utf-8"):
            parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
            names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


DOCTESTED_MODULES = doctested_modules()


@pytest.mark.parametrize("page", DOC_PAGES, ids=[p.name for p in DOC_PAGES])
def test_docs_pages_exist_and_doctests_pass(page):
    results = doctest.testfile(str(page), module_relative=False, optionflags=doctest.NORMALIZE_WHITESPACE)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {page.name}"


def test_docs_tree_is_complete():
    names = {page.name for page in DOC_PAGES}
    assert {"index.md", "api.md", "architecture.md", "cli.md", "theory.md"} <= names


@pytest.mark.parametrize("module_name", DOCTESTED_MODULES)
def test_module_docstring_examples_pass(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, optionflags=doctest.NORMALIZE_WHITESPACE)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module_name}"


def cli_commands() -> list[str]:
    """Every ``python -m repro …`` line of docs/cli.md, in document order."""
    commands = []
    for line in (DOCS_DIR / "cli.md").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("python -m repro "):
            commands.append(line.removeprefix("python -m repro "))
    return commands


def test_cli_reference_has_examples_for_every_subcommand():
    commands = cli_commands()
    used = {shlex.split(command)[0] for command in commands}
    from repro.cli import build_parser

    documented = {
        "generate",
        "analyze",
        "mrc",
        "profile",
        "sweep",
        "partition",
        "online",
        "chain",
        "experiment",
        "metrics",
    }
    assert used == documented
    # and the parser knows no subcommand the docs forgot
    parser_actions = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(parser_actions.choices) == documented


def test_cli_examples_run_in_order(tmp_path, monkeypatch, capsys):
    """Replay the cli.md pipeline in one directory; every command must exit 0."""
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    commands = cli_commands()
    assert commands, "docs/cli.md lost its executable examples"
    for command in commands:
        code = main(shlex.split(command))
        assert code == 0, f"documented command failed: python -m repro {command}"
        capsys.readouterr()  # keep the captured output small
