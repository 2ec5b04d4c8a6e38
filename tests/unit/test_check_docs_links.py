"""tools/check_docs_links.py: the docs job's CLI-example smoke parser."""

import importlib.util
import pathlib

_TOOL = (
    pathlib.Path(__file__).resolve().parents[2] / "tools" / "check_docs_links.py"
)
_spec = importlib.util.spec_from_file_location("check_docs_links", _TOOL)
check_docs_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs_links)


def _check(tmp_path, monkeypatch, body):
    doc = tmp_path / "doc.md"
    doc.write_text(f"```\n{body}\n```\n", encoding="utf-8")
    monkeypatch.setattr(check_docs_links, "REPO_ROOT", tmp_path)
    return check_docs_links.check_cli_examples(
        doc, check_docs_links.load_parser()
    )


def test_backgrounded_example_is_parsed_without_the_ampersand(
    tmp_path, monkeypatch
):
    assert _check(
        tmp_path, monkeypatch,
        "python -m repro serve --collector --servers 16 &",
    ) == []


def test_stale_flag_before_the_ampersand_is_still_caught(
    tmp_path, monkeypatch, capsys
):
    errors = _check(
        tmp_path, monkeypatch, "python -m repro serve --no-such-flag &"
    )
    capsys.readouterr()  # argparse's usage message
    assert len(errors) == 1 and "doc.md:2" in errors[0]
