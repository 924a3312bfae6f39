"""The README's library quick start, run as written, so the README and the
code cannot drift apart."""

import contextlib
import io
import re
from pathlib import Path

from vbma import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_and_matches_the_exact_posterior():
    match = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no Library quick start block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(match.group(1), str(README), "exec"), {})
    assert float(out.getvalue()) < 0.05  # the printed max |q - exact|


def test_config_grammar_names_exactly_the_known_keys(tmp_path):
    match = re.search(r"### Config file grammar\n.*?```ini\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no config grammar block"
    cfg = tmp_path / "grammar.ini"
    cfg.write_text(match.group(1))
    settings = cli.resolve_settings(cli.build_parser().parse_args(["fit", "--config", str(cfg)]))
    assert {section: set(keys) for section, keys in settings.items()} == {
        section: set(keys) for section, keys in cli.KNOWN_KEYS.items()}
