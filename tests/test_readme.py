"""README is checked against the code: both configuration examples
load, the "all fields with defaults" block is exactly what the minimal
example resolves to, and each CLI usage line shows exactly its
subcommand's flags."""

import argparse
import json
import re
from pathlib import Path

from fedq.cli import build_parser
from fedq.config import config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def test_config_examples_load_and_defaults_match():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    minimal, full = (json.loads(b) for b in blocks)
    config_from_dict(full)
    assert config_from_dict(minimal).to_json_dict() == full


def test_cli_usage_lines_match_parser():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser_flags = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    usage = re.findall(r"^fedq (\S+)(.*)$", README.read_text(), re.M)
    readme_flags = {cmd: set(re.findall(r"--[a-z][a-z-]*", rest)) for cmd, rest in usage}
    assert len(readme_flags) == len(usage), "one usage line per subcommand"
    assert readme_flags == parser_flags
