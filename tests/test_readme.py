"""README's configuration examples are checked against the code: both
load, and the "all fields with defaults" block is exactly what the
minimal example resolves to."""

import json
import re
from pathlib import Path

from fedq.config import config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def test_config_examples_load_and_defaults_match(monkeypatch):
    monkeypatch.delenv("FEDQ_SEED", raising=False)
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    minimal, full = (json.loads(b) for b in blocks)
    config_from_dict(full)
    assert config_from_dict(minimal).to_json_dict() == full
