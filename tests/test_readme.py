"""The README's library quick start runs as written, and its key lists are the reader's."""

import math
import re
from pathlib import Path

import pytest

from robust_oco.adversaries import AdversarySpec
from robust_oco.harness import config
from robust_oco.harness.config import ExperimentConfig, SweepConfig
from robust_oco.protocol import ProtocolConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def my_gradient_stream(t, w):
    """The subgradient of |w - 1| at w, its sign flipped on rounds 300-319."""
    g = 1.0 if w > 1.0 else -1.0
    return -g if 300 <= t < 320 else g


def test_library_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {"my_gradient_stream": my_gradient_stream}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["protocol"].t == 1000
    assert type(namespace["w"]) is float  # the iterate is read as w, a float at d = 1
    assert math.isfinite(namespace["regret"].observed_regret_linear)


@pytest.mark.parametrize("section, cls", [
    ("experiment", ExperimentConfig), ("adversary", AdversarySpec),
    ("protocol", ProtocolConfig), ("sweep", SweepConfig),
])
def test_listed_keys_are_the_keys_the_reader_accepts(section, cls):
    # the README's sentence "The `[section]` keys are `a`, `b` and `c`."
    text = " ".join(README.read_text().split())
    sentence = re.search(rf"The `\[{section}\]` keys are (.*?)[.;]", text).group(1)
    listed = re.findall(r"`(\w+)`", sentence)
    assert listed == [f.name for f in config._ini_fields(cls)]
