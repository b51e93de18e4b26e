"""The README's library quick start runs as written."""

import math
import re
from pathlib import Path

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
