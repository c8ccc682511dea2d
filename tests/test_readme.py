import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # the first python block of README.md, run as written, so the documented API
    # (read_container(blob) == graph included) cannot drift from the code
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(block, {})
