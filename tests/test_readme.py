import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    # the block runs as written, so the docs cannot name a deleted function
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README.md has no Quick start python block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    rate, m_required = capsys.readouterr().out.split()
    assert float(rate) > 0.0 and int(m_required) > 0
