"""README's Python examples run as written, and the quick start's claim holds."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for code in blocks:
            exec(compile(code, str(README), "exec"), namespace)
    ledger, params, stats = namespace["ledger"], namespace["params"], namespace["stats"]
    stack_bound = namespace["stack_bound"]
    # "every comparator's realized regret stays below the closed-form bound"
    for w in (0.0, 1.0, -10.0):
        assert ledger.regret(w) <= stack_bound("leashed", params, stats, abs(w))
