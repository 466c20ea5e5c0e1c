"""The README's Library snippet runs as written, with a 1-epoch train."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_snippet():
    """The python block of the README's '## Library' section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_runs(tmp_path, monkeypatch):
    code = library_snippet()
    assert "epochs=30" in code
    monkeypatch.chdir(tmp_path)  # the snippet trains into runs/lib
    scope = {}
    exec(compile(code.replace("epochs=30", "epochs=1"), str(README), "exec"), scope)
    assert (tmp_path / "runs" / "lib" / "metrics.csv").exists()
    br = scope["breakdown"]
    assert br.elbo == br.recon_ll - br.kl_z - br.kl_y
    assert scope["samples"].shape == (16, 1, 16, 16)
