import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_render_examples_writes_nine_dot_files(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["render_examples.py", "--outdir", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "render_examples.py"), run_name="__main__")
    assert exc.value.code == 0
    names = [f"{p}{view}.dot" for p in ("fig1", "fig2", "b3") for view in ("", "_edge", "_h")]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_text().startswith("digraph")
