import os
import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_render_examples_writes_nine_dot_files(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["render_examples.py", "--outdir", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "render_examples.py"), run_name="__main__")
    assert exc.value.code == 0
    names = [f"{p}{view}.dot" for p in ("fig1", "fig2", "b3") for view in ("", "_edge", "_h")]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_text().startswith("digraph")


def test_benchmark_tracer_wraps_the_cli(tmp_path):
    # the benchmark's tracer wraps entry points by name and binds
    # max_k_antichain_union's oracle_threshold by name; a renamed entry point
    # fails install(), a dropped parameter makes the traced commands exit 3
    code = textwrap.dedent(
        f"""
        import spans
        tracer = spans.install()
        from edgeposets import cli
        out = {str(tmp_path)!r}
        assert cli.main(["check", "bn:3", "--checks=peck,sperner", "--out", out + "/check.json"]) == 0
        assert cli.main(["quotient", "--group", "cyclic:4", "--n", "4", "--out", out + "/q.json"]) == 0
        summary = tracer.summary()
        assert summary["peck.max_k_antichain_union.calls"] > 0
        # quotient records read H(B_n)/G's rank vector off E(B_n)/G's
        assert summary["edges.h_poset.calls"] == 0
        assert summary["peck.lefschetz_power_rank.calls"] > 0
        # the scd check decomposes the H(B_3) that the view built
        assert cli.main(["check", "bn:3", "--hpos", "--checks=scd", "--out", out + "/h.json"]) == 0
        assert tracer.summary()["edges.h_poset.calls"] == 1
        # Lefschetz ranks are certified mod p: no dense power is ranked
        before = tracer.summary()["peck.lefschetz_power_rank.calls"]
        assert cli.main(["check", "bn:4", "--edge", "--checks=unitary-peck", "--out", out + "/u.json"]) == 0
        summary = tracer.summary()
        assert summary["peck.ExactMatrix.rank.calls"] == 0
        assert summary["peck.lefschetz_power_rank.calls"] > before
        """
    )
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_test_module_collects():
    # a module that fails to import is reported as a collection error, which
    # a run with --continue-on-collection-errors would otherwise pass over
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "error" not in proc.stdout.splitlines()[-1].lower(), proc.stdout
