"""The suite's pytest settings report a failing hypothesis example as one
failure: the run goes on to the next test and exits 1, not 3."""

import pathlib
import subprocess
import sys
import textwrap

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_example_is_one_failure_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_given.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=1, database=None)
        @given(st.just(0))
        def test_fails(x):
            assert x == 1

        def test_after():
            pass
    """))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_given.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
