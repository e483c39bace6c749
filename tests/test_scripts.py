import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["make_golden.py", "make_fixtures.py", "tree_digest.py"])
def test_a_script_imports_the_package_of_its_checkout(script, tmp_path):
    """Each script loads with no ``PYTHONPATH`` and from any directory.

    The script is run under another name than ``__main__``, so ``main()``
    does not run and no file is written.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    probe = ("import runpy, sys; "
             f"runpy.run_path({str(ROOT / 'scripts' / script)!r}, run_name='probe'); "
             "print(sys.modules['cisolver'].__file__)")
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert pathlib.Path(done.stdout.strip()) == ROOT / "src" / "cisolver" / "__init__.py"
