"""What importing the package does: the root alone loads nothing, and the
command line sets the BLAS thread count; each checked in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bihankel

SRC = Path(bihankel.__file__).resolve().parents[1]
HAS_PROC_TASKS = os.path.isdir("/proc/self/task")


def fresh(code: str, **env_vars) -> str:
    """stdout of `python -c code` with this checkout's package and no BLAS
    thread count in the environment, apart from `env_vars`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_vars)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout.strip()


class TestLazyPackage:
    def test_import_loads_no_submodule_and_not_numpy(self):
        loaded = fresh("import sys, bihankel; "
                       "print(sorted(m for m in sys.modules "
                       "if m == 'numpy' or m.startswith('bihankel.')))")
        assert loaded == "[]"

    def test_import_exposes_only_the_version(self):
        # each public name is imported from its submodule, never the root
        assert fresh("import bihankel; print(sorted(name for name in vars(bihankel) "
                     "if not name.startswith('_') or name == '__version__'))") \
            == "['__version__']"

    def test_submodule_imports_from_the_package(self):
        assert fresh("import sys; from bihankel import caratheodory as car; "
                     "print(car is sys.modules['bihankel.caratheodory'])") == "True"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
            getattr(bihankel, "nonsense")


class TestCliThreads:
    """`bihankel.cli` sets numpy's BLAS to one thread before numpy loads; a
    library import, or a cli import after numpy, leaves the environment as
    it is."""

    def test_cli_sets_one_thread_when_unset(self):
        assert fresh("import os, bihankel.cli; "
                     "print(os.environ['OPENBLAS_NUM_THREADS'])") == "1"

    def test_cli_keeps_the_callers_thread_count(self):
        assert fresh("import os, bihankel.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
                     OPENBLAS_NUM_THREADS="2") == "2"

    def test_library_import_leaves_the_variable_unset(self):
        assert fresh("import os, bihankel.bounds; "
                     "print(os.environ.get('OPENBLAS_NUM_THREADS'))") == "None"

    def test_cli_after_numpy_leaves_the_variable_unset(self):
        # numpy's thread pool has started, so the variable would only misreport it
        assert fresh("import os, numpy, bihankel.cli; "
                     "print(os.environ.get('OPENBLAS_NUM_THREADS'))") == "None"

    @pytest.mark.skipif(not HAS_PROC_TASKS, reason="needs /proc/self/task")
    def test_cli_process_has_one_thread(self):
        assert fresh("import os, bihankel.cli; "
                     "print(len(os.listdir('/proc/self/task')))") == "1"
