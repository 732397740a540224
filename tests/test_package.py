"""What importing the package does: the root alone loads nothing, and the
command line sets the BLAS thread count and keeps OpenSSL's libcrypto
unloaded; each checked in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bihankel

SRC = Path(bihankel.__file__).resolve().parents[1]
HAS_PROC_TASKS = os.path.isdir("/proc/self/task")
HAS_PROC_MAPS = os.path.exists("/proc/self/maps")


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


def run_cli(*argv: str) -> str:
    """Code that runs `cli.main(argv)` with stdout redirected."""
    return ("import contextlib, io, sys; from bihankel import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({list(argv)!r}) == 0\n")


SEARCH = run_cli("search", "--family", "starlike", "--samples", "10")


class TestCliHashlib:
    """`bihankel.cli` keeps `_hashlib`, and with it libcrypto, from loading
    when it is the first to load numpy; `hashlib`, `hmac` and `secrets` then
    run on CPython's built-in digests.  Library imports, and processes that
    loaded numpy or `_hashlib` first, keep the real module."""

    def test_sampling_command_leaves_hashlib_unloaded(self):
        assert fresh(SEARCH + "print('numpy.random' in sys.modules, "
                     "sys.modules['_hashlib'] is None)") == "True True"

    @pytest.mark.skipif(not HAS_PROC_MAPS, reason="needs /proc/self/maps")
    def test_sampling_command_maps_no_libcrypto(self):
        assert fresh(SEARCH + "print('libcrypto' in open('/proc/self/maps').read())") \
            == "False"

    def test_digests_still_work(self):
        out = fresh(SEARCH + "import hashlib, hmac, secrets\n"
                    "print(hashlib.sha256(b'abc').hexdigest(), "
                    "hmac.compare_digest(b'ab', b'ab'), hmac.compare_digest(b'ab', b'ac'), "
                    "len(bytes.fromhex(secrets.token_hex(4))))")
        assert out == ("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad "
                       "True False 4")

    @pytest.mark.parametrize("imports", [
        "bihankel.bounds, numpy.random",
        "numpy, bihankel.cli, numpy.random",
        "_hashlib, bihankel.cli, numpy.random",
    ])
    def test_other_import_orders_keep_hashlib(self, imports):
        assert fresh(f"import sys, types, {imports}; "
                     "print(isinstance(sys.modules['_hashlib'], types.ModuleType))") == "True"

    @pytest.mark.parametrize("argv", [
        ("table", "--family", "both"),
        ("fs-bound", "--family", "convex", "--beta", "0.3", "--mu", "0.5"),
    ])
    def test_closed_form_commands_never_load_numpy_random(self, argv):
        assert fresh(run_cli(*argv) + "print('numpy.random' in sys.modules)") == "False"
