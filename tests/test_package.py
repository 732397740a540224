"""What importing the package does: the root alone loads nothing, the
command line loads numpy only when a command runs, and it sets the BLAS
thread count and keeps OpenSSL's libcrypto unloaded; no command loads
`dataclasses`.  Each is checked in a fresh interpreter."""

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


def run_cli(*argv: str, code: int = 0) -> str:
    """Code that runs `cli.main(argv)` with stdout and stderr redirected and
    asserts its exit code."""
    return ("import contextlib, io, sys; from bihankel import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert cli.main({list(argv)!r}) == {code}\n")


SEARCH = run_cli("search", "--family", "starlike", "--samples", "10")


def are_loaded(*modules: str) -> str:
    """Code that prints whether each of `modules` has run.  A module the CLI
    registered and no code has used yet sits in `sys.modules` unexecuted, as
    an `importlib.util.LazyLoader` module of its own class."""
    return ("import types; print([type(sys.modules.get(m)) is types.ModuleType "
            f"for m in {modules!r}])")


PACKAGE = ("bihankel.bounds", "bihankel.caratheodory", "bihankel.cli", "bihankel.errors",
           "bihankel.functionals", "bihankel.optimizer", "bihankel.series",
           "bihankel.verification")


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
        # a command has run, so numpy and its BLAS have loaded
        assert fresh(SEARCH + "import os; print('numpy' in sys.modules, "
                     "len(os.listdir('/proc/self/task')))") == "True 1"


class TestCliDefersNumpy:
    """`import bihankel.cli` and its argument parsing load the standard
    library and `bihankel.errors` alone; numpy loads when a command runs, and
    each command loads the modules it uses."""

    @pytest.mark.parametrize("first", ["", "numpy, "])
    def test_import_and_parser_run_only_errors(self, first):
        # the same whether or not numpy is loaded already
        out = fresh(f"import sys, {first}bihankel.cli; bihankel.cli.build_parser(); "
                    + are_loaded("numpy", *PACKAGE))
        assert out == str([bool(first), False, False, True, True, False, False, False, False])

    def test_import_registers_every_module(self):
        assert fresh("import sys, bihankel.cli; "
                     "print(sorted(m for m in sys.modules if m.startswith('bihankel.')))") \
            == str(sorted(PACKAGE))

    def test_registered_modules_import_as_usual(self):
        out = fresh("import bihankel.cli as cli, bihankel.bounds\n"
                    "from bihankel.functionals import FamilyId\n"
                    "print(bihankel.bounds is cli.bd, FamilyId is cli.fn.FamilyId, "
                    "bihankel.bounds.h22_bound(FamilyId.CONVEX, 0.0).bound)")
        assert out == "True True 0.3333333333333333"

    def test_module_loaded_before_the_cli_is_kept(self):
        assert fresh("import bihankel.bounds as bd, bihankel.cli as cli; "
                     "print(cli.bd is bd)") == "True"

    @pytest.mark.parametrize("argv,code", [
        (("--help",), 0),
        (("verify", "--help"), 0),
        (("verify", "--nonsense"), 2),
        (("search",), 2),
        (("table", "--format", "xml"), 2),
    ])
    def test_help_and_usage_errors_leave_numpy_unloaded(self, argv, code):
        assert fresh(run_cli(*argv, code=code) + are_loaded("numpy")) == "[False]"

    def test_fs_bound_loads_no_optimizer_or_verification(self):
        out = fresh(run_cli("fs-bound", "--family", "convex", "--mu", "0.5")
                    + are_loaded("numpy", "bihankel.optimizer", "bihankel.verification"))
        assert out == "[True, False, False]"

    def test_table_loads_no_verification(self):
        out = fresh(run_cli("table", "--family", "both")
                    + are_loaded("bihankel.optimizer", "bihankel.verification"))
        assert out == "[True, False]"


class TestCliHashlib:
    """`bihankel.cli` keeps `_hashlib`, and with it libcrypto, from loading
    when it is imported before numpy; `hashlib`, `hmac` and `secrets` then
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


class TestNoDataclasses:
    """The package's records are named tuples, so no command imports
    `dataclasses`."""

    @pytest.mark.parametrize("argv", [
        ("verify", "--family", "both", "--beta", "0.3", "--trials", "2", "--samples", "10"),
        ("table", "--family", "both"),
        ("search", "--family", "convex", "--samples", "10", "--constrain-sum"),
        ("derive", "--trials", "2"),
        ("fs-bound", "--family", "starlike", "--beta", "0.3", "--mu", "0.5"),
    ])
    def test_command_leaves_dataclasses_unloaded(self, argv):
        assert fresh(run_cli(*argv) + "print('dataclasses' in sys.modules)") == "False"
