"""The package surface: `braidkl` resolves its public names lazily, from the
submodule that defines each, on first use."""

import os
import subprocess
import sys
import types

import pytest

import braidkl

PUBLIC_NAMES = [
    "ClassFn",
    "GradedClassFn",
    "Graph",
    "H1Vector",
    "InsufficientDataError",
    "Partition",
    "Poly",
    "RatFn",
    "SeqTable",
    "Surjection",
    "SymFn",
    "b_dim",
    "bell",
    "c1_count",
    "canonical_key",
    "ch",
    "char_poly",
    "class_size",
    "combinat",
    "comp_dim",
    "compose",
    "cone_extend",
    "conf_betti",
    "conjecture_top_check",
    "d_coeff",
    "d_coeff_graph",
    "double_factorial_odd",
    "enumerate_surjections",
    "eq_char_poly",
    "eqkl",
    "eqkl_braid",
    "eqkl_braid_bruteforce",
    "euler_identity",
    "euler_identity_graph",
    "fit_rational",
    "fsmod",
    "graphmat",
    "growth_diagnostic",
    "h1_generation_check",
    "h1_pullback",
    "hom_fs_count",
    "intpoly",
    "kl_braid",
    "kl_graphic",
    "klcore",
    "mn_character",
    "os_character",
    "partitions",
    "polyseries",
    "ratio_diagnostic",
    "row_bound_check",
    "series",
    "set_partition_count_by_type",
    "specht_decompose",
    "specseq",
    "stirling1_unsigned",
    "stirling2",
]


def test_all_is_unchanged():
    assert braidkl.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_is_its_submodule_attribute(name):
    obj = getattr(braidkl, name)
    if isinstance(obj, types.ModuleType):
        assert obj is sys.modules[f"braidkl.{name}"]
    else:
        assert obj.__module__.startswith("braidkl.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    assert name in dir(braidkl)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from braidkl import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    assert all(namespace[name] is getattr(braidkl, name) for name in PUBLIC_NAMES)


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        braidkl.no_such_name
    with pytest.raises(ImportError):
        from braidkl import no_such_name  # noqa: F401


THREAD_PROBE = """
import sys
import threading

import braidkl

assert not [m for m in sys.modules if m.startswith("braidkl.")], sys.modules
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
seen = []


def touch():
    barrier.wait()
    seen.append((braidkl.eqkl_braid, braidkl.Poly, braidkl.fsmod))


threads = [threading.Thread(target=touch) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
import braidkl.eqkl, braidkl.fsmod, braidkl.polyseries

want = (braidkl.eqkl.eqkl_braid, braidkl.polyseries.Poly, braidkl.fsmod)
assert len(seen) == 8 and all(s == want for s in seen), seen
assert all(a is b for s in seen for a, b in zip(s, want))
print("ok")
"""


def test_first_touch_from_threads_resolves_one_object():
    """In a fresh interpreter `import braidkl` loads no submodule, and eight
    threads that first read a name at once all get the same object."""
    src = os.path.dirname(os.path.dirname(braidkl.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", THREAD_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
