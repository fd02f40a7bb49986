"""The package's public names and its allocator setting."""
import ast
import ctypes
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import mppn


def test_all_lists_exactly_the_public_names_the_package_imports():
    # a deleted function cannot leave a stale export behind, nor an
    # imported one go unlisted
    tree = ast.parse(inspect.getsource(mppn))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(mppn.__all__) == len(set(mppn.__all__))
    assert set(mppn.__all__) == {name for name in imported if not name.startswith("_")}
    assert [name for name in mppn.__all__ if not hasattr(mppn, name)] == []


@pytest.mark.skipif(not hasattr(ctypes.pythonapi, "gnu_get_libc_version"), reason="needs glibc")
def test_importing_the_package_keeps_large_arrays_out_of_the_heap():
    # unpinned, glibc raises its mmap threshold to the 16 MiB block freed
    # here and grows the heap, below the program break, for the 9 MiB one.
    # A fresh process, so that no free heap block could hold 9 MiB.
    script = """if True:
        import ctypes
        import numpy as np
        import mppn
        big = np.ones(2 << 20)
        del big
        after = np.ones(9 << 17)
        sbrk = ctypes.CDLL(None).sbrk
        sbrk.restype = ctypes.c_void_p
        print(after.ctypes.data > sbrk(0))
    """
    src = str(pathlib.Path(mppn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == ["True"]
