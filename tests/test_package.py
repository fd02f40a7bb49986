"""The package's public names."""
import ast
import inspect

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
