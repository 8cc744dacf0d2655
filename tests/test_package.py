"""The package's top-level names are the ones the README documents."""

import ast
import re
from pathlib import Path

import varfista

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_sketch_runs_and_names_the_package_api():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    imported = {alias.name for node in ast.walk(ast.parse(blocks[0]))
                if isinstance(node, ast.ImportFrom)
                and node.module == "varfista"
                for alias in node.names}
    called = set(re.findall(r"`varfista\.(\w+)\(", README))
    assert sorted(varfista.__all__) == sorted(imported | called
                                              | {"__version__"})
