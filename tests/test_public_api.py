"""The package exports exactly the README's library example, the errors and the version."""

import inspect
import re
from pathlib import Path

import kgchains

README = Path(__file__).resolve().parents[1] / "README.md"
ERRORS = {"DataError", "KgchainsError", "NumericError", "UsageError"}


def readme_imports():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"from kgchains import \((.*?)\)", section, re.DOTALL).group(1)
    return {name.strip() for name in block.split(",") if name.strip()}


def test_readme_imports_resolve():
    names = readme_imports()
    assert "run_mode" in names
    namespace = {}
    exec(f"from kgchains import {', '.join(sorted(names))}", namespace)  # raises if one is missing
    assert names <= namespace.keys()


def test_public_names_are_the_readme_imports_errors_and_version():
    public = {
        name for name, value in vars(kgchains).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == readme_imports() | ERRORS
    assert isinstance(kgchains.__version__, str)
