from __future__ import annotations

import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_loc():
    spec = importlib.util.spec_from_file_location("loc", ROOT / ".github" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loc_skips_blanks_comments_and_docstrings_only():
    loc = load_loc()
    source = textwrap.dedent(
        '''\
        """Module docstring,
        over two lines."""
        import os  # a trailing comment keeps its line

        # a comment alone


        class A:
            """Class docstring."""

            def f(self):
                """Function
                docstring."""
                text = """a string that is
                not a docstring"""
                return text


        async def g():
            """Async docstring."""
            "a bare string after the docstring"
        '''
    )
    # import, class, def, the two lines of text, return, async def, bare string
    assert loc.count(source) == 8
