"""Every `$ wigcorr ... --deterministic` example in README.md reproduces
the output printed under it, byte for byte."""

import shlex
from pathlib import Path

import pytest

from wigcorr import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def deterministic_examples():
    """(argv, expected stdout) of each README example run with
    --deterministic: the command line, then the block's lines up to the
    next command or the end of the fenced block."""
    examples, argv, out = [], None, []
    for line in README.read_text(encoding="utf-8").splitlines():
        if argv is not None and (line.startswith("```") or line.startswith("$ ")):
            examples.append((argv, "".join(out)))
            argv = None
        if line.startswith("$ wigcorr ") and "--deterministic" in line.split():
            argv, out = shlex.split(line)[2:], []
        elif argv is not None:
            out.append(line + "\n")
    return examples


def test_readme_has_the_five_examples():
    commands = [argv[0] for argv, _ in deterministic_examples()]
    assert commands == ["edge", "bulk", "kernel", "oracle", "mc"]


@pytest.mark.parametrize("argv, expected", deterministic_examples(),
                         ids=lambda value: value[0] if isinstance(value, list) else "")
def test_readme_example_is_byte_identical(argv, expected, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
