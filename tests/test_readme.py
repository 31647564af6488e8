"""Every `$ wigcorr ... --deterministic` example in README.md reproduces
the output printed under it, byte for byte, and every Python quick-start
block prints the lines its comments document."""

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


def python_examples():
    """(source, documented lines) of each ```python block of README.md. A
    print call's line is documented by the comment after it on the same
    line, or by a comment line right below it."""
    examples, source = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line == "```python":
            source = []
        elif source is not None and line.startswith("```"):
            documented, previous = [], ""
            for code in source:
                if "print(" in code and "  # " in code:
                    documented.append(code.split("  # ", 1)[1].strip())
                elif code.startswith("# ") and "print(" in previous:
                    documented.append(code[2:])
                previous = code
            examples.append(("\n".join(source) + "\n", documented))
            source = None
        elif source is not None:
            source.append(line)
    return examples


def test_readme_python_blocks_document_three_lines():
    assert [len(lines) for _, lines in python_examples()] == [2, 1]


@pytest.mark.parametrize("source, documented", python_examples(),
                         ids=lambda value: value.split()[1] if isinstance(value, str) else "")
def test_readme_python_block_prints_its_documented_lines(source, documented, capsys):
    exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == documented
