"""README's examples, run or parsed, so that a renamed option or a moved
number fails here instead of going stale in the docs."""

import pathlib
import re
import shlex

import pytest

from spectral_decay import cli

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    """The one ```lang block of README's "## section"."""
    text = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(rf"```{lang}\n(.*?)```", text, re.S)
    return block


def test_library_sketch_runs_and_states_its_numbers():
    # every "expression = number" in the sketch's comments, to the digits shown
    sketch = _block("Library sketch", "python")
    scope = {}
    exec(compile(sketch, "README.md", "exec"), scope)
    comments = " ".join(line.split("#", 1)[1] for line in sketch.splitlines() if "#" in line)
    stated = re.findall(r"([\w/\[\]]+) = (-?\d+\.\d+)", comments)
    assert [expr for expr, _ in stated] == ["alpha", "1/mu[0]", "1/mu_alpha"]
    for expr, shown in stated:
        assert f"{eval(expr, scope):.{len(shown.split('.')[1])}f}" == shown, expr


def _commands() -> list:
    """The argv of each spectral-decay line of README's Command line section."""
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("spectral-decay ")]


@pytest.mark.parametrize("argv", _commands(), ids=lambda argv: argv[0])
def test_command_line_example_parses(argv, monkeypatch):
    def no_file(*args, **kwargs):
        pytest.fail("parsing opened a file")

    monkeypatch.setattr("builtins.open", no_file)
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0] and callable(args.func)
