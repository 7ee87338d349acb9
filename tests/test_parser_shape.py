"""The shape of the command-line parser, pinned against a golden file.

For every subcommand, in registration order, the test lists its help line
and each of its actions in order: option strings, dest, default,
required, choices, type, nargs and help.  A change to any flag, its
position or its wording shows up as a diff against
``tests/golden/parser_shape.json``.  The ``--help`` text itself is not
pinned, because argparse's wording differs between Python versions and
with the terminal width.

Regenerate the file, only when a parser change is intended, with

    PYTHONPATH=src python tests/test_parser_shape.py
"""

import argparse
import json
import pathlib

from whlink.cli import build_parser

GOLDEN = pathlib.Path(__file__).parent / "golden" / "parser_shape.json"


def _action(action):
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "required": action.required,
        "choices": None if action.choices is None else list(action.choices),
        "type": None if action.type is None else action.type.__name__,
        "nargs": action.nargs,
        "help": action.help,
    }


def parser_shape():
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    helps = {a.dest: a.help for a in sub._choices_actions}
    return [
        {"command": name, "help": helps[name], "actions": [_action(a) for a in p._actions]}
        for name, p in sub.choices.items()
    ]


def render():
    return json.dumps(parser_shape(), indent=2, sort_keys=True) + "\n"


def test_parser_shape():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
