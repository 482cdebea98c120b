"""The argparse reading of the command line: help, usage and every error.

``citest.cli.main`` reads a well-formed command line itself and comes here
only for the rest, so only this module imports ``argparse``.  The grammar
is not stated here: ``build_parser`` builds the parser from the command
table that ``main`` passes in, ``citest.cli._SYNTAX``, which ``main``'s own
reader reads too.  The table is grammar only, each command's help line and
arguments; ``main`` calls ``cmd_<command>`` itself.  This module imports
nothing from ``citest.cli``: under ``python -m citest.cli`` that module runs
as ``__main__``, and importing it again would run it twice.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import quoted


class _Formatter(argparse.HelpFormatter):
    """argparse's help formatter at the width ``shutil.get_terminal_size``
    gives, minus 2, as argparse's own; it reads that width without importing
    ``shutil``, which argparse does for every parser it builds."""

    def __init__(self, prog):
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
            except (AttributeError, ValueError, OSError):  # no stdout, or not a terminal
                columns = 0
        super().__init__(prog, width=(columns or 80) - 2)


class _Parser(argparse.ArgumentParser):
    """argparse, whose messages name a raw argument past 20 characters by its
    size (``a 100000-character argument``) instead of echoing it, and whose
    help is sized by ``_Formatter``; the subparsers that ``add_subparsers``
    makes are of this class too."""

    def __init__(self, *args, formatter_class=_Formatter, **kwargs):
        super().__init__(*args, formatter_class=formatter_class, **kwargs)

    def print_help(self, file=None):
        # argparse's passes over a failed write, and writes to stderr when fd 1
        # is closed (sys.stdout None); here both raise as a closed pipe does,
        # and a pipe whose reader is gone fails at the flush, not at exit
        if (file or sys.stdout) is None:
            raise BrokenPipeError
        print(self.format_help(), end="", file=file, flush=True)

    def parse_known_args(self, args=None, namespace=None):
        self.raw_args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(self.raw_args, namespace)

    def error(self, message):
        # an option may carry its value after '=': --format=VALUE
        texts = {text for arg in self.raw_args for text in (arg, arg.partition("=")[2])}
        for text in sorted(texts, key=len, reverse=True):
            if quoted(text) != repr(text):
                size = quoted(text, "argument")
                message = message.replace(repr(text), size).replace(text, size)
        super().error(message)


def _argparse_type(read):
    """``read``, with its ``ValueError`` raised as argparse's ``ArgumentTypeError``."""

    def parse(text: str):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def build_parser(syntax) -> argparse.ArgumentParser:
    """argparse's parser for ``syntax``, the command table ``citest.cli._SYNTAX``."""
    parser = _Parser(
        prog="citest",
        description="citation indices, total-citation estimators, partition statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, arguments) in syntax.items():
        command_parser = sub.add_parser(command, help=help_line)
        for argument in arguments:
            if isinstance(argument, list):
                group, members = command_parser.add_mutually_exclusive_group(), argument
            else:
                group, members = command_parser, [argument]
            for name, keywords in members:
                if "type" in keywords:
                    keywords = {**keywords, "type": _argparse_type(keywords["type"])}
                group.add_argument(name, **keywords)
    return parser
