"""The argparse reading of the command line: help, usage and every error.

``citest.cli.main`` reads a well-formed command line itself and comes here
only for the rest, so only this module imports ``argparse``.  It imports
nothing from ``citest.cli``: under ``python -m citest.cli`` that module runs
as ``__main__``, and importing it again would run it twice.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import integer_argument, quoted


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


def _integer(low: int | None = None, high: int | None = None):
    """An argparse type reading ``integer_argument``'s grammar within ``low``..``high``."""

    def parse(text: str) -> int:
        try:
            return integer_argument(text, low, high)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="citest",
        description="citation indices, total-citation estimators, partition statistics",
    )
    common = _Parser(add_help=False)
    # 17 significant digits identify every double
    common.add_argument("--precision", type=_integer(0, 17), default=6,
                        help="significant digits for real-valued output")
    source = _Parser(add_help=False)
    source.add_argument("file")
    source.add_argument("--format", choices=("json", "csv", "lines"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_idx = sub.add_parser("indices", parents=[common, source],
                           help="core index family for one profile")
    style = p_idx.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true")
    style.add_argument("--csv", action="store_true")

    p_est = sub.add_parser("estimate", parents=[common, source],
                           help="total-citation estimate from the h-core")
    p_est.add_argument("--blind", type=_integer(), default=None, metavar="K",
                       help="use only the top K ranks")
    style = p_est.add_mutually_exclusive_group()
    style.add_argument("--ladder", action="store_true",
                       help="emit the shifted-index ladder rows 0..d+1 as CSV")
    style.add_argument("--json", action="store_true")

    p_part = sub.add_parser("partition", parents=[common],
                            help="exact partition computations")
    p_part.add_argument("sub", choices=("count", "durfee-dist", "mode"))
    p_part.add_argument("n", type=_integer())
    p_part.add_argument("--out", default=None)

    p_tab = sub.add_parser("table", parents=[common],
                           help="reproduce a published table from fixtures")
    p_tab.add_argument("table", choices=("1", "2", "5", "8"))
    p_tab.add_argument("--fixtures", default=None, metavar="DIR")
    p_tab.add_argument("--diff", action="store_true")
    return parser
