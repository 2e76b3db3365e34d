"""Command-line interface.

Every subcommand is reproducible: exact arithmetic, fixed seeds, stable
ordering, LF line endings.  Exit codes: 0 success, 1 check failure,
2 usage error (including an ``--out`` that cannot be written, checked
before any work, and a stdout that fails to take a write; a reader that
closes stdout or stderr early is no error),
3 inadmissible input (``zdx.Inadmissible``: pairs, regions, intervals,
budgets, probe points), 4 internal error.  The ``zdx`` group maps
exceptions to codes in one place; subcommands only raise.

Each command imports the library modules it uses when it runs, so a call
loads only what its output needs:

- ``pairs``: ``zdx.pairs`` and ``json``;
- ``bound``, ``audit`` and ``audit-family``: ``zdx.pairs``, ``zdx.exact``
  and ``zdx.density`` (``audit --format json`` also ``json``);
- ``optimize``, ``compare`` and ``plot``: those and ``zdx.hull``, with
  ``json`` or ``csv`` for the formats that need it and ``zdx.svg`` for ``plot``;
- ``hecke-verify``: ``zdx.hecke``;
- ``hm-test``: ``zdx.probes`` and numpy, one stacked pass per shape of its
  random systems, the only command that loads numpy;
- ``mellin-probe`` and ``zeta-probe``: ``zdx.probes`` and ``csv``
  (``zeta-probe`` also ``zdx.pairs``).

``hecke-verify``, ``hm-test``, ``mellin-probe``, ``zeta-probe`` and
``pairs`` do not load ``zdx.exact`` (``rat`` and ``dec_str`` live in the
package root).  ``--help`` and ``--version`` load no library module, and
are written like a command's output, so a closed stdout ends them with exit 0.

The options are parsed here.  Each command declares its options as data
(``_Option``), and ``_Command`` parses them and writes the help and the
usage errors, in the layout and text that ``tests/test_cli.py`` pins.
Only help and usage errors import ``textwrap`` and ``shutil`` (and
``difflib`` for a "Did you mean").
"""

from __future__ import annotations

import io
import math
import os
import sys
import time
from typing import TYPE_CHECKING

from . import DEFAULT_DEPTH, DEFAULT_LIMIT, Inadmissible, __version__, dec_str

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator, Sequence
    from fractions import Fraction

    from .density import BoundCurve
    from .exact import Interval
    from .pairs import ExponentPair

EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_INADMISSIBLE = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    """A usage error: exit 2, after the usage line of the command at
    ``where`` (its path and usage pieces).  A ``bare`` error, about the
    number of values an option takes, has no such line."""

    def __init__(self, message: str, bare: bool = False) -> None:
        super().__init__(message)
        self.bare = bare
        self.where: tuple[str, str] | None = None

    def at(self, path: str, pieces: str) -> UsageError:
        """This error, blamed on the command at ``path`` unless it is bare or blamed."""
        if not self.bare and self.where is None:
            self.where = (path, pieces)
        return self

    def text(self) -> str:
        if self.where is None:
            return f"Error: {self}"
        path, pieces = self.where
        return f"{_usage(path, pieces, _width())}\nTry '{path} --help' for help.\n\nError: {self}"


def _to_devnull(stream) -> None:
    """Point ``stream``'s file descriptor at the null device, so that its
    later writes and the interpreter's last flush are silent."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _echo_err(text: str) -> None:
    """Write ``text`` and a newline to stderr, the one writer of every stderr line.

    A stderr that refuses the write, such as a closed pipe, goes to the null
    device, and the caller goes on to exit with the code it chose.
    """
    try:
        sys.stderr.write(text + "\n")
        sys.stderr.flush()
    except OSError:
        _to_devnull(sys.stderr)


def _fail(code: int, message: str) -> None:
    _echo_err(f"error: {message}")
    sys.exit(code)


def _parse_rat(text: str, label: str) -> Fraction:
    from . import rat

    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{label} must be a rational like 17/18, got {text!r}")


def _parse_pair(text: str) -> ExponentPair:
    from .pairs import ExponentPair

    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--pair expects 'kappa,lambda', got {text!r}")
    k = _parse_rat(parts[0], "kappa")
    l = _parse_rat(parts[1], "lambda")
    return ExponentPair(k, l, word=None)


def _parse_interval(text: str) -> Interval:
    from .density import validate_interval
    from .exact import Interval

    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--interval expects 'lo,hi', got {text!r}")
    lo = _parse_rat(parts[0], "interval endpoint")
    hi = _parse_rat(parts[1], "interval endpoint")
    if lo > hi:
        raise UsageError(f"interval endpoints out of order: {text!r}")
    interval = Interval(lo, hi)
    validate_interval(interval)
    return interval


def _parse_baselines(texts: tuple[str, ...], region: Interval) -> tuple[BoundCurve, ...]:
    from .density import BoundCurve, Provenance
    from .exact import LinFrac

    extra = []
    for text in texts:
        try:
            f = LinFrac.parse(text)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--baseline expects a curve like 4/(8s-5), got {text!r}")
        if f.denominator_at(region.lo) * f.denominator_at(region.hi) <= 0:
            raise Inadmissible(f"--baseline {text!r} has a pole on {region}")
        if f.eval(region.lo) <= 0 or f.eval(region.hi) <= 0:
            raise Inadmissible(f"--baseline {text!r} is not positive on {region}")
        extra.append(BoundCurve(f, region, Provenance(text)))
    return tuple(extra)


def _check_out(out: str) -> str:
    """Reject an unwritable ``--out`` before any work, leaving an existing file as it is."""
    if out != "-":
        existed = os.path.lexists(out)
        try:
            open(out, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ValueError(f"cannot write {out!r}: {exc.strerror or exc}")
        if not existed:
            os.remove(out)
    return out


def _write_out(text: str | Iterable[str], out: str) -> None:
    """Write ``text``, or an iterable of chunks one after another, to ``out``.

    A closed stdout only ends the writing, and another stdout error exits 2;
    either way stdout then goes to the null device, so the last flush is silent.
    """
    chunks = (text,) if isinstance(text, str) else text
    if out == "-":
        for chunk in chunks:
            try:
                sys.stdout.write(chunk)
                sys.stdout.flush()
            except OSError as exc:
                _to_devnull(sys.stdout)
                if isinstance(exc, BrokenPipeError):
                    return
                _fail(EXIT_USAGE, f"cannot write stdout: {exc.strerror or exc}")
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out!r}: {exc.strerror or exc}")


def _to_csv(header: list[str], rows: Iterable[Iterable[object]]) -> str:
    import csv  # here, like json below, so that commands which write neither do not load it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


#: Rows per block of ``_csv_blocks``: about 0.3 MB of text.
_CSV_ROWS = 4096


def _csv_blocks(header: str, count: int, block: Callable[[int, int], str]) -> Iterator[str]:
    """The header line, then ``block(lo, hi)``, the text of rows lo..hi-1, for
    each block of ``_CSV_ROWS`` of the ``count`` rows, so that the writer never
    holds the whole text (12 MB for ``hecke-verify`` at its budget).

    The rows are f-strings or %-formats, 2-3 times faster than
    ``csv.writer``, and are not quoted: numbers, rationals, pair words and
    the fixed baseline labels need none.  A table whose fields can need
    quoting, a user's label or text, is small and goes through ``_to_csv``.
    """
    yield header + "\n"
    for lo in range(0, count, _CSV_ROWS):
        yield block(lo, min(lo + _CSV_ROWS, count))


def _json_text(obj) -> str:
    import json

    return json.dumps(obj, indent=2) + "\n"


def _root_str(root) -> str:
    from .exact import RootBracket, rat_str

    if isinstance(root, RootBracket):
        return f"[{rat_str(root.lo)}, {rat_str(root.hi)}]"
    return rat_str(root)


# ---------------------------------------------------------------------------
# options, help and usage errors
# ---------------------------------------------------------------------------

class _Option:
    """One option as data: its ``flag``, the parameter (``dest``, by default
    the flag's name) that takes its value, its ``kind``, ``default`` and
    ``help``, whether it is ``required``, and a ``check`` that returns the
    value or raises ValueError.  The kinds are ``int`` (at least
    ``minimum``), ``choice`` (one of ``choices``), ``text``, ``flag`` and
    ``many`` (text, repeatable).  The help shows every default but a flag's."""

    def __init__(self, flag: str, kind: str = "text", default=None, help: str = "", *,
                 dest: str | None = None, required: bool = False, minimum: int = 0,
                 choices: tuple[str, ...] = (), check: Callable[[str], str] | None = None):
        self.flag, self.kind, self.default, self.help = flag, kind, default, help
        self.dest, self.required = dest or flag[2:], required
        self.minimum, self.choices, self.check = minimum, choices, check

    def value(self, given):
        """The parameter's value from ``given``, the command line's (None if
        it has none), or from the default."""
        value = self.default if given is None else given
        if value is None:
            if self.required:
                raise UsageError(f"Missing option '{self.flag}'.")
            return () if self.kind == "many" else None
        try:
            if self.kind == "int":
                try:
                    value = int(value)
                except ValueError:
                    raise ValueError(f"{value!r} is not a valid integer range.") from None
                if value < self.minimum:
                    raise ValueError(f"{value} is not in the range x>={self.minimum}.")
            elif self.kind == "choice" and value not in self.choices:
                raise ValueError(f"{value!r} is not one of {', '.join(map(repr, self.choices))}.")
            elif self.kind == "many":
                value = tuple(value)
            return self.check(value) if self.check else value
        except ValueError as exc:
            raise UsageError(f"Invalid value for '{self.flag}': {exc}") from None

    def row(self) -> tuple[str, str]:
        """The option's line in the help: flag and metavar, then help and bracket."""
        metavar = {"int": " INTEGER RANGE", "choice": f" [{'|'.join(self.choices)}]",
                   "flag": ""}.get(self.kind, " TEXT")
        extra = []
        if self.kind != "flag" and self.default is not None:
            shown = ", ".join(self.default) if self.kind == "many" else self.default
            extra.append(f"default: {shown}")
        if self.kind == "int":
            extra.append(f"x>={self.minimum}")
        if self.required:
            extra.append("required")
        text = self.help
        if extra:
            text = f"{text}  [{'; '.join(extra)}]" if text else f"[{'; '.join(extra)}]"
        return self.flag + metavar, text


_HELP = _Option("--help", "flag", help="Show this message and exit.")
_VERSION = _Option("--version", "flag", help="Show the version and exit.")
_OUT = _Option("--out", default="-", help="Output file, or - for stdout.", check=_check_out)


def _split(args: Sequence[str], options: Sequence[_Option], interspersed: bool):
    """The values given in ``args``, by option in the order the options first
    appear, and the arguments left over.  ``--opt v`` and ``--opt=v`` are
    alike, and the last value of an option that is not ``many`` wins.
    Parsing stops at ``--`` and, unless ``interspersed``, at the first
    argument."""
    flags = {option.flag: option for option in options}
    given: dict[_Option, object] = {}
    args, rest = list(args), []
    while args:
        arg = args.pop(0)
        if arg == "--":
            break
        if arg[:1] != "-" or len(arg) == 1:
            if not interspersed:
                args.insert(0, arg)
                break
            rest.append(arg)
            continue
        name, eq, value = arg.partition("=")
        option = flags.get(name)
        if option is None:
            if arg[:2] != "--":  # read as the one-letter option "-x", and there are none
                raise _no_such("option", arg[:2])
            raise _no_such("option", name, flags)
        if option.kind == "flag":
            if eq:
                raise UsageError(f"Option {name!r} does not take a value.", bare=True)
            value = True
        elif not eq:
            if not args:
                raise UsageError(f"Option {name!r} requires an argument.", bare=True)
            value = args.pop(0)
        if option.kind == "many":
            value = [*given.get(option, ()), value]
        given[option] = value  # the last value wins, at the place of the first
    return given, rest + args


def _no_such(kind: str, name: str, known: Iterable[str] = ()) -> UsageError:
    """The error for an unknown option or command, with the known names close to it."""
    message = f"No such {kind} {name!r}."
    if known:
        from difflib import get_close_matches

        close = sorted(get_close_matches(name, known))
        names = ", ".join(map(repr, close))
        if len(close) == 1:
            message += f" Did you mean {names}?"
        elif close:
            message += f" (Did you mean one of: {names}?)"
    return UsageError(message)


def _width() -> int:
    """The help's width: the terminal's columns, ``COLUMNS`` first, less 2, in [50, 78]."""
    import shutil

    return max(min(shutil.get_terminal_size().columns, 80) - 2, 50)


def _wrap(text: str, width: int, indent: str = "", later: str | None = None) -> list[str]:
    import textwrap

    return textwrap.wrap(text, width, initial_indent=indent, replace_whitespace=False,
                         subsequent_indent=indent if later is None else later)


def _usage(path: str, pieces: str, width: int) -> str:
    prefix = f"Usage: {path} "
    return "\n".join(_wrap(pieces, width, prefix, " " * len(prefix)))


def _paragraphs(doc: str) -> list[str]:
    """The paragraphs of a docstring, each on one line."""
    return [" ".join(paragraph.split()) for paragraph in doc.strip().split("\n\n")]


def _rows(rows: list[tuple[str, str]], width: int) -> list[str]:
    """A two-column list at indent 2: a first column of at most 30, a gap of 2."""
    first = min(max(len(term) for term, _ in rows), 30) + 2
    lines = []
    for term, text in rows:
        if len(term) <= first - 2:
            head = f"  {term}".ljust(first + 2)
        else:
            lines.append(f"  {term}")
            head = " " * (first + 2)
        wrapped = _wrap(text, max(width - first - 2, 10))
        lines += [head + wrapped[0], *(" " * (first + 2) + line for line in wrapped[1:])]
    return lines


def _short_help(text: str, limit: int) -> str:
    """A summary of ``text`` in at most ``limit`` characters: its first
    sentence, or as many words as fit before ``...``."""
    words = text.split()
    end = next((i + 1 for i, word in enumerate(words) if word.endswith(".")), len(words))
    if len(" ".join(words[:end])) <= limit:
        return " ".join(words[:end])
    while words and len(" ".join(words)) + 3 > limit:
        words.pop()
    return " ".join(words) + "..."


class _Command:
    """A subcommand: its function, its options and its docstring, which heads its help."""

    group = False
    pieces = "[OPTIONS]"

    def __init__(self, fn: Callable[..., None] | None, options: Sequence[_Option],
                 doc: str | None = None) -> None:
        self.fn, self.options, self.doc = fn, (*options, _HELP), doc or fn.__doc__

    def parse(self, args: Sequence[str], path: str) -> tuple[dict, list[str]] | None:
        """The function's keyword arguments from ``args`` and the arguments
        left over; None once ``--help`` or ``--version`` is written.

        Parse errors come first.  Then ``--help`` and ``--version``, in
        command-line order, and then each option is converted, in
        command-line order and then in declaration order.
        """
        try:
            given, rest = _split(args, self.options, interspersed=not self.group)
            for option in given:
                if option in (_HELP, _VERSION):
                    text = self.help(path) if option is _HELP else f"zdx, version {__version__}"
                    _write_out(text + "\n", "-")
                    return None
            order = [*given, *(o for o in self.options if o not in given)]
            kwargs = {o.dest: o.value(given.get(o)) for o in order if o not in (_HELP, _VERSION)}
            if rest and not self.group:
                s = "s" if len(rest) > 1 else ""
                raise UsageError(f"Got unexpected extra argument{s} ({' '.join(rest)})")
        except UsageError as exc:
            raise exc.at(path, self.pieces)
        return kwargs, rest

    def help(self, path: str) -> str:
        """The help page of the command at ``path``."""
        width = _width()
        doc = "\n\n".join("\n".join(_wrap(p, width, "  ")) for p in _paragraphs(self.doc))
        lines = [_usage(path, self.pieces, width), "", doc, "", "Options:",
                 *_rows([o.row() for o in self.options], width)]
        if self.group:
            limit = width - 6 - max(map(len, self.commands))
            lines += ["", "Commands:", *_rows(
                [(name, _short_help(_paragraphs(self.commands[name].doc)[0], limit))
                 for name in sorted(self.commands)], width)]
        return "\n".join(lines)


class _Zdx(_Command):
    """The ``zdx`` group: the one place that turns exceptions into exit codes."""

    group = True
    pieces = "[OPTIONS] COMMAND [ARGS]..."
    name = "zdx"

    def __init__(self, doc: str) -> None:
        super().__init__(None, (_VERSION,), doc)
        self.commands: dict[str, _Command] = {}

    def command(self, name: str, *options: _Option) -> Callable:
        """Register the decorated function as the subcommand ``name`` with ``options``."""
        def register(fn: Callable[..., None]) -> Callable[..., None]:
            self.commands[name] = _Command(fn, options)
            return fn

        return register

    def main(self, args: Sequence[str] | None = None, prog_name: str | None = None,
             standalone_mode: bool = True) -> int:
        """Run ``zdx`` on ``args``, by default ``sys.argv[1:]``, and exit with
        its code; with ``standalone_mode`` off, return the code of a run
        that does not exit, and raise a usage error."""
        try:
            code = self._run(sys.argv[1:] if args is None else list(args), prog_name or self.name)
        except UsageError as exc:
            if not standalone_mode:
                raise
            _echo_err(exc.text())
            code = EXIT_USAGE
        except KeyboardInterrupt:
            if not standalone_mode:
                raise
            _echo_err("\nAborted!")
            code = 1
        if not standalone_mode:
            return code
        sys.exit(code)

    __call__ = main

    def _run(self, args: list[str], prog: str) -> int:
        if not args:
            _echo_err(self.help(prog))
            return EXIT_USAGE
        parsed = self.parse(args, prog)
        if parsed is None:
            return 0
        if not parsed[1]:
            raise UsageError("Missing command.").at(prog, self.pieces)
        name, *args = parsed[1]
        command = self.commands.get(name)
        if command is None:
            # a name that starts like an option is parsed as the group's options first
            if name[:1] and not name[:1].isalnum() and self.parse(parsed[1], prog) is None:
                return 0
            raise _no_such("command", name, self.commands).at(prog, self.pieces)
        path = f"{prog} {name}"
        parsed = command.parse(args, path)
        if parsed is None:
            return 0
        try:
            command.fn(**parsed[0])
        except UsageError as exc:
            raise exc.at(path, command.pieces)
        except Inadmissible as exc:
            _fail(EXIT_INADMISSIBLE, str(exc))
        except Exception as exc:
            _fail(EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}")
        return 0


cli = _Zdx("Exact workbench for exponent-pair zero-density bounds.")


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------

@cli.command("pairs",
             _Option("--depth", "int", DEFAULT_DEPTH, "Maximum A/B word length."),
             _Option("--prune", "flag", help="No effect: the family is already Pareto-minimal."),
             _OUT)
def cmd_pairs(depth: int, prune: bool, out: str) -> None:
    """Generate the exponent-pair family as JSON."""
    from .pairs import generate_pairs

    _write_out(generate_pairs(depth).to_json(), out)


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

@cli.command("bound",
             _Option("--pair", help="kappa,lambda (exact rationals).", dest="pair_text",
                     required=True),
             _Option("--sigma", help="Evaluation point (exact rational).", dest="sigma_text",
                     required=True),
             _OUT)
def cmd_bound(pair_text: str, sigma_text: str, out: str) -> None:
    """One-line report of A(sigma) and E(sigma) for a pair."""
    from .density import exponent_curve, regions_for
    from .exact import rat_str

    pair = _parse_pair(pair_text)
    sigma = _parse_rat(sigma_text, "--sigma")
    region1, region2 = regions_for(pair)
    in1, in2 = region1.contains(sigma), region2.contains(sigma)
    if not in1 and not in2:
        raise Inadmissible(
            f"sigma = {rat_str(sigma)} outside the validity regions "
            f"{region1} and {region2} of pair {pair}"
        )
    region = 1 if in1 else 2
    curve = exponent_curve(pair, region)
    a = curve.eval_A(sigma)
    e = curve.eval_E(sigma)
    note = " note=region-boundary" if (in1 and in2) else ""
    line = (
        f"sigma={rat_str(sigma)} region={region} A={rat_str(a)} A_dec={dec_str(a)} "
        f"E={rat_str(e)} E_dec={dec_str(e)}{note}\n"
    )
    _write_out(line, out)


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

@cli.command("optimize",
             _Option("--depth", "int", DEFAULT_DEPTH),
             _Option("--interval", default="17/18,1", dest="interval_text"),
             _Option("--resolution", "int", 256,
                     "Grid intervals of the CSV table (JSON segments are exact).", minimum=1),
             _Option("--format", "choice", "csv", dest="fmt", choices=("csv", "json")),
             _OUT)
def cmd_optimize(depth: int, interval_text: str, resolution: int, fmt: str, out: str) -> None:
    """Minimize E(sigma) over a pair family plus baselines."""
    from .density import optimize, piecewise_to_json_obj, provenance_fields, validate_resolution
    from .pairs import generate_pairs

    interval = _parse_interval(interval_text)
    # in both formats, before the family is generated
    validate_resolution(resolution)
    family = generate_pairs(depth)
    bound = optimize(family, interval)
    if fmt == "json":
        _write_out(_json_text(piecewise_to_json_obj(bound)), out)
        return
    from fractions import Fraction

    from .exact import rat_str

    xs, w = interval.integer_grid(resolution)
    winners = {id(seg): ",".join(provenance_fields(seg.curve.provenance).values())
               for seg in bound.segments}

    def block(lo: int, hi: int) -> str:
        rows = []
        for x, seg in bound.segments_along(xs[lo:hi], w):
            sigma = Fraction(x, w)
            a = seg.curve.eval_A(sigma)
            rows.append(f"{rat_str(sigma)},{a.numerator},{a.denominator},{dec_str(a)},"
                        f"{dec_str(a * (1 - sigma))},{winners[id(seg)]}\n")
        return "".join(rows)

    header = "sigma,A_num,A_den,A_decimal,E_decimal,winner_kappa,winner_lambda,winner_word,region"
    _write_out(_csv_blocks(header, len(xs), block), out)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

@cli.command("compare",
             _Option("--depth", "int", 3),
             _Option("--interval", default="17/18,1", dest="interval_text"),
             _Option("--baseline", "many", help="Extra baseline A-curve (repeatable), e.g. "
                     "'4/(8s-5)'.", dest="baseline_texts"),
             _Option("--format", "choice", "text", dest="fmt", choices=("csv", "json", "text")),
             _OUT)
def cmd_compare(depth: int, interval_text: str, baseline_texts: tuple[str, ...], fmt: str,
                out: str) -> None:
    """Optimized bound vs baselines: segments and exact crossovers."""
    from .density import baseline_crossovers, baseline_curves, optimize
    from .exact import rat_str, root_key
    from .pairs import generate_pairs

    interval = _parse_interval(interval_text)
    family = generate_pairs(depth)
    bound = optimize(family, interval)
    comparisons = baseline_curves() + _parse_baselines(baseline_texts, interval)

    rows: list[dict[str, str]] = []
    for seg in bound.segments:
        rows.append({
            "kind": "segment",
            "sigma": "",
            "sigma_decimal": "",
            "lo": rat_str(seg.region.lo),
            "hi": rat_str(seg.region.hi),
            "left": "",
            "right": seg.curve.provenance.label,
            "curve": str(seg.curve.A),
        })
    for prev, cur in zip(bound.segments, bound.segments[1:]):
        x = cur.region.lo
        rows.append({
            "kind": "boundary",
            "sigma": rat_str(x),
            "sigma_decimal": dec_str(x),
            "lo": "", "hi": "",
            "left": prev.curve.provenance.label,
            "right": cur.curve.provenance.label,
            "curve": "",
        })
    for seg, base, root in baseline_crossovers(bound, comparisons):
        rows.append({
            "kind": "baseline-crossover",
            "sigma": _root_str(root),
            "sigma_decimal": dec_str(root_key(root)),
            "lo": "", "hi": "",
            "left": seg.curve.provenance.label,
            "right": base.provenance.label,
            "curve": "",
        })

    if fmt == "json":
        _write_out(_json_text(rows), out)
    elif fmt == "csv":
        header = ["kind", "sigma", "sigma_decimal", "lo", "hi", "left", "right", "curve"]
        _write_out(_to_csv(header, [[r[h] for h in header] for r in rows]), out)
    else:
        lines = []
        for r in rows:
            if r["kind"] == "segment":
                lines.append(f"segment [{r['lo']}, {r['hi']}]  {r['right']}  A = {r['curve']}")
            elif r["kind"] == "boundary":
                lines.append(f"boundary at sigma = {r['sigma']}  ({r['left']} -> {r['right']})")
            else:
                lines.append(
                    f"crossover at sigma = {r['sigma']}  ({r['left']} meets {r['right']})"
                )
        _write_out("\n".join(lines) + "\n", out)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _audit_report_obj(report) -> dict:
    from .exact import rat_str

    pair, terms = report.pair, []
    for t in report.terms:
        terms.append({
            "label": t.label,
            "numerator": str(t.num),
            "relation": "achieves-E" if t.achieves else "below-E",
            "certificate": t.diff_cert.kind,
            "equality_points": [
                _root_str(r) for r in t.diff_cert.roots
            ],
        })
    return {
        "pair": {"kappa": rat_str(pair.kappa), "lambda": rat_str(pair.lam)},
        "region_index": report.region_index,
        "region": {"lo": rat_str(report.region.lo), "hi": rat_str(report.region.hi)},
        "y_exponent": str(report.y),
        "t0_exponent_in_N": str(report.t0_exponent),
        "shared_denominator": str(report.denominator),
        "terms": terms,
        "passed": report.passed,
    }


@cli.command("audit",
             _Option("--pair", help="kappa,lambda (exact rationals).", dest="pair_text",
                     required=True),
             _Option("--region", "choice", "both", dest="region_text", choices=("1", "2", "both")),
             _Option("--format", "choice", "text", dest="fmt", choices=("text", "json")),
             _OUT)
def cmd_audit(pair_text: str, region_text: str, fmt: str, out: str) -> None:
    """Certify the exponent balance of both branches for one pair."""
    from .density import EmptyRegion, audit_balance, continuity_check
    from .exact import rat_str

    pair = _parse_pair(pair_text)
    regions = (1, 2) if region_text == "both" else (int(region_text),)
    reports = []
    for region in regions:
        try:
            report = audit_balance(pair, region)
        except EmptyRegion as exc:
            if len(regions) == 1:
                raise  # an audit that certifies nothing is inadmissible
            # at most one region of a pair with kappa < 1/3 is empty
            _echo_err(f"region {region}: skipped ({exc})")
            continue
        if not report.passed:
            v = report.violation
            _fail(
                EXIT_CHECK_FAILURE,
                f"balance violation in region {region}: term {v.term} "
                f"at sigma = {rat_str(v.witness)}",
            )
        reports.append(report)
    if len(regions) == 2:
        cont = continuity_check(pair)
        if cont.status == "mismatch":
            _fail(
                EXIT_CHECK_FAILURE,
                f"continuity mismatch at sigma = {rat_str(cont.sigma_star)}: {cont.note}",
            )
    if fmt == "json":
        _write_out(_json_text([_audit_report_obj(r) for r in reports]), out)
        return
    lines = []
    for r in reports:
        lines.append(
            f"pair {rat_str(pair.kappa)},{rat_str(pair.lam)} region {r.region_index} "
            f"{r.region}: {'PASS' if r.passed else 'FAIL'}"
        )
        lines.append(f"  Y = T^y with y = {r.y}; T0 exponent in N = {r.t0_exponent}")
        for t in r.terms:
            status = "= E identically" if t.achieves else "<= E"
            pts = ", ".join(_root_str(x) for x in t.diff_cert.roots)
            tight = f" (tight at {pts})" if pts and not t.achieves else ""
            lines.append(f"  {t.label}: ({t.num}) / ({r.denominator}) {status}{tight}")
    _write_out("\n".join(lines) + "\n", out)


@cli.command("audit-family",
             _Option("--depth", "int", DEFAULT_DEPTH, "Maximum A/B word length."),
             _Option("--verbose", "flag", help="One status line per audited pair."))
def cmd_audit_family(depth: int, verbose: bool) -> None:
    """Audit a pair family: balance and continuity.

    Every pair with 0 < kappa < 1/3 is audited; exits 1 if any check fails.
    """
    from .density import audit_family
    from .pairs import generate_pairs

    family = generate_pairs(depth)
    start = time.perf_counter()
    result = audit_family(family, verbose=verbose)
    elapsed = time.perf_counter() - start
    summary = (
        f"depth {depth}: {len(family)} pairs, {result.audited} region audits passed, "
        f"{result.skipped} pairs outside (0, 1/3), {elapsed:.2f}s"
    )
    _write_out("\n".join([*result.lines, summary, ""]), "-")
    if result.failed:
        sys.exit(EXIT_CHECK_FAILURE)


# ---------------------------------------------------------------------------
# hecke-verify
# ---------------------------------------------------------------------------

@cli.command("hecke-verify", _Option("--limit", "int", DEFAULT_LIMIT, minimum=1), _OUT)
def cmd_hecke(limit: int, out: str) -> None:
    """Tau table checks; CSV of n, tau, m, convolution value."""
    from .hecke import verify_table

    rep = verify_table(limit)
    tau, m, conv = rep.table.tau, rep.mollifier.m, rep.convolution

    def block(lo: int, hi: int) -> str:
        # row i is n = i + 1; %-formatting of the row tuple gives an f-string's bytes, faster
        return "".join(["%d,%d,%d,%d\n" % row for row in zip(
            range(lo + 1, hi + 1), tau[lo + 1:hi + 1], m[lo + 1:hi + 1], conv[lo + 1:hi + 1])])

    _write_out(_csv_blocks("n,tau,m,convolution_value", limit, block), out)
    _echo_err(
        f"limit={limit} convolution_failures={len(rep.convolution_failures)} "
        f"recursion_failures={len(rep.recursion_failures)} "
        f"multiplicativity_failures={len(rep.multiplicativity_failures)} "
        f"deligne_ok={rep.deligne.ok} deligne_max_ratio={rep.deligne.max_ratio_decimal}"
    )
    if not rep.ok:
        sys.exit(EXIT_CHECK_FAILURE)


# ---------------------------------------------------------------------------
# hm-test
# ---------------------------------------------------------------------------

@cli.command("hm-test",
             _Option("--seed", "int", 1),
             _Option("--trials", "int", 10_000, minimum=1),
             _OUT)
def cmd_hm(seed: int, trials: int, out: str) -> None:
    """Random-system harness for the bilinear large-values inequality."""
    from .probes import hm_random_trials

    rep = hm_random_trials(trials, seed)
    rows = rep.rows

    def block(lo: int, hi: int) -> str:
        return "".join([f"{i},{d},{r},{lhs:.17g},{rhs:.17g},{rel:.17g}\n"
                        for i, (d, r, lhs, rhs, rel) in enumerate(rows[lo:hi], lo)])

    _write_out(_csv_blocks("trial,dim,r,lhs,rhs,rel_slack", len(rows), block), out)
    _echo_err(
        f"trials={trials} seed={seed} max_rel_slack={rep.max_rel_slack:.3e} "
        f"worst_trial={rep.worst_trial}"
    )
    if not rep.ok:
        sys.exit(EXIT_CHECK_FAILURE)


# ---------------------------------------------------------------------------
# mellin-probe
# ---------------------------------------------------------------------------

def _worst(values: list[float]) -> float:
    """The largest value, or NaN if any is NaN (``max`` may drop a NaN)."""
    return math.nan if any(map(math.isnan, values)) else max(values)


@cli.command("mellin-probe",
             _Option("--x", "many", ("1/2", "1", "2"), "Positive evaluation point (repeatable).",
                     dest="x_texts"),
             _OUT)
def cmd_mellin(x_texts: tuple[str, ...], out: str) -> None:
    """Gamma-kernel quadrature recovery of exp(-x)."""
    from .probes import mellin_probe

    results = []
    for text in x_texts:
        try:
            exact_x = _parse_rat(text, "--x")
            if exact_x <= 0:
                raise UsageError(f"--x must be positive, got {text!r}")
            x = float(exact_x)
        except OverflowError:
            raise Inadmissible(f"the probe at x = {text} overflows the floating-point range")
        if x == 0.0:
            raise Inadmissible(f"x = {text} underflows the floating-point range")
        results.append(mellin_probe(x))
    rows = (
        [text, f"{r.value:.17g}", f"{r.target:.17g}", f"{r.abs_error:.17g}",
         f"{r.imag_residual:.17g}"]
        for text, r in zip(x_texts, results)
    )
    _write_out(
        _to_csv(["x", "value", "target", "abs_error", "imag_residual"], rows), out
    )
    errors = [r.abs_error for r in results]
    imags = [r.imag_residual for r in results]
    _echo_err(f"max_abs_error={_worst(errors):.3e} max_imag_residual={_worst(imags):.3e}")
    if not all(r.ok for r in results):
        sys.exit(EXIT_CHECK_FAILURE)


# ---------------------------------------------------------------------------
# zeta-probe
# ---------------------------------------------------------------------------

@cli.command("zeta-probe",
             _Option("--pair", default="1/14,11/14", dest="pair_text",
                     help="Pair fixing sigma0 = lambda - kappa and the ratio exponent kappa."),
             _OUT)
def cmd_zeta(pair_text: str, out: str) -> None:
    """Growth scan of zeta on the line sigma0 = lambda - kappa (report only)."""
    from .probes import zeta_growth_scan

    pair = _parse_pair(pair_text)
    rows = zeta_growth_scan(float(pair.lam - pair.kappa), float(pair.kappa))
    out_rows = [[f"{t:.17g}", f"{z:.17g}", f"{ratio:.17g}"] for t, z, ratio in rows]
    _write_out(_to_csv(["t", "abs_zeta", "ratio"], out_rows), out)


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

@cli.command("plot",
             _Option("--depth", "int", 3),
             _Option("--interval", default="17/18,1", dest="interval_text"),
             _OUT)
def cmd_plot(depth: int, interval_text: str, out: str) -> None:
    """SVG of the optimized E(sigma) against the baselines."""
    from .density import baseline_curves, optimize
    from .pairs import generate_pairs
    from .svg import render_curves_svg

    interval = _parse_interval(interval_text)
    family = generate_pairs(depth)
    bound = optimize(family, interval)
    _write_out(render_curves_svg(bound, baseline_curves(), interval), out)


def main() -> None:
    cli(prog_name="zdx")


if __name__ == "__main__":
    main()
