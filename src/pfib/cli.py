"""Command line front end.

Subcommands: forward, extend-left, reversed, green-tao, verify-bfile.
Exit codes: 0 success, 2 usage or input error, 3 bound or search-limit
exhaustion, 4 verification mismatch, 130 interrupted, 141 stdout closed
(nothing more is printed; 128 + SIGPIPE, as a shell reports that kill).

Each `cmd_*` writes nothing: it validates by raising and returns
`(exit_code, inputs, result, plain_text)`, for an exhausted search or a
mismatch too.  `main` owns stdout.  It times the call, maps only errors to
stderr (ValueError, CheckpointError and OSError to an `error: ...` line and
exit 2, an interrupt to exit 130) and prints either `plain_text` or, under
`--format records`, one JSON record `{"command", "inputs", "result",
"timing"}` with every potentially large integer as a decimal string.
`forward` and `reversed` stream each term through the `args.on_term` that
`main` builds: in plain format as words on one line, which `main` ends on
every exit, on a result with the command's plain text as its tail, so the
terms found before an error stay on stdout; under `--format records`,
`reversed` writes one `"event": "term"` record per term and `forward` only
its one final record.
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace

from . import seqcore
from .searchctl import CheckpointError
from .seqcore import (
    ForwardStatus,
    PrimeAp,
    ReversedStatus,
    Seed,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_MISMATCH = 4
EXIT_INTERRUPTED = 130
EXIT_CLOSED = 141  # 128 + SIGPIPE

# what every cmd_* returns: (exit_code, inputs, result, plain_text)
_Outcome = tuple[int, dict, dict, str]


def _resolve_workers(cli_value: int | None) -> int:
    # the CPUs this process may run on, where the platform says which
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if cli_value is None:
        return cpus
    if cli_value < 1:
        raise ValueError(f"workers must be positive, got {cli_value}")
    # a process pool forks all its workers at its first shard
    if cli_value > cpus:
        raise ValueError(
            f"workers must be at most {cpus}, the CPU count, got {cli_value}"
        )
    return cli_value


def _forward_suffix(seq) -> str:
    if seq.status is ForwardStatus.TERMINATED:
        return f"terminated: {seq.final_sum}"
    if seq.status is ForwardStatus.CONSTANT:
        return "constant"
    return f"truncated: {seq.limit}"


def cmd_forward(args) -> _Outcome:
    seed = Seed(int(args.p1), int(args.p2))
    # a forward run is one record, so only a plain line streams its terms
    on_term = None if args.format == "records" else args.on_term
    seq = seqcore.generate_forward(seed, args.max_terms, on_term=on_term)
    inputs = {"p1": str(seed.p1), "p2": str(seed.p2), "max_terms": str(args.max_terms)}
    result = {"terms": [str(t) for t in seq.terms], "status": seq.status.value}
    if seq.final_sum is not None:
        result["final_sum"] = str(seq.final_sum)
    if seq.limit is not None:
        result["limit"] = str(seq.limit)
    return EXIT_OK, inputs, result, f" | {_forward_suffix(seq)}"


def cmd_extend_left(args) -> _Outcome:
    p1, p2 = int(args.p1), int(args.p2)
    inputs = {"p1": str(p1), "p2": str(p2), "method": args.method}
    if args.method == "crt":
        p0, system = seqcore.extend_left_crt(p1, p2)
        index = (p0 - system.solution) // system.combined_modulus
        result = {
            "p0": str(p0),
            "system": [
                {"residue": str(r), "modulus": str(m)} for r, m in system.congruences
            ],
            "solution": str(system.solution),
            "combined_modulus": str(system.combined_modulus),
            "progression_index": index,
        }
        text = "\n".join([
            str(p0),
            "system: " + ", ".join(f"{r} mod {m}" for r, m in system.congruences),
            f"solution: {system.solution} mod {system.combined_modulus}",
            f"progression index: {index}",
        ])
        return EXIT_OK, inputs, result, text
    inputs["bound"] = str(args.bound)
    p0 = seqcore.extend_left_minimal(p1, p2, args.bound)
    if p0 is None:
        result = {"p0": None, "status": "bound_exhausted", "bound": str(args.bound)}
        return EXIT_EXHAUSTED, inputs, result, f"no candidate <= {args.bound}"
    return EXIT_OK, inputs, {"p0": str(p0)}, str(p0)


def cmd_reversed(args) -> _Outcome:
    seed = Seed(int(args.p), int(args.q))
    workers = _resolve_workers(args.workers)
    if args.terms < 2:
        raise ValueError(f"--terms must be at least 2, got {args.terms}")
    if args.bound < 1:
        raise ValueError(f"--bound must be positive, got {args.bound}")
    seq = seqcore.generate_reversed(
        seed,
        args.terms,
        args.bound,
        workers=workers,
        checkpoint_path=args.checkpoint,
        on_term=args.on_term,
    )
    inputs = {
        "p": str(seed.p1),
        "q": str(seed.p2),
        "terms": str(args.terms),
        "bound": str(args.bound),
        "workers": str(workers),
    }
    result = {"terms": [str(t) for t in seq.terms], "status": seq.status.value}
    if seq.status is not ReversedStatus.BOUND_EXHAUSTED:
        return EXIT_OK, inputs, result, ""
    result["at_term"] = seq.at_index + 1
    result["bound"] = str(seq.bound)
    text = f"\nterm {seq.at_index + 1}: no candidate <= {seq.bound}"
    return EXIT_EXHAUSTED, inputs, result, text


def cmd_green_tao(args) -> _Outcome:
    if args.k < 3:
        raise ValueError(f"--k must be at least 3, got {args.k}")
    if args.search_limit < 1:
        raise ValueError(f"--search-limit must be positive, got {args.search_limit}")
    limit, needed = args.search_limit, (1 << (args.k - 2)) + 1
    inputs = {"k": str(args.k), "ap": args.ap, "search_limit": str(limit)}
    if args.ap is not None:
        fields = args.ap.split(",")
        if len(fields) != 3:
            raise ValueError(f"--ap takes first,difference,length, got {args.ap!r}")
        ap = PrimeAp(*(int(f) for f in fields))
    else:
        ap = seqcore.find_prime_ap(needed, limit)
        if ap is None:
            result = {"ap": None, "status": "search_limit_exhausted",
                      "search_limit": str(limit)}
            text = (f"no prime progression of length {needed} with first term "
                    f"and difference <= {limit}")
            return EXIT_EXHAUSTED, inputs, result, text
    seq = seqcore.green_tao_sequence(args.k, ap)
    indices = seqcore.index_recurrence(args.k)
    result = {
        "ap": {
            "first": str(ap.first),
            "difference": str(ap.difference),
            "length": ap.length,
        },
        "indices": indices,
        "terms": [str(t) for t in seq.terms],
        "status": seq.status.value,
        "final_sum": None if seq.final_sum is None else str(seq.final_sum),
        "length": len(seq.terms),
    }
    text = "\n".join([
        f"ap: first={ap.first} difference={ap.difference} length={ap.length}",
        f"indices: {' '.join(str(b) for b in indices)}",
        f"sequence: {' '.join(str(t) for t in seq.terms)} | {_forward_suffix(seq)}",
        f"length: {len(seq.terms)} (required >= {args.k})",
    ])
    return EXIT_OK, inputs, result, text


def cmd_verify_bfile(args) -> _Outcome:
    seed = Seed(int(args.p), int(args.q))
    # an OEIS b-file: blank lines and '#' comments aside, each line holds
    # exactly two integers, an index above the previous one and at least 1
    # (term 1 is the seed's p) and a non-negative value
    entries: list[tuple[int, int]] = []
    try:
        with open(args.path, "r", encoding="ascii") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                if len(fields) != 2:
                    raise ValueError(
                        f"line {line_no}: expected 'index value', got {line!r}"
                    )
                try:
                    index, value = int(fields[0]), int(fields[1])
                except ValueError:
                    raise ValueError(
                        f"line {line_no}: non-integer field in {line!r}"
                    ) from None
                if entries and index <= entries[-1][0]:
                    raise ValueError(
                        f"line {line_no}: index {index} not above previous "
                        f"{entries[-1][0]}"
                    )
                if value < 0:
                    raise ValueError(f"line {line_no}: negative value {value}")
                if index < 1:
                    raise ValueError(f"line {line_no}: index {index} below 1")
                entries.append((index, value))
    except OSError as exc:
        raise ValueError(f"cannot read {args.path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{args.path}: {exc}") from exc
    if not entries:
        raise ValueError(f"{args.path}: no entries")
    bound = 2 * max(value for _, value in entries) + 1000
    seq = seqcore.generate_reversed(seed, max(entries[-1][0], 2), bound)
    inputs = {"p": str(seed.p1), "q": str(seed.p2), "path": args.path}
    for index, expected in entries:
        got = seq.terms[index - 1] if index <= len(seq.terms) else None
        if got != expected:
            result = {
                "entries": len(entries),
                "status": "mismatch",
                "index": index,
                "expected": str(expected),
                "got": None if got is None else str(got),
            }
            got_text = f"no candidate <= {bound}" if got is None else str(got)
            text = f"index {index}: expected {expected}, got {got_text}"
            return EXIT_MISMATCH, inputs, result, text
    result = {"entries": len(entries), "status": "match"}
    return EXIT_OK, inputs, result, f"ok: {len(entries)} terms match"


class _Exit(Exception):
    """Ends a parse that runs no command: (exit code, help or error text)."""


# command -> (handler, help, positionals, options).  An option is (--name,
# type, choices or None, default or _REQUIRED, help), read into args.name
# with "_" for "-"; every command also takes _FORMAT.
_REQUIRED = object()
_FORMAT = ("--format", str, ("plain", "records"), "plain",
           "plain text or one JSON record per line")
_COMMANDS = {
    "forward": (cmd_forward, "run the forward recurrence", ("p1", "p2"), [
        ("--max-terms", int, None, 1000, "most terms to generate")]),
    "extend-left": (cmd_extend_left, "find a left extension of a prime pair",
                    ("p1", "p2"), [
        ("--method", str, ("minimal", "crt"), "minimal", "least p0 or the CRT one"),
        ("--bound", int, None, 10**6, "largest p0 the minimal method tries")]),
    "reversed": (cmd_reversed, "generate the reversed sequence", ("p", "q"), [
        ("--terms", int, None, _REQUIRED, "terms to generate, the seeds included"),
        ("--bound", int, None, 10**7, "largest candidate of each step"),
        ("--workers", int, None, None, "search processes (default: the CPU count)"),
        ("--checkpoint", str, None, None, "file that saves and resumes a search")]),
    "green-tao": (cmd_green_tao, "build a length-k sequence from a prime AP", (), [
        ("--k", int, None, _REQUIRED, "least sequence length, at least 3"),
        ("--ap", str, None, None, "FIRST,DIFF,LEN of a prime AP (default: search)"),
        ("--search-limit", int, None, 1000,
         "largest first term and difference of a searched AP")]),
    "verify-bfile": (cmd_verify_bfile, "check a b-file against the generator",
                     ("p", "q", "path"), []),
}


def _help(command) -> str:
    """The help of pfib or of one command; its first line is the usage."""
    rows = [("-h, --help", "show this help and exit")]
    if command is None:
        about = "prime Fibonacci sequence toolkit"
        usage = ["{%s} ..." % ",".join(_COMMANDS)]
        rows += [(name, spec[1]) for name, spec in _COMMANDS.items()]
    else:
        _, about, positionals, options = _COMMANDS[command]
        usage = []
        for name, _, choices, default, text in (_FORMAT, *options):
            metavar = "{%s}" % ",".join(choices) if choices else name[2:].upper()
            rows.append((f"{name} {metavar}", text))
            usage.append(rows[-1][0] if default is _REQUIRED else f"[{rows[-1][0]}]")
        usage += positionals
    usage = " ".join(["usage: pfib", *filter(None, [command]), "[-h]", *usage])
    lines = [f"  {form:<27}  {text}" for form, text in rows]
    return "\n".join([usage, "", about, "", *lines])


def _is_option(arg: str) -> bool:
    # as argparse reads a word: "-" alone and negative numbers are values
    number = arg[1:].replace(".", "", 1).isdecimal()
    return arg[:1] == "-" and arg != "-" and not number


def _read(name: str, kind, choices, word: str):
    # word as argparse read it for the argument name, or ValueError in its words
    try:
        value = kind(word)
    except ValueError:
        raise ValueError(f"argument {name}: invalid int value: {word!r}") from None
    if choices and value not in choices:
        listed = ", ".join(map(repr, choices))
        raise ValueError(
            f"argument {name}: invalid choice: {word!r} (choose from {listed})")
    return value


def _parse(argv) -> SimpleNamespace:
    """Read argv against _COMMANDS as argparse read it: options anywhere,
    --name value or --name=value, a unique prefix of a --name, the last
    repeat winning, every word after "--" a positional.  Raises _Exit."""
    args = SimpleNamespace(command=None)
    options, positionals, given, extras = {}, (), [], []
    words, literal = iter(argv), False
    try:
        for arg in words:
            if arg == "--" and not literal:
                literal = True
            elif _is_option(arg) and not literal:
                name, has_value, value = arg.partition("=")
                known = ["-h", "--help", *options]
                found = [name] if name in known else [
                    o for o in known if name[:2] == "--" and o.startswith(name)]
                if len(found) > 1:
                    found = ", ".join(found)
                    raise ValueError(f"ambiguous option: {arg} could match {found}")
                if found and found[0] in ("-h", "--help"):
                    raise _Exit(EXIT_OK, _help(args.command))
                if not found:
                    extras.append(arg)
                    continue
                option = found[0]
                dest, kind, choices, _ = options[option]
                if not has_value:
                    value = next(words, "--")  # "--" stands for no word left
                    if _is_option(value):
                        raise ValueError(f"argument {option}: expected one argument")
                setattr(args, dest, _read(option, kind, choices, value))
            elif args.command:
                (given if len(given) < len(positionals) else extras).append(arg)
            else:
                _read("command", str, _COMMANDS, arg)
                args.command, (args.func, _, positionals, more) = arg, _COMMANDS[arg]
                # --name -> (args field, type, choices, default)
                options = {o[0]: (o[0][2:].replace("-", "_"), *o[1:4])
                           for o in (_FORMAT, *more)}
                vars(args).update((spec[0], spec[3]) for spec in options.values())
        missing = [*positionals[len(given):]] + [
            o for o, spec in options.items() if getattr(args, spec[0]) is _REQUIRED]
        if not args.command or missing:
            missing = ", ".join(missing) or "command"
            raise ValueError(f"the following arguments are required: {missing}")
        if extras:
            raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    except ValueError as exc:
        prog = " ".join(filter(None, ["pfib", args.command]))
        usage = _help(args.command).split("\n")[0]
        raise _Exit(EXIT_USAGE, f"{usage}\n{prog}: error: {exc}") from None
    vars(args).update(zip(positionals, given))
    return args


def main(argv=None) -> int:
    line_open = False  # a plain line of streamed terms is waiting for its end

    def emit(**fields) -> None:
        record = {"command": args.command, **fields}
        print(json.dumps(record, separators=(",", ":")), flush=True)

    def on_term(index: int, value: int) -> None:
        nonlocal line_open
        if args.format == "records":
            emit(event="term", index=index + 1, value=str(value))
        else:
            line_open = True
            print(f" {value}" if index else f"{value}", end="", flush=True)

    try:
        try:
            args = _parse(sys.argv[1:] if argv is None else argv)
        except _Exit as exc:
            code, text = exc.args
            print(text, file=sys.stderr if code else sys.stdout, flush=True)
            return code
        args.on_term = on_term
        started = time.perf_counter()
        text, error = "", None
        try:
            code, inputs, result, text = args.func(args)
        except BrokenPipeError:
            raise  # stdout's reader is gone: no usage error, see below
        except (ValueError, CheckpointError, OSError) as exc:
            code, error = EXIT_USAGE, f"error: {exc}"
        except KeyboardInterrupt:
            code = EXIT_INTERRUPTED
            error = "interrupted; checkpoint written if one was requested"
        finally:
            # the one end of a plain line, on every exit and before an error
            # reaches stderr: a result's text is the tail of the streamed
            # line, or the whole of a line that streamed nothing
            if line_open or (text and args.format == "plain"):
                print(text, flush=True)
        if error:
            print(error, file=sys.stderr)
        elif args.format == "records":
            emit(inputs=inputs, result=result, timing=time.perf_counter() - started)
        return code
    except BrokenPipeError:
        # say nothing more; pointing stdout at devnull keeps the
        # interpreter's final flush from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED
