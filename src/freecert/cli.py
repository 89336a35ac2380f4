"""Command-line front door: loads model specs, runs analyses, emits documents.

Exit codes: 0 success, 1 refused certificate (or a verification that
failed or could not run: the oracle reports a check stopped by the model
cap with the verdict ``unchecked`` and its reason), 2 invalid input.
All output documents are JSON with stable field order; files are written
atomically.  ``main`` builds its parser once per process, so library
callers may call it in a loop.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from .acylindricity import acyl_profile
from .certifier import (
    CertificateRefused,
    analyze_pair,
    build_witness_chain,
    chain_base_points,
    check_chain_input,
    check_delta,
    nielsen_certify,
    prop6_certify,
    prop7_certify,
    prop8_certify,
    resolve_constants,
    theorem9_certify,
    validate_certificate,
)
from .hyperbolicity import DEFAULT_TRIPLE_BUDGET, compute_delta
from .isometry import AxisPair, check_radius, classify, displacement_power, quasi_axis
from .models import ActionModel, ModelError, Word, build_model, parse_letters
from .oracle import exceptional_sweep, freeness_to_depth


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte.

    json's indenting encoder is pure Python, and its nested closures leave
    reference cycles behind on every call.  This one appends chunks to one
    list, quotes strings and writes ints in C, writes ``null``, ``true``
    and ``false`` itself, leaves everything else (floats, empty containers)
    to ``json.dumps``, and leaves no cycle.
    """
    chunks: list[str] = []
    _json_chunks(value, "\n", chunks.append)
    return "".join(chunks)


def _json_chunks(value, newline: str, emit) -> None:
    if isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, int):  # bools were written above
        emit(int.__repr__(value))
    elif isinstance(value, dict) and value:
        inner = newline + "  "
        sep = "{" + inner
        for k, v in value.items():
            emit(sep)
            emit(encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k)))
            emit(": ")
            _json_chunks(v, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        if all(type(v) is int for v in value):  # a list of plain ints is written in one join
            emit("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
            return
        sep = "[" + inner
        for v in value:
            emit(sep)
            _json_chunks(v, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    else:
        emit(json.dumps(value))


def _write_doc(doc: dict, out: Optional[str]) -> None:
    text = _json_text(doc) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".freecert-")
    try:
        try:
            data = memoryview(text.encode("ascii"))  # the text is ASCII: json escapes the rest
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_model(path: str) -> ActionModel:
    with open(path) as fh:
        spec = json.load(fh)
    return build_model(spec)


def _element(model: ActionModel, text: str) -> Word:
    return model.canon(parse_letters(text, model.generator_names))


def _resolve_delta(model: ActionModel, args) -> tuple[int, str]:
    if args.delta is not None:
        if args.delta < 0:
            raise ModelError(f"delta must be >= 0, got {args.delta}")
        return args.delta, "config-override"
    if model.is_tree:
        return 0, "tree-case"
    report = compute_delta(model, radius=args.radius, seed=args.seed)
    return report.delta, "brute-forced"


def fraction(text: str) -> Fraction:
    """A ``type=`` for fraction flags: argparse names the flag when it fails."""
    try:
        return Fraction(text)
    except ZeroDivisionError:  # argparse reports only ValueError and TypeError
        raise ValueError(text) from None


def int_list(text: str) -> tuple[int, ...]:
    """A ``type=`` for comma-separated integers, e.g. ``1,1``."""
    return tuple(map(int, text.split(",")))


def _parse_range(text: str) -> tuple[range, range]:
    parts = text.split(",")
    if len(parts) > 2:
        raise ModelError(f"exponent range {text!r} has more than two parts")
    ranges = []
    for part in parts:
        lo, _, hi = part.partition(":")
        try:
            lo_i, hi_i = int(lo), int(hi or lo)
        except ValueError:
            raise ModelError(f"exponent range {text!r} has a malformed part {part!r}") from None
        if hi_i < lo_i:
            raise ModelError(f"empty exponent range {part!r}")
        ranges.append(range(lo_i, hi_i + 1))
    return ranges[0], ranges[-1]  # one part serves both


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_delta(args) -> int:
    model = _load_model(args.model)
    report = compute_delta(
        model,
        radius=args.radius,
        triple_budget=args.budget,
        seed=args.seed,
    )
    _write_doc({"command": "delta", **report.to_doc()}, args.out)
    return 0


def _cmd_profile(args) -> int:
    model = _load_model(args.model)
    delta, _ = _resolve_delta(model, args)
    g = _element(model, args.a)
    profile = classify(model, g)
    doc = {"command": "profile", "delta": delta, **profile.to_doc(), "criterion1_power": None}
    if profile.tr > 0:
        doc["criterion1_power"] = displacement_power(model, profile.element, delta)
        axis = quasi_axis(model, profile, args.window)  # w tau edges on each side of p*
        length = 2 * (len(axis.forward) - len(axis.base)) + 1
        doc["axis"] = {"mode": axis.mode, "invariance_defect": axis.invariance_defect, "length": length}
    _write_doc(doc, args.out)
    return 0


def _cmd_overlap(args) -> int:
    model = _load_model(args.model)
    delta, _ = _resolve_delta(model, args)
    c = check_radius(args.c if args.c is not None else 10 * delta)  # before the elements are read
    a, b = _element(model, args.a), _element(model, args.b)
    pair = AxisPair(model, classify(model, a), classify(model, b), args.window, c)
    _write_doc({"command": "overlap", "delta": delta, **pair.overlap.to_doc()}, args.out)
    return 0


def _cmd_acyl(args) -> int:
    model = _load_model(args.model)
    profile = acyl_profile(
        model, args.radii, region_radius=args.region_radius, group_ball_radius=args.ball_radius
    )
    _write_doc({"command": "acyl", **profile.to_doc()}, args.out)
    return 0


CRITERIA = {
    "nielsen": lambda model, a, b, constants, args: nielsen_certify(
        model, a, b, constants, epsilon_mode=args.epsilon_mode, epsilon=args.epsilon,
        exponents=args.exponents, oracle_depth=args.depth, window=args.window),
    "prop6": lambda model, a, b, constants, args: prop6_certify(
        model, a, b, constants, q=args.q, window=args.window),
    "prop7": lambda model, a, b, constants, args: prop7_certify(model, a, b, constants, window=args.window),
    "prop8": lambda model, a, b, constants, args: prop8_certify(model, a, b, constants, window=args.window),
    "theorem9": lambda model, a, b, constants, args: theorem9_certify(model, a, b, constants, window=args.window),
    "theorem14": lambda model, a, b, constants, args: theorem9_certify(
        model, a, b, constants, window=args.window, quasi_mode=True),
}


def _claimed(exponents: dict) -> tuple[int, int]:
    """The exponents (n, m) a certificate claims, each 1 where it claims none."""
    return exponents.get("n_min", 1), exponents.get("m_min", 1)


def _cmd_certify(args) -> int:
    if args.depth < 1:  # the oracle refuses it too, but only after the certificate is built
        raise ModelError("depth must be >= 1")
    model = _load_model(args.model)
    constants = resolve_constants(model, *_resolve_delta(model, args))
    a, b = _element(model, args.a), _element(model, args.b)
    cert = CRITERIA[args.criterion](model, a, b, constants, args)

    doc = cert.to_doc()
    code = 0
    if not args.no_verify:
        # A sharp-mode back-check already ran this check, on the same a, b, exponents and depth.
        report = cert.oracle_check or freeness_to_depth(model, cert.a, cert.b, *_claimed(cert.exponents), args.depth)
        doc["verification"] = report.to_doc()
        if report.verdict != "free-to-depth":
            code = 1
    validate_certificate(doc)
    _write_doc(doc, args.out)
    return code


def _cmd_verify(args) -> int:
    with open(args.certificate) as fh:
        doc = json.load(fh)
    validate_certificate(doc)
    model = build_model(doc["model"])
    n, m = _claimed(doc["exponents"])
    report = freeness_to_depth(model, doc["elements"]["a"], doc["elements"]["b"], n, m, args.depth)
    _write_doc({"command": "verify", "exponents": {"n": n, "m": m}, **report.to_doc()}, args.out)
    return 0 if report.verdict == "free-to-depth" else 1


def _cmd_sweep(args) -> int:
    model = _load_model(args.model)
    a, b = _element(model, args.a), _element(model, args.b)
    n_range, m_range = _parse_range(args.range)
    table = exceptional_sweep(model, a, b, n_range, m_range, args.depth)
    _write_doc({"command": "sweep", **table.to_doc()}, args.out)
    return 0


def _cmd_chain(args) -> int:
    model = _load_model(args.model)
    delta, provenance = _resolve_delta(model, args)
    check_delta(model, delta, provenance)  # the chain needs only delta, not the constants
    a, b = _element(model, args.a), _element(model, args.b)
    word = parse_letters(args.word, ("a", "b"))
    check_chain_input(word, args.E, args.Q, delta)  # before the axes are measured
    analysis = analyze_pair(model, a, b, delta, window=args.window)
    x, y = chain_base_points(analysis)
    chain = build_witness_chain(model, word, a, b, x, y, args.E, args.Q, delta)
    _write_doc({"command": "chain", **chain.to_doc()}, args.out)
    return 0 if not chain.failures else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``freecert`` parser, built on first use and shared by every ``main`` call.

    Reuse carries no state: ``parse_args`` returns a fresh namespace each
    call and every default is immutable.  ``parser.commands`` maps each
    command's name to its own parser, which ``main`` dispatches to.
    """
    parser = argparse.ArgumentParser(prog="freecert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def common(p, elements=False, region=False, axes=False):
        # --seed and --radius pick the region that delta is measured on;
        # commands that build axes also take --delta and --window.
        region = region or axes
        p.add_argument("--model", required=True, help="path to a model spec JSON file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if region:
            p.add_argument("--seed", type=int, default=0)
        if elements:
            p.add_argument("--a", required=True, help="first element word, e.g. \"ab'a\"")
            p.add_argument("--b", required=True, help="second element word")
        if axes:
            p.add_argument("--delta", type=int, default=None, help="override the thinness constant")
            p.add_argument("--window", type=int, default=8)
        if region:
            p.add_argument("--radius", type=int, default=4)

    p = sub.add_parser("delta", help="compute the thin-triangle constant on a region")
    common(p, region=True)
    p.add_argument("--budget", type=int, default=DEFAULT_TRIPLE_BUDGET)
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("profile", help="translation length and hyperbolicity of one element")
    common(p, axes=True)
    p.add_argument("--a", required=True)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("overlap", help="overlap diameter of two axes")
    common(p, elements=True, axes=True)
    p.add_argument("--c", type=int, default=None, help="overlap radius (default 10*delta)")
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("acyl", help="brute-force acylindricity constants")
    common(p)
    p.add_argument("--radii", type=int_list, default="0", help="comma-separated displacement radii")
    p.add_argument("--region-radius", type=int, default=3)
    p.add_argument("--ball-radius", type=int, default=6)
    p.set_defaults(func=_cmd_acyl)

    p = sub.add_parser("certify", help="emit a freeness certificate")
    common(p, elements=True, axes=True)
    p.add_argument("--criterion", required=True, choices=sorted(CRITERIA))
    p.add_argument("--epsilon-mode", default="paper-literal", choices=["paper-literal", "sharp-experimental"])
    p.add_argument("--epsilon", type=fraction, default=None, help="sharp-mode epsilon (fraction)")
    p.add_argument("--exponents", type=int_list, default=None, help="sharp-mode explicit exponents, e.g. 1,1")
    p.add_argument("--q", type=fraction, default="2", help="translation length ratio bound (prop6)")
    p.add_argument("--depth", type=int, default=4, help="oracle verification depth")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="re-check a certificate with the word oracle")
    p.add_argument("--certificate", required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="exponent grid sweep for relations")
    common(p, elements=True)
    p.add_argument("--range", required=True, help="exponent range, e.g. 1:3 or 1:3,1:5")
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("chain", help="build and check a witness chain")
    common(p, elements=True, axes=True)
    p.add_argument("--word", required=True, help="word over the letters a, b")
    p.add_argument("--E", required=True, type=fraction, help="three-points constant (fraction)")
    p.add_argument("--Q", required=True, type=int, help="b-block size")
    p.set_defaults(func=_cmd_chain)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:  # no command, -h or an unknown one: the top-level parser says so
            args = parser.parse_args(argv)
        else:
            # What the top-level parser does with a command, without its own pass over argv.
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.command = argv[0]
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CertificateRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except (ModelError, OSError, json.JSONDecodeError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
