"""Command-line front end.

Two subcommands: `anova` ingests a CSV of factor labels plus an exact
decimal response and reports sums of squares, F, p, and the tested
subspace; `verify` runs the exact verification suites.  Output is fully
deterministic: identical inputs and seeds give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .effects import CellLayout, ContrastScheme, EffectId
from .exactlin import RatMatrix, primitive_columns
from .hypotest import AnovaPlan, TestResult, type_model_set
from . import verify as verify_mod

__all__ = ["Dataset", "parse_dataset", "main"]

EFFECT_LABELS = {"A": (1, 0), "B": (0, 1), "AB": (1, 1)}
MODEL_PRESETS = {
    "a-only": ("00", "10"),
    "additive": ("00", "10", "01"),
    "saturated": ("00", "10", "01", "11"),
}
# a response literal longer than this, or with a decimal exponent larger
# in magnitude, is refused before Fraction builds its integers
MAX_RESPONSE_CHARS = 100
MAX_RESPONSE_EXPONENT = 100
# prop3 enumerates all 2^(2^f) - 1 effect subsets of f factors: 65535 at 4
MAX_PROP3_FACTORS = 4


class InputError(Exception):
    """Bad user input (file contents or flag combinations)."""


@dataclass(frozen=True)
class Dataset:
    """Parsed observations: per-factor level labels plus exact responses,
    in file order."""

    factor_names: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    response: tuple[Fraction, ...]

    @property
    def nfactors(self) -> int:
        return len(self.factor_names)

    def layout_and_response(self) -> tuple[CellLayout, list[Fraction]]:
        """Cell layout plus the response grouped cell by cell in one pass;
        replicates within a cell keep file order.  A factor's levels sort
        numerically when all its labels are integers."""
        index = []
        for k in range(self.nfactors):
            seen = sorted({row[k] for row in self.labels})
            if all(_is_int(s) for s in seen):
                seen.sort(key=int)
            index.append({lab: i for i, lab in enumerate(seen)})
        dims = tuple(map(len, index))
        cells: list[list[Fraction]] = [[] for _ in range(math.prod(dims))]
        for labs, y in zip(self.labels, self.response):
            cell = 0
            for k, lab in enumerate(labs):
                cell = cell * dims[k] + index[k][lab]
            cells[cell].append(y)
        return CellLayout(dims, tuple(map(len, cells))), [y for c in cells for y in c]


def _is_int(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return False
    return True


def _parse_response(text: str, lineno: int) -> Fraction:
    if len(text) > MAX_RESPONSE_CHARS:
        raise InputError(
            f"line {lineno}: response has {len(text)} characters, more than {MAX_RESPONSE_CHARS}"
        )
    _, e, exponent = text.lower().partition("e")
    if e and _is_int(exponent) and abs(int(exponent)) > MAX_RESPONSE_EXPONENT:
        raise InputError(
            f"line {lineno}: response {text!r} has a decimal exponent beyond "
            f"±{MAX_RESPONSE_EXPONENT}"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"line {lineno}: cannot parse response {text!r} exactly") from None


def parse_dataset(text: str) -> Dataset:
    """Parse a headered CSV with one `y` column; all other columns are
    factors, in file order.  Responses are parsed exactly ("1.25" becomes
    5/4); malformed rows, and responses past MAX_RESPONSE_CHARS or
    MAX_RESPONSE_EXPONENT, are rejected with their line number."""
    import csv as _csv

    rows = list(_csv.reader(text.splitlines()))
    if not rows:
        raise InputError("empty input: need a header row")
    header = [h.strip() for h in rows[0]]
    if header.count("y") != 1:
        raise InputError("header must contain exactly one 'y' column")
    y_pos = header.index("y")
    factor_names = tuple(h for i, h in enumerate(header) if i != y_pos)
    if not factor_names:
        raise InputError("need at least one factor column besides 'y'")
    labels: list[tuple[str, ...]] = []
    response: list[Fraction] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise InputError(
                f"line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        labs = tuple(c.strip() for i, c in enumerate(row) if i != y_pos)
        if any(not lab for lab in labs):
            raise InputError(f"line {lineno}: empty factor label")
        labels.append(labs)
        response.append(_parse_response(row[y_pos].strip(), lineno))
    if not labels:
        raise InputError("no observation rows")
    return Dataset(factor_names, tuple(labels), tuple(response))


def _read_input(path: str, parse):
    """parse(text of the file at `path`); a file that cannot be read, is
    not UTF-8 or is not valid JSON fails with a message naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path!r} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path!r} is not valid JSON: {exc}") from None


def _parse_model(text: str) -> tuple[frozenset[EffectId], str]:
    if text in MODEL_PRESETS:
        return frozenset(EffectId.parse(s) for s in MODEL_PRESETS[text]), text
    if text.startswith("custom:"):
        bits = [b.strip() for b in text[len("custom:") :].split(",") if b.strip()]
        if not bits:
            raise InputError("custom model needs at least one effect, e.g. custom:00,10")
        effs = frozenset(EffectId.parse(b) for b in bits)
        if any(e.nfactors != 2 for e in effs):
            raise InputError("custom model effects must be two-factor bit strings")
        return effs, text
    raise InputError(
        f"unknown model {text!r}; use saturated, additive, a-only, or custom:00,10,..."
    )


def _parse_effect(text: str) -> tuple[EffectId, str]:
    if text in EFFECT_LABELS:
        return EffectId(EFFECT_LABELS[text]), text
    try:
        eff = EffectId.parse(text)
    except ValueError:
        raise InputError(f"unknown effect {text!r}; use A, B, AB, or bits like 10") from None
    if eff.nfactors != 2:
        raise InputError("anova effects are two-factor (A, B, AB)")
    label = next((k for k, v in EFFECT_LABELS.items() if v == eff.bits), str(eff))
    return eff, label


def _parse_contrasts(text: str) -> ContrastScheme:
    if text in ("paper", "helmert", "default"):
        return ContrastScheme.helmert()
    data = _read_input(text, json.loads)
    if not isinstance(data, list):
        raise InputError("contrast file must hold a JSON array of per-factor matrices")
    try:
        mats = [RatMatrix.from_rows(m) for m in data]
        return ContrastScheme.user(mats)
    except (ValueError, TypeError) as exc:
        raise InputError(f"invalid contrast matrices: {exc}") from None


def _frac_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator, "float": float(value)}


def _entry_json(t: int, effect_label: str, res: TestResult) -> dict:
    return {
        "effect": effect_label,
        "type": t,
        "ss": _frac_json(res.ss_num),
        "df": res.nu_num,
        "f": _frac_json(res.f_value) if res.f_value is not None else None,
        "p": res.p_value,
        "target_basis": primitive_columns(res.estimable_part.basis),
        "estimable_dim": res.estimable_part.dim,
    }


def _annotate_column(col: list[int], dims: tuple[int, int]) -> str | None:
    """Readable description when a target column is a row-mean or
    column-mean combination of the cell means."""
    a, b = dims
    grid = [col[i * b : (i + 1) * b] for i in range(a)]
    if all(len(set(row)) == 1 for row in grid):
        coeffs = [row[0] for row in grid]
        terms = _combo_terms(coeffs, "avg[A={i}]")
        if terms:
            return f"proportional to {terms}"
    cols = list(zip(*grid))
    if all(len(set(c)) == 1 for c in cols):
        coeffs = [c[0] for c in cols]
        terms = _combo_terms(coeffs, "avg[B={i}]")
        if terms:
            return f"proportional to {terms}"
    return None


def _combo_terms(coeffs: list[int], pattern: str) -> str:
    parts = []
    for i, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        name = pattern.format(i=i)
        mag = abs(c)
        term = name if mag == 1 else f"{mag}*{name}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def _render_table(model_set: frozenset[EffectId], model_label: str, effect_label: str,
                  plan: AnovaPlan, entries: list[tuple[int, TestResult]],
                  skipped: list[tuple[int, str]]) -> str:
    layout = plan.layout
    a, b = layout.dims
    lines = []
    lines.append(f"layout: {a}x{b} cells, n={layout.n}")
    grid = layout.grid()
    lines.append("counts: " + " | ".join(" ".join(str(v) for v in row) for row in grid))
    effs = ",".join(str(e) for e in sorted(model_set, key=EffectId.sort_key))
    lines.append(f"model: {model_label} (effects {effs})")
    lines.append(f"effect: {effect_label}")
    lines.append(f"denominator: saturated-model residual, SS = {plan.ss_den}, df = {plan.nu_den}")
    lines.append("")
    # every fixed-width field ends in a space, however long its value
    lines.append(f"{'type':<5} {'SS':<17} {'df':<3} {'F':<17} {'p':<11} target dim")
    for t, res in entries:
        fstr = str(res.f_value) if res.f_value is not None else "undefined"
        pstr = f"{res.p_value:.6g}" if res.p_value is not None else "undefined"
        dim = res.estimable_part.dim
        lines.append(f"{t:<5} {str(res.ss_num):<17} {res.nu_num:<3} {fstr:<17} {pstr:<11} {dim}")
    for t, reason in skipped:
        lines.append(f"{t:<5} skipped: {reason}")
    for t, res in entries:
        cols = primitive_columns(res.estimable_part.basis)
        lines.append("")
        lines.append(
            f"type {t} testing target in model '{model_label}' "
            f"({len(cols)} column(s), shown as {a}x{b} cell arrays):"
        )
        if not cols:
            lines.append("  (zero subspace)")
        for ci, col in enumerate(cols, start=1):
            note = _annotate_column(col, (a, b))
            suffix = f"  [{note}]" if note else ""
            lines.append(f"  column {ci}:{suffix}")
            width = max(len(str(v)) for v in col)
            for i in range(a):
                row = col[i * b : (i + 1) * b]
                lines.append("    " + " ".join(f"{v:>{width}}" for v in row))
    return "\n".join(lines) + "\n"


def cmd_anova(args: argparse.Namespace) -> int:
    try:
        ds = _read_input(args.data, parse_dataset)
        if ds.nfactors != 2:
            raise InputError(
                f"anova needs exactly two factor columns, found {ds.nfactors}"
            )
        model_set, model_label = _parse_model(args.model)
        effect, effect_label = _parse_effect(args.effect)
        if effect not in model_set:
            raise InputError(f"effect {effect_label} is not in model {model_label}")
        scheme = _parse_contrasts(args.contrasts)
        types = (1, 2, 3) if args.type == "all" else (int(args.type),)
        layout, y = ds.layout_and_response()
        plan = AnovaPlan(layout, y, scheme)
        entries: list[tuple[int, TestResult]] = []
        skipped: list[tuple[int, str]] = []
        for t in types:
            if effect not in type_model_set(t, effect):
                reason = f"effect {effect_label} is not in the type-{t} model"
                if args.type == "all":
                    skipped.append((t, reason))
                    continue
                raise InputError(reason)
            entries.append((t, plan.ss(t, effect, report_set=model_set)))
        if args.output == "json":
            doc = {
                "layout": {"dims": list(layout.dims), "counts": layout.grid(), "n": layout.n},
                "model": model_label,
                "effect": effect_label,
                "denominator": {"ss": _frac_json(plan.ss_den), "df": plan.nu_den},
                "tests": [_entry_json(t, effect_label, res) for t, res in entries],
                "skipped": [{"type": t, "reason": r} for t, r in skipped],
            }
            report = json.dumps(doc, indent=2) + "\n"
        else:
            report = _render_table(model_set, model_label, effect_label, plan, entries, skipped)
    # a value too large for a float, or too long for str(), fails here too
    except (InputError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report)
    return 0


VERIFY_TARGETS = ("table1", "prop1", "prop2", "dominance", "prop3", "fdist", "all")


def _adhoc_dominance(path: str) -> list["verify_mod.Check"]:
    """Check the five dominance facts on user-supplied X, H, L matrices
    from a JSON file {"X": rows, "H": rows, "L": rows}."""
    from .dominance import check_dominance

    data = _read_input(path, json.loads)
    if not isinstance(data, dict):
        raise InputError(
            f"matrices file must hold a JSON object with X, H and L, not {type(data).__name__}"
        )
    missing = [k for k in ("X", "H", "L") if k not in data]
    if missing:
        raise InputError(f"matrices file must define X, H, L; missing {missing}")
    try:
        x = RatMatrix.from_rows(data["X"])
        h = RatMatrix.from_rows(data["H"])
        l = RatMatrix.from_rows(data["L"])
        rpt = check_dominance(x, h, l)
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from None
    sandwich = f"nu_H={rpt.nu_h}, nu_PXL={rpt.nu_pxl}, nu_L={rpt.nu_l}, slack={rpt.df_slack}"
    return [
        verify_mod.Check(f"dominance: {wording}", getattr(rpt, field),
                         sandwich if field == "df_bounds_hold" else "")
        for field, wording, _ in verify_mod.DOMINANCE_FACTS
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    target = args.target
    checks: list[verify_mod.Check] = []
    try:
        if args.matrices and target not in ("prop2", "dominance"):
            raise InputError("--matrices only applies to the dominance (prop2) target")
        if (args.dims is not None or args.factors is not None) and target not in ("prop3", "all"):
            raise InputError("--dims and --factors only apply to the prop3 and all targets")
        randomized = target in ("prop1", "prop2", "dominance", "all") and not args.matrices
        if (args.seed is not None or args.trials is not None) and not randomized:
            raise InputError("--seed and --trials only apply to the randomized prop1, prop2 "
                             "(dominance) and all suites, not to --matrices")
        if args.trials is not None and args.trials < 1:
            raise InputError(f"--trials must be at least 1, got {args.trials}")
        # given flags only: the suites' signatures hold the defaults
        opts = {k: v for k, v in (("seed", args.seed), ("trials", args.trials)) if v is not None}
        dims_list = _prop3_dims(args) if target in ("prop3", "all") else ()
        if target in ("table1", "all"):
            checks.extend(verify_mod.verify_table1())
        if target in ("prop1", "all"):
            checks.extend(verify_mod.verify_prop1(**opts))
        if target in ("prop2", "dominance") and args.matrices:
            checks.extend(_adhoc_dominance(args.matrices))
        elif target in ("prop2", "dominance", "all"):
            checks.extend(verify_mod.verify_prop2(**opts))
        if dims_list:
            checks.extend(verify_mod.verify_prop3(dims_list=dims_list))
        if target in ("fdist", "all"):
            checks.extend(verify_mod.verify_fdist())
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for c in checks:
        sys.stdout.write(c.line() + "\n")
    failed = sum(not c.passed for c in checks)
    sys.stdout.write(f"{len(checks) - failed}/{len(checks)} checks passed\n")
    return 0 if failed == 0 else 1


def _prop3_dims(args: argparse.Namespace) -> tuple[tuple[int, ...], ...]:
    if args.dims is not None:
        try:
            dims = tuple(int(d) for d in args.dims.split(","))
        except ValueError:
            raise InputError(f"cannot parse --dims {args.dims!r}; want e.g. 2,3,2") from None
        if any(d < 2 for d in dims):
            raise InputError(f"--dims entries must be at least 2 (a factor needs two levels), got {args.dims}")
        if len(dims) > MAX_PROP3_FACTORS:
            raise InputError(
                f"--dims has {len(dims)} factors, at most {MAX_PROP3_FACTORS} allowed: prop3 checks "
                f"all 2^(2^f) - 1 effect subsets, 4294967295 already at f = 5"
            )
        if args.factors is not None and args.factors != len(dims):
            raise InputError("--factors disagrees with the number of --dims entries")
        return (dims,)
    if args.factors is not None:
        filtered = tuple(
            d for d in verify_mod.PROP3_DEFAULT_DIMS if len(d) == args.factors
        )
        if not filtered:
            raise InputError(f"no default dims for --factors {args.factors}")
        return filtered
    return verify_mod.PROP3_DEFAULT_DIMS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every `main` call:
    argparse objects form reference cycles, so a parser per call would
    leave garbage for the cyclic collector."""
    parser = argparse.ArgumentParser(
        prog="exanova",
        description="Exact-arithmetic ANOVA sums of squares and their tested subspaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_anova = sub.add_parser(
        "anova",
        help="compute type 1/2/3 sums of squares for one effect of a two-factor CSV dataset",
    )
    p_anova.add_argument("--data", required=True, help="CSV file: factor columns plus a 'y' column")
    p_anova.add_argument(
        "--model",
        default="saturated",
        help="saturated | additive | a-only | custom:00,10,... (model the target is reported in)",
    )
    p_anova.add_argument("--effect", default="A", help="A | B | AB (or bits like 10)")
    p_anova.add_argument("--type", default="all", choices=["1", "2", "3", "all"], help="SS type")
    p_anova.add_argument(
        "--contrasts",
        default="paper",
        help="'paper' (default scheme) or a JSON file with one contrast matrix per factor",
    )
    p_anova.add_argument("--output", default="table", choices=["table", "json"])
    p_anova.set_defaults(func=cmd_anova)

    p_verify = sub.add_parser("verify", help="run the exact verification suites")
    p_verify.add_argument("target", choices=VERIFY_TARGETS)
    p_verify.add_argument("--seed", type=int, default=None, help="seed for the randomized suites")
    p_verify.add_argument("--trials", type=int, default=None, help="trial count override")
    p_verify.add_argument("--factors", type=int, default=None, help="restrict prop3 to one factor count")
    p_verify.add_argument("--dims", default=None, help="prop3 level counts, e.g. 2,3,2")
    p_verify.add_argument(
        "--matrices",
        default=None,
        help="dominance only: JSON file with X, H, L for an ad-hoc check",
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
