"""Command line front end.

Five subcommands cover the whole workflow:

* ``snippets``       discover recurring patterns, write them as JSON
* ``train``          fit both models on a CSV, write a weight bundle
* ``generate-gaps``  hide observed points under a chosen scenario
* ``impute``         fill gaps in a CSV with a trained bundle
* ``evaluate``       score an imputed CSV against the original

All randomness flows from a single ``--seed`` (default 42), and every
output file is written deterministically, so a rerun with the same
inputs reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .core_ts import minmax_normalize, read_csv, write_csv
from .models import RecognizerModel, ReconstructorModel
from .pipeline import impute_report
from .scenarios import baseline_linear, baseline_mean, gen_blackout, gen_mcar, gen_ts_nbr, rmse
from .snippets import find_all_snippets, write_snippets_json
from .training import TrainConfig, load_bundle, save_bundle, train_bundle

__all__ = ["main", "build_parser"]

DEFAULT_SEED = 42


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_mask_csv(hidden: np.ndarray, path: str) -> None:
    """Hidden positions as 1-based (row, col) pairs, row-major order."""
    np.savetxt(path, np.argwhere(hidden) + 1, fmt="%d", delimiter=",", header="row,col",
               comments="")


def _read_mask_csv(path: str, shape: tuple[int, int]) -> np.ndarray:
    hidden = np.zeros(shape, dtype=bool)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: {err}") from None
        except csv.Error as err:
            raise ValueError(f"{path}:{reader.line_num}: {err}") from None
    if rows[:1] != [["row", "col"]]:
        raise ValueError(f"{path}: expected a row,col header")
    for lineno, cells in enumerate(rows[1:], start=2):
        if len(cells) != 2:
            raise ValueError(f"{path}:{lineno}: expected two cells")
        pos = []
        for cell in cells:
            try:
                pos.append(int(cell) - 1)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not an integer: {cell!r}") from None
        r, c = pos
        if not (0 <= r < shape[0] and 0 <= c < shape[1]):
            raise ValueError(f"{path}:{lineno}: position out of range")
        hidden[r, c] = True
    return hidden


def cmd_snippets(args: argparse.Namespace) -> None:
    ts = read_csv(args.input)
    ts_norm, _ = minmax_normalize(ts)
    sets = find_all_snippets(ts_norm, args.m, args.k, ell=args.ell)
    write_snippets_json(sets, args.output)
    for sset, name in zip(sets, ts.names):
        ranks = ", ".join(
            f"segment {s.index} frac={s.frac:.3f}" for s in sset.items)
        print(f"{name}: {ranks}")
    print(f"wrote {args.output}")


def cmd_train(args: argparse.Namespace) -> None:
    ts = read_csv(args.input)
    config = TrainConfig(
        m=args.m, k=args.k, latent=args.latent,
        seed=args.seed, lr=args.lr, batch_size=args.batch_size,
        max_epochs=args.max_epochs, patience=args.patience,
    )
    # Impossible model sizes fail here, before discovery and training.
    RecognizerModel.check_sizes(ts.d, config.m, config.k)
    ReconstructorModel.latent_size(ts.d, config.m, config.latent)
    ts_norm, norm = minmax_normalize(ts)
    sets = find_all_snippets(ts_norm, config.m, config.k, ell=args.ell)
    bundle, recog_history, recon_history = train_bundle(ts_norm, norm, sets, config)
    save_bundle(bundle, args.output)

    history_path = args.history or args.output + ".history.csv"
    with open(history_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "epoch", "train_loss", "val_loss", "val_accuracy"])
        for name, history in (("recognizer", recog_history), ("reconstructor", recon_history)):
            for row in history:
                acc = "" if row.val_accuracy is None else repr(row.val_accuracy)
                writer.writerow([name, row.epoch, repr(row.train_loss), repr(row.val_loss), acc])
    last = recog_history[-1]
    print(f"recognizer: {len(recog_history)} epochs, "
          f"val_loss={last.val_loss:.4f}, val_accuracy={last.val_accuracy:.3f}")
    print(f"reconstructor: {len(recon_history)} epochs, "
          f"val_loss={recon_history[-1].val_loss:.6f}")
    print(f"wrote {args.output}")
    print(f"wrote {history_path}")


def cmd_generate_gaps(args: argparse.Namespace) -> None:
    unused = "--length" if args.scenario == "mcar" else "--rate"
    if getattr(args, unused[2:]) is not None:
        raise ValueError(f"{unused} does not apply to the {args.scenario} scenario")
    ts = read_csv(args.input)
    rng = np.random.default_rng(args.seed)
    if args.scenario == "blackout":
        gapped, hidden = gen_blackout(ts, 10 if args.length is None else args.length, rng)
    elif args.scenario == "mcar":
        gapped, hidden = gen_mcar(ts, 0.25 if args.rate is None else args.rate, rng)
    else:
        gapped, hidden = gen_ts_nbr(ts, args.length, rng)
    write_csv(gapped, args.output)
    mask_path = args.mask_output or _default_mask_path(args.output)
    _write_mask_csv(hidden, mask_path)
    print(f"hid {int(hidden.sum())} points ({args.scenario})")
    print(f"wrote {args.output}")
    print(f"wrote {mask_path}")


def _default_mask_path(output: str) -> str:
    root, ext = os.path.splitext(output)
    return f"{root}.mask{ext or '.csv'}"


def cmd_impute(args: argparse.Namespace) -> None:
    ts = read_csv(args.input)
    bundle = load_bundle(args.bundle)
    truth = read_csv(args.truth) if args.truth else None
    series, report = impute_report(ts, bundle, truth=truth)
    write_csv(series, args.output)
    print(f"imputed {report['imputed_points']} points "
          f"across {report['windows']['with_gaps']} windows")
    if "rmse" in report:
        print(f"rmse={report['rmse']['overall']:.6f}")
    if args.report:
        _write_json(report, args.report)
        print(f"wrote {args.report}")
    print(f"wrote {args.output}")


def cmd_evaluate(args: argparse.Namespace) -> None:
    truth = read_csv(args.truth)
    imputed = read_csv(args.imputed)
    hidden = _read_mask_csv(args.mask, (truth.n, truth.d))
    result = {"positions": int(hidden.sum()),
              "rmse": {"imputed": rmse(imputed, truth, hidden)}}
    if args.gapped:
        gapped = read_csv(args.gapped)
        result["rmse"]["baseline_mean"] = rmse(baseline_mean(gapped), truth, hidden)
        result["rmse"]["baseline_linear"] = rmse(baseline_linear(gapped), truth, hidden)
    _write_json(result, args.output)
    if args.output:
        print(f"wrote {args.output}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saeti",
        description="Snippet-guided imputation of missing time series values.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snippets", help="discover recurring patterns")
    p.add_argument("--input", required=True, help="input CSV")
    p.add_argument("--output", required=True, help="snippet JSON path")
    p.add_argument("--m", type=int, required=True, help="snippet length")
    p.add_argument("--k", type=int, required=True, help="snippets per coordinate")
    p.add_argument("--ell", type=int, default=None,
                   help="inner similarity window (default m/2 rounded up)")
    p.set_defaults(func=cmd_snippets)

    p = sub.add_parser("train", help="train models, write a bundle")
    p.add_argument("--input", required=True, help="training CSV")
    p.add_argument("--output", required=True, help="bundle path")
    p.add_argument("--m", type=int, required=True, help="window length")
    p.add_argument("--k", type=int, required=True, help="snippets per coordinate")
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--latent", type=int, default=None,
                   help="bottleneck size (default d*m/4 rounded up)")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--history", default=None,
                   help="loss CSV path (default <output>.history.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate-gaps", help="hide observed points")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="gapped CSV path")
    p.add_argument("--scenario", required=True,
                   choices=["blackout", "mcar", "ts-nbr"])
    p.add_argument("--length", type=int, default=None,
                   help="block length (blackout default 10, ts-nbr default n/10)")
    p.add_argument("--rate", type=float, default=None,
                   help="target missing fraction for mcar (default 0.25)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--mask-output", default=None,
                   help="hidden-position CSV (default <output>.mask.csv)")
    p.set_defaults(func=cmd_generate_gaps)

    p = sub.add_parser("impute", help="fill gaps with a trained bundle")
    p.add_argument("--input", required=True, help="gapped CSV")
    p.add_argument("--bundle", required=True)
    p.add_argument("--output", required=True, help="imputed CSV path")
    p.add_argument("--report", default=None, help="JSON report path")
    p.add_argument("--truth", default=None,
                   help="complete CSV; adds RMSE to the report")
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("evaluate", help="score an imputed CSV")
    p.add_argument("--imputed", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--mask", required=True, help="hidden-position CSV")
    p.add_argument("--gapped", default=None,
                   help="gapped CSV; adds mean/linear baselines")
    p.add_argument("--output", default=None, help="JSON path (default stdout)")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every output lands in an existing directory, or nothing runs.
        for key in ("output", "history", "mask_output", "report"):
            path = getattr(args, key, None)
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"{path}: no such directory")
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface anything else as failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
