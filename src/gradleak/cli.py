"""Command-line harness: simulate cases, run attacks, apply defenses,
reconstruct sequences, merge reports, and run the benchmark suites.

The default seed comes from the GRADLEAK_SEED environment variable when a
subcommand's --seed flag is omitted.  All output files are written
atomically (temp file plus rename), and reports embed the argv they were
produced with so result tables are self-describing.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

from . import bench as bench_mod
from .baselines import idlg_single, min_column_attack
from .caseio import (_atomic_write_bytes, aggregate_report, load_case, load_decoder,
                     load_report, read_grd, save_case, save_decoder, save_report,
                     write_grd, write_json_atomic)
from .defense import DEFENSE_KINDS, DefenseSpec, apply_defense
from .gm import GMProblem, reconstruct
from .metrics import length_error, set_score
from .linalg import SvdConvergenceError
from .rlg import (LabelSetPrediction, LpPivotLimitError, LpSingularBasisError, RlgConfig,
                  extract_q, rlg_attack)
from .simulator import (LATENT_KINDS, MODES, GradientCase, Scenario, initial_state,
                        simulate_case)


def _default_seed() -> int:
    return int(os.environ.get("GRADLEAK_SEED", "0"))


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process and reused by every `main` call: building takes
    # ~30 times as long as a parse, and parse_args leaves the parser as it was
    parser = argparse.ArgumentParser(prog="gradleak",
                                     description="label leakage lab for projection-layer updates")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate ground-truthed gradient cases")
    sim.add_argument("--mode", choices=MODES, default="single")
    sim.add_argument("--n", type=int, default=1, help="samples per step / sequence length")
    sim.add_argument("--k", type=int, default=1, help="aggregated steps (multistep)")
    sim.add_argument("--d", type=int, required=True, help="latent dimension")
    sim.add_argument("--classes", type=int, required=True)
    sim.add_argument("--latent", choices=LATENT_KINDS, default="gauss")
    sim.add_argument("--lr", type=float, default=None,
                     help="per-step learning rate (multistep only; omitted, the scenario's default)")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", required=True, help="case file path (directory when --count > 1)")
    sim.add_argument("--count", type=int, default=1, help="cases to write, seeds seed..seed+count-1")
    sim.add_argument("--skip-existing", action="store_true",
                     help="resume a partial sweep by keeping files already present")
    sim.add_argument("--decoder-out", help="also save the initial projection state")
    sim.add_argument("--grd-out", help="also write the update as a raw .grd sidecar (count=1 only)")

    atk = sub.add_parser("attack", help="run an attack over case files and score it")
    atk.add_argument("attack", choices=["rlg", "idlg", "mincol"])
    atk.add_argument("cases", nargs="+", metavar="CASE")
    atk_s = atk.add_mutually_exclusive_group()
    atk_s.add_argument("--assume-s", type=int, default=None, metavar="N")
    atk_s.add_argument("--use-true-s", action="store_true",
                       help="take S from each case's ground truth")
    atk.add_argument("--rank-tol", type=float, default=None)
    atk.add_argument("--keep-going", action="store_true",
                     help="record per-case failures and continue")
    atk.add_argument("--jobs", type=int, default=1)
    atk.add_argument("--delta-grd", default=None,
                     help="override the update matrix from a .grd file (single case only)")
    atk.add_argument("--report", required=True)

    dfd = sub.add_parser("defend", help="rewrite a case with a compression defense applied")
    dfd.add_argument("defense", choices=DEFENSE_KINDS)
    dfd.add_argument("case", metavar="CASE")
    dfd.add_argument("--rate", type=float, default=None,
                     help="drop fraction (drop only, default 0.5)")
    dfd.add_argument("--out", default=None, help="output path (default: rewrite in place)")

    gmp = sub.add_parser("gm", help="gradient-matching sequence reconstruction")
    gmp.add_argument("case", metavar="CASE")
    gmp.add_argument("--decoder", required=True)
    gmp.add_argument("--bow", action="store_true",
                     help="restrict the label search to the set recovered by the rlg attack")
    gmp.add_argument("--lambda", dest="lam", type=float, default=GMProblem.lam)
    gmp.add_argument("--restarts", type=int, default=5)
    gmp.add_argument("--seed", type=int, default=None)
    gmp_s = gmp.add_mutually_exclusive_group()
    gmp_s.add_argument("--s", dest="assume_s", type=int, default=None, metavar="N",
                       help="override the sequence length")
    gmp_s.add_argument("--use-true-s", action="store_true")
    gmp.add_argument("--report", required=True)

    ev = sub.add_parser("eval", help="merge attack reports into one aggregate table")
    ev.add_argument("--reports", nargs="+", required=True)
    ev.add_argument("--format", choices=["json", "csv"], default="json")
    ev.add_argument("--out", default=None, help="write here instead of stdout")

    bn = sub.add_parser("bench", help="run a benchmark table suite and print pass/fail")
    bn.add_argument("--suite", choices=sorted(bench_mod.SUITES), required=True)

    return parser


def _cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    # an option that would be ignored, or apply to one case of many, is
    # refused before anything is written
    for option, given in (("--grd-out", args.grd_out), ("--decoder-out", args.decoder_out)):
        if args.count > 1 and given:
            raise ValueError(f"{option} only applies to a single case")
    if args.lr is not None and args.mode != "multistep":
        raise ValueError(f"--lr sets the multistep learning rate; {args.mode} does not read it")

    # every scenario is built, and so checked, before --out is made
    lrs = (args.lr,) * args.k if args.lr is not None else None
    scenarios = [Scenario(d=args.d, classes=args.classes, mode=args.mode, n=args.n,
                          k=args.k, lrs=lrs, latent=args.latent, seed=s)
                 for s in range(seed, seed + args.count)]
    # one case goes to --out itself unless that is a directory
    in_dir = args.count > 1 or os.path.isdir(args.out)
    if args.count > 1:
        os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, f"case-{sc.seed:08d}.case") if in_dir else args.out
             for sc in scenarios]
    for sc, path in zip(scenarios, paths):
        if not (args.skip_existing and os.path.exists(path)):
            save_case(path, simulate_case(sc))
    if args.grd_out:
        # the stored case's update, whether that case was kept or is new
        write_grd(args.grd_out, load_case(paths[0]).case.delta_w)
    if args.decoder_out:
        save_decoder(args.decoder_out, initial_state(scenarios[0]))
    for p in paths:
        print(p)
    return 0


def _chosen_s(args, case: GradientCase) -> int | None:
    """S from --assume-s (attack) or --s (gm), or the case's true S with
    --use-true-s; None leaves it to the update's rank."""
    return case.true_s if args.use_true_s else args.assume_s


def _attack_one(path: str, args) -> dict:
    start = time.perf_counter()
    entry: dict = {"case_id": path, "attack": args.attack}
    try:
        # the sidecar replaces the stored update, which is then never read
        update = read_grd(args.delta_grd) if args.delta_grd else None
        case = load_case(path, update).case
        if args.attack == "rlg":
            cfg = RlgConfig(rank_tol_rel=args.rank_tol, assume_s=_chosen_s(args, case))
            pred = rlg_attack(case.delta_w, cfg)
        elif args.attack == "idlg":
            pred = LabelSetPrediction(inferred_s=1, labels=frozenset({idlg_single(case.delta_w)}))
        else:
            pred = min_column_attack(case.delta_w)
        if pred.rank_estimate is not None:
            entry["rank_estimate"] = pred.rank_estimate
        entry.update({
            "inferred_S": pred.inferred_s,
            "predicted_labels": sorted(pred.labels),
            "set_score": dataclasses.asdict(set_score(pred.labels, case.label_set)),
            "length_error": length_error(pred.inferred_s, case.true_s),
        })
    except Exception as exc:  # recorded per case; fatality decided by the caller
        entry["error"] = f"{type(exc).__name__}: {exc}"
    entry["wall_time_ms"] = (time.perf_counter() - start) * 1000.0
    return entry


def _cmd_attack(args) -> int:
    if args.delta_grd and len(args.cases) != 1:
        raise ValueError("--delta-grd requires exactly one case")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    # an S option the attack would ignore, a bad --rank-tol or a bad
    # --assume-s is refused before any case is read
    if args.attack != "rlg":
        for option, given in (("--assume-s", args.assume_s is not None),
                              ("--use-true-s", args.use_true_s),
                              ("--rank-tol", args.rank_tol is not None)):
            if given:
                raise ValueError(f"{option} sets S for the rlg attack only; "
                                 f"{args.attack} does not read it")
    RlgConfig(rank_tol_rel=args.rank_tol, assume_s=args.assume_s)
    if args.jobs > 1:
        # the fork start method launches every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(args.cases))) as pool:
            entries = pool.map(_attack_one, args.cases, [args] * len(args.cases))
            per_case = _until_first_error(entries, args.keep_going)
            pool.shutdown(cancel_futures=True)  # cases past the first error need not run
    else:
        per_case = _until_first_error(
            (_attack_one(path, args) for path in args.cases), args.keep_going)
    save_report(args.report, per_case, _config_echo(args))
    errored = [e for e in per_case if "error" in e]
    if errored and not args.keep_going:
        print(f"error: {errored[0]['case_id']}: {errored[0]['error']}", file=sys.stderr)
        return 1
    print(args.report)
    return 0 if not errored else 1


def _until_first_error(entries, keep_going: bool) -> list[dict]:
    """Entries in input order; without keep_going, stop after the first error."""
    kept = []
    for entry in entries:
        kept.append(entry)
        if "error" in entry and not keep_going:
            break
    return kept


def _config_echo(args) -> dict:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    echo["argv"] = sys.argv[1:]
    return echo


def _cmd_defend(args) -> int:
    spec = DefenseSpec(kind=args.defense, rate=args.rate)
    bundle = load_case(args.case)
    if bundle.defense_applied is not None:
        # a case records one defense, so a second would forget the first
        recorded = bundle.defense_applied
        raise ValueError(f"{args.case} already has a defense applied ({recorded.kind}, "
                         f"rate {recorded.rate}); defend the undefended case instead")
    defended = apply_defense(bundle.case.delta_w, spec)
    out = args.out or args.case
    save_case(out, dataclasses.replace(bundle.case, delta_w=defended), defense_applied=spec)
    print(out)
    return 0


def _cmd_gm(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    bundle = load_case(args.case)
    case = bundle.case
    decoder = load_decoder(args.decoder)
    if decoder.w.shape != case.delta_w.shape:
        raise ValueError(f"decoder shape {decoder.w.shape} does not match case "
                         f"update {case.delta_w.shape}")
    s_used = _chosen_s(args, case)
    bow = None
    if args.bow:
        # one SVD serves both the inferred S and the recovered label set
        pred = rlg_attack(case.delta_w, RlgConfig(assume_s=s_used))
        s_used = pred.inferred_s
        if not pred.labels:
            raise ValueError("rlg attack recovered no labels; cannot restrict the search")
        bow = tuple(sorted(pred.labels))
    elif s_used is None:
        s_used, _, _ = extract_q(case.delta_w, RlgConfig())
    # undo the 1/S averaging of the stored update so the matching target is
    # the plain summed decoder gradient
    target = case.delta_w * float(s_used)
    prob = GMProblem(target_grad=target, decoder=decoder, s=s_used, bow=bow, lam=args.lam)
    truth = case.true_labels if case.scenario.mode == "sequence" else None
    result = reconstruct(prob, seed=seed, restarts=args.restarts, truth=truth)
    doc = {
        "version": 1,
        "config": _config_echo(args) | {"s_used": s_used,
                                        "bow": list(bow) if bow else None},
        "result": {
            "transcript": list(result.transcript),
            "final_loss": result.final_loss,
            "objective": result.objective,
            "steps": result.steps,
            "converged": result.converged,
            "restarts": result.restarts,
            "n_vars": result.n_vars,
            "wer": result.wer_vs_truth,
            "exact_match": result.exact_match,
            "runs": [{"steps": steps, "distance": distance, "converged": converged}
                     for steps, distance, converged in result.runs],
        },
    }
    write_json_atomic(args.report, doc)
    print(args.report)
    return 0


def _cmd_eval(args) -> int:
    rows = []
    merged: list[dict] = []
    for path in args.reports:
        doc = load_report(path)
        attack = doc.get("config", {}).get("attack", "?")
        rows.append({"report": path, "attack": attack, **aggregate_report(doc["per_case"])})
        merged.extend(doc["per_case"])
    rows.append({"report": "ALL", "attack": "-", **aggregate_report(merged)})
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        _atomic_write_bytes(args.out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args) -> int:
    results = bench_mod.run_suite(args.suite)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "attack": _cmd_attack,
        "defend": _cmd_defend,
        "gm": _cmd_gm,
        "eval": _cmd_eval,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LpPivotLimitError, LpSingularBasisError, SvdConvergenceError) as exc:
        # a solver failure on valid input, as `attack` records one for a case
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
