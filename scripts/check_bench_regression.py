#!/usr/bin/env python3
"""Bench-regression guard for sim_throughput.

Compares a fresh quick-mode run against the committed quick baseline and
fails when any scheduler's wall time regressed beyond a generous tolerance.

CI runners and developer machines differ in absolute speed, so raw wall
times are not comparable across hosts. The guard instead normalizes by the
*median* wall-time ratio across schedulers (the machine-drift factor) and
flags a scheduler only when it regressed relative to the rest of the fleet:

    ratio_i = wall_now_i / wall_base_i
    fail if ratio_i > median(ratio) * (1 + tolerance_i)

A uniform slowdown (slow runner) moves every ratio together and passes; a
decision-path regression in one scheduler moves only its ratio and fails.
An absolute backstop (median ratio > --max-drift) catches the pathological
case of *every* scheduler regressing in lockstep on comparable hardware.

NoShare gets a tighter per-scheduler tolerance (--noshare-tolerance): its
wall time is dominated by the segmented per-query drain, the single most
perf-sensitive path in the engine, and a small relative slip there means a
data-structure regression rather than noise.

The fixture build (catalog + parallel trace generation) is guarded against
the same drift, but forgiven only in the slow direction: ``fixture_build_s``
must not exceed the baseline by more than --fixture-tolerance times
``max(median ratio, 1)``. The scheduler rows and the fixture build share no
code, so a median below 1 is an engine speed-up, not a faster machine —
dividing by it would report an untouched fixture build as regressed.

The overload, crash, and lossy-link rows carry *virtual-time* percentiles,
which are deterministic for a fixed fixture: the door-on interactive p90
must stay below door-off (and within --p90-tolerance of the baseline), the
crash_failover_on global p90 must stay below crash_failover_off (and
within the same tolerance of the baseline) — failover has to keep paying
for the evacuation machinery it adds — and the lossy_link_hedge_on global
p90 must stay below lossy_link_hedge_off (and within the same tolerance of
the baseline): straggler hedging has to keep paying for the work it
duplicates.

The flight-recorder overhead gates compare rows *within the current run*
(same machine, same reps, identical fixture), so no drift correction is
needed: ``telemetry_off`` — the instrumented code path with the null sink —
must stay within --telemetry-off-tolerance of the plain greedy row (the
``enabled()`` guard must compile to dead weight), and ``telemetry_ring``
must stay within --telemetry-ring-tolerance of ``telemetry_off``. An
absolute slack (--telemetry-abs-slack) keeps the percentage gates
meaningful at quick scale, where rows run tens of milliseconds.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json \
        [--tolerance 0.25] [--noshare-tolerance 0.15] \
        [--fixture-tolerance 0.5] [--max-drift 4.0] \
        [--telemetry-off-tolerance 0.02] [--telemetry-ring-tolerance 0.10] \
        [--telemetry-abs-slack 0.05]
    check_bench_regression.py --self-test
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile

NOSHARE = "NoShare"
DOOR_ON = "overload_flash_door_on"
DOOR_OFF = "overload_flash_door_off"
CRASH_ON = "crash_failover_on"
CRASH_OFF = "crash_failover_off"
LOSSY_ON = "lossy_link_hedge_on"
LOSSY_OFF = "lossy_link_hedge_off"
GREEDY = "LifeRaft(α=0.00)"
TELEMETRY_OFF = "telemetry_off"
TELEMETRY_RING = "telemetry_ring"


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {r["scheduler"]: r for r in doc.get("results", [])}
    if not rows:
        sys.exit(f"error: no results in {path}")
    return doc, rows


def self_test():
    """Two synthetic baseline/current pairs through the real command line:
    a uniform 2x engine speed-up with an unchanged fixture build passes, a
    2x fixture-only slow-down fails."""
    def doc(wall_s, fixture_s):
        rows = [{"scheduler": s, "wall_s": wall_s} for s in ("A", "B", NOSHARE)]
        return {"mode": "quick", "fixture_build_s": fixture_s, "results": rows}

    cases = [
        ("uniform 2x speed-up", doc(1.0, 2.0), doc(0.5, 2.0), True),
        ("fixture-only 2x slow-down", doc(1.0, 2.0), doc(1.0, 4.0), False),
    ]
    for name, base, cur, should_pass in cases:
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for label, content in (("base", base), ("cur", cur)):
                paths.append(f"{tmp}/{label}.json")
                with open(paths[-1], "w") as f:
                    json.dump(content, f)
            run = subprocess.run([sys.executable, __file__, *paths],
                                 capture_output=True, text=True)
        if (run.returncode == 0) != should_pass:
            sys.exit(f"self-test FAILED: {name} should "
                     f"{'pass' if should_pass else 'fail'}\n"
                     f"{run.stdout}{run.stderr}")
        print(f"self-test: {name} {'passes' if should_pass else 'fails'}, as it must")


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed per-scheduler regression over the fleet "
                         "median ratio (default 0.25 = 25%%)")
    ap.add_argument("--noshare-tolerance", type=float, default=0.15,
                    help="tighter tolerance for the NoShare row (default "
                         "0.15): its wall time is pure segmented-drain "
                         "throughput, the most perf-sensitive path")
    ap.add_argument("--fixture-tolerance", type=float, default=0.5,
                    help="allowed regression of fixture_build_s over "
                         "max(median ratio, 1) (default 0.5; the build is a "
                         "single sample, so it gets more slack)")
    ap.add_argument("--p90-tolerance", type=float, default=0.05,
                    help="allowed growth of the door-on interactive p90 over "
                         "the committed baseline (default 0.05). The p90 is "
                         "*virtual-time* — deterministic for a fixed fixture "
                         "— so any growth is a real admission-policy change, "
                         "not machine noise; the slack only absorbs benign "
                         "fixture retuning")
    ap.add_argument("--telemetry-off-tolerance", type=float, default=0.02,
                    help="allowed overhead of the telemetry_off row over the "
                         "plain greedy row in the current run (default 0.02: "
                         "the null sink must be free)")
    ap.add_argument("--telemetry-ring-tolerance", type=float, default=0.10,
                    help="allowed overhead of the telemetry_ring row over "
                         "telemetry_off in the current run (default 0.10: "
                         "the always-on flight recorder stays cheap)")
    ap.add_argument("--telemetry-abs-slack", type=float, default=0.05,
                    help="absolute wall-seconds slack added to both "
                         "telemetry gates (default 0.05s); keeps the "
                         "percentage gates meaningful on rows that run in "
                         "tens of milliseconds")
    ap.add_argument("--max-drift", type=float, default=3.0,
                    help="cap on the median ratio itself (default 3.0). This "
                         "is the backstop for fleet-wide regressions — a "
                         "shared decision-path slowdown moves every ratio "
                         "together, which the relative gate cannot see — "
                         "while still leaving headroom for CI runners being "
                         "genuinely slower than the baseline machine")
    args = ap.parse_args()

    base_doc, base = load(args.baseline)
    cur_doc, cur = load(args.current)
    if base_doc.get("mode") != cur_doc.get("mode"):
        sys.exit(f"error: mode mismatch: baseline={base_doc.get('mode')} "
                 f"current={cur_doc.get('mode')}")

    common = sorted(set(base) & set(cur))
    missing = sorted(set(base) - set(cur))
    if missing:
        sys.exit(f"error: schedulers missing from current run: {missing}")
    unknown = sorted(set(cur) - set(base))
    if unknown:
        sys.exit(f"error: schedulers absent from the committed baseline "
                 f"(regenerate it in this PR): {unknown}")

    ratios = {s: cur[s]["wall_s"] / max(base[s]["wall_s"], 1e-9) for s in common}
    med = statistics.median(ratios.values())

    print(f"{'scheduler':<22} {'base_s':>9} {'now_s':>9} {'ratio':>7}   verdict")
    failures = []
    for s in common:
        tol = args.noshare_tolerance if s == NOSHARE else args.tolerance
        limit = med * (1.0 + tol)
        r = ratios[s]
        verdict = "ok"
        if r > limit:
            verdict = f"REGRESSED (> {limit:.2f})"
            failures.append(s)
        print(f"{s:<22} {base[s]['wall_s']:>9.3f} {cur[s]['wall_s']:>9.3f} "
              f"{r:>7.2f}   {verdict}")
    print(f"median ratio (machine drift): {med:.2f}")

    fixture_failed = False
    fb, fc = base_doc.get("fixture_build_s"), cur_doc.get("fixture_build_s")
    if fb is not None and fc is not None and fb > 0:
        # The fixture build fans across all available cores while the
        # scheduler rows (and thus the drift median) are single-threaded, so
        # compare *serial-equivalent* cost: wall time × thread count.
        # Sub-linear parallel speedup makes this overstate the side with
        # more threads; for the dangerous direction (many-core baseline
        # refresh, small CI runner) that errs toward leniency, and the wide
        # --fixture-tolerance absorbs the imperfect-scaling penalty of the
        # opposite direction.
        fb *= base_doc.get("fixture_threads", 1)
        fc *= cur_doc.get("fixture_threads", 1)
        fr = fc / fb
        flimit = max(med, 1.0) * (1.0 + args.fixture_tolerance)
        verdict = "ok"
        if fr > flimit:
            verdict = f"REGRESSED (> {flimit:.2f})"
            fixture_failed = True
        print(f"{'fixture_build':<22} {fb:>9.3f} {fc:>9.3f} {fr:>7.2f}   {verdict}")
    else:
        print("fixture_build: not present in both files, skipped")

    # Overload front-door guard: the controller must still protect
    # interactive latency. Two gates on the virtual-time interactive p90:
    # door-on strictly below door-off *within the current run* (the
    # controller's reason to exist), and door-on no worse than the
    # committed baseline beyond --p90-tolerance.
    p90_failures = []
    if DOOR_ON in cur and DOOR_OFF in cur:
        on = cur[DOOR_ON].get("interactive_p90_s")
        off = cur[DOOR_OFF].get("interactive_p90_s")
        if on is not None and off is not None:
            verdict = "ok"
            if on >= off:
                verdict = "REGRESSED (door-on >= door-off)"
                p90_failures.append("door-on p90 not below door-off")
            print(f"{'interactive_p90 on/off':<22} {off:>9.3f} {on:>9.3f} "
                  f"{on / max(off, 1e-9):>7.2f}   {verdict}")
        base_on = base.get(DOOR_ON, {}).get("interactive_p90_s")
        if on is not None and base_on is not None and base_on > 0:
            limit = base_on * (1.0 + args.p90_tolerance)
            verdict = "ok"
            if on > limit:
                verdict = f"REGRESSED (> {limit:.2f})"
                p90_failures.append(
                    f"door-on p90 {on:.2f}s over baseline {base_on:.2f}s")
            print(f"{'interactive_p90 vs base':<22} {base_on:>9.3f} {on:>9.3f} "
                  f"{on / base_on:>7.2f}   {verdict}")
    else:
        print("overload rows: not present in both files, skipped")

    # Crash-failover guard: evacuation plus re-delivery must keep paying
    # for itself. Same shape as the front-door gates, on the virtual-time
    # global p90 of the crash scenario: failover-on strictly below
    # failover-off *within the current run* (otherwise the subsystem is
    # dead weight), and failover-on no worse than the committed baseline
    # beyond --p90-tolerance.
    failover_failures = []
    if CRASH_ON in cur and CRASH_OFF in cur:
        on = cur[CRASH_ON].get("p90_response_s")
        off = cur[CRASH_OFF].get("p90_response_s")
        if on is not None and off is not None:
            verdict = "ok"
            if on >= off:
                verdict = "REGRESSED (failover-on >= failover-off)"
                failover_failures.append("failover-on p90 not below failover-off")
            print(f"{'crash_p90 on/off':<22} {off:>9.3f} {on:>9.3f} "
                  f"{on / max(off, 1e-9):>7.2f}   {verdict}")
        base_on = base.get(CRASH_ON, {}).get("p90_response_s")
        if on is not None and base_on is not None and base_on > 0:
            limit = base_on * (1.0 + args.p90_tolerance)
            verdict = "ok"
            if on > limit:
                verdict = f"REGRESSED (> {limit:.2f})"
                failover_failures.append(
                    f"failover-on p90 {on:.2f}s over baseline {base_on:.2f}s")
            print(f"{'crash_p90 vs base':<22} {base_on:>9.3f} {on:>9.3f} "
                  f"{on / base_on:>7.2f}   {verdict}")
    else:
        print("crash rows: not present in both files, skipped")

    # Lossy-link hedging guard: racing a duplicate against the straggler
    # must keep beating retransmit-only delivery. Same shape as the crash
    # gates, on the virtual-time global p90 of the lossy-link scenario:
    # hedge-on strictly below hedge-off *within the current run* (otherwise
    # the hedging policy is burning duplicate work for nothing), and
    # hedge-on no worse than the committed baseline beyond --p90-tolerance.
    hedge_failures = []
    if LOSSY_ON in cur and LOSSY_OFF in cur:
        on = cur[LOSSY_ON].get("p90_response_s")
        off = cur[LOSSY_OFF].get("p90_response_s")
        if on is not None and off is not None:
            verdict = "ok"
            if on >= off:
                verdict = "REGRESSED (hedge-on >= hedge-off)"
                hedge_failures.append("hedge-on p90 not below hedge-off")
            print(f"{'lossy_p90 on/off':<22} {off:>9.3f} {on:>9.3f} "
                  f"{on / max(off, 1e-9):>7.2f}   {verdict}")
        base_on = base.get(LOSSY_ON, {}).get("p90_response_s")
        if on is not None and base_on is not None and base_on > 0:
            limit = base_on * (1.0 + args.p90_tolerance)
            verdict = "ok"
            if on > limit:
                verdict = f"REGRESSED (> {limit:.2f})"
                hedge_failures.append(
                    f"hedge-on p90 {on:.2f}s over baseline {base_on:.2f}s")
            print(f"{'lossy_p90 vs base':<22} {base_on:>9.3f} {on:>9.3f} "
                  f"{on / base_on:>7.2f}   {verdict}")
    else:
        print("lossy-link rows: not present in both files, skipped")

    # Flight-recorder overhead gates, within the current run only (same
    # machine, same reps — no drift to correct for).
    telemetry_failures = []
    gates = [
        (TELEMETRY_OFF, GREEDY, args.telemetry_off_tolerance),
        (TELEMETRY_RING, TELEMETRY_OFF, args.telemetry_ring_tolerance),
    ]
    for row, ref, tol in gates:
        if row not in cur or ref not in cur:
            print(f"telemetry gate {row} vs {ref}: rows not present, skipped")
            continue
        now = cur[row]["wall_s"]
        base_wall = cur[ref]["wall_s"]
        limit = base_wall * (1.0 + tol) + args.telemetry_abs_slack
        verdict = "ok"
        if now > limit:
            verdict = f"REGRESSED (> {limit:.3f}s)"
            telemetry_failures.append(
                f"{row} {now:.3f}s over {ref} {base_wall:.3f}s "
                f"(limit {limit:.3f}s)")
        print(f"{row + ' vs ' + ref:<38} {base_wall:>9.3f} {now:>9.3f} "
              f"{now / max(base_wall, 1e-9):>7.2f}   {verdict}")

    if med > args.max_drift:
        sys.exit(f"FAIL: median wall-time ratio {med:.2f} exceeds the "
                 f"{args.max_drift:.1f}x drift backstop — every scheduler "
                 f"regressed together")
    if failures:
        sys.exit(f"FAIL: wall-time regression beyond fleet drift in: "
                 f"{', '.join(failures)}")
    if fixture_failed:
        sys.exit(f"FAIL: fixture_build_s regressed beyond "
                 f"{args.fixture_tolerance:.0%} of fleet drift")
    if p90_failures:
        sys.exit(f"FAIL: interactive-p90 front-door guard: "
                 f"{'; '.join(p90_failures)}")
    if failover_failures:
        sys.exit(f"FAIL: crash-failover p90 guard: "
                 f"{'; '.join(failover_failures)}")
    if hedge_failures:
        sys.exit(f"FAIL: lossy-link hedging p90 guard: "
                 f"{'; '.join(hedge_failures)}")
    if telemetry_failures:
        sys.exit(f"FAIL: flight-recorder overhead guard: "
                 f"{'; '.join(telemetry_failures)}")
    print("bench guard: no per-scheduler, fixture, front-door, failover, "
          "hedging, or telemetry regression")


if __name__ == "__main__":
    main()
