//! `compare <a.json> <b.json>`: two result sets of the `run` subcommand,
//! workload by workload and metric by metric.
//!
//! Every end-to-end cell gets base, new, ratio and a verdict against the
//! metric's bound. Virtual-time metrics and counts are also checked for an
//! exact match: a host-only change must leave them bit-identical.

use std::fmt::Write as _;

use crate::json::Value;
use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER, WORKLOADS};

/// The verdict on one workload × end-to-end metric cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// A host metric whose run-to-run spread is wider than its bound: the
    /// runs cannot tell a regression from noise, so none is claimed.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base`. `spread` is the wider of the two runs'
/// `harness.rep_iqr_share`.
pub fn verdict(metric: &EndToEnd, base: f64, new: f64, spread: f64) -> Verdict {
    if !metric.exact && spread > metric.bound {
        return Verdict::Unresolved;
    }
    let worse_by = match metric.better {
        Better::Lower => new / base - 1.0,
        Better::Higher => 1.0 - new / base,
    };
    if worse_by > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The outcome of a comparison: the printed table and the two tallies the
/// exit code and the self-agreement criterion read.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub table: String,
    pub regressed: usize,
    /// Exact-match metrics (virtual time, counts) whose values differ.
    pub differing: usize,
}

fn metric_value(set: &Value, workload: &str, group: &str, name: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(group)?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Compares two parsed result sets.
pub fn compare(base: &Value, new: &Value) -> Comparison {
    let mut table = String::new();
    let (mut regressed, mut differing) = (0, 0);
    for (workload, _) in &WORKLOADS {
        let spread = [base, new]
            .iter()
            .filter_map(|set| metric_value(set, workload, "per_layer", "harness.rep_iqr_share"))
            .fold(0.0, f64::max);
        writeln!(
            table,
            "{workload}  (rep IQR {:.1}% of median)",
            spread * 100.0
        )
        .unwrap();
        for m in &END_TO_END {
            let cell = (
                metric_value(base, workload, "end_to_end", m.name),
                metric_value(new, workload, "end_to_end", m.name),
            );
            let (Some(b), Some(n)) = cell else {
                writeln!(table, "  {:<24} missing", m.name).unwrap();
                continue;
            };
            let v = verdict(m, b, n, spread);
            regressed += usize::from(v == Verdict::Regressed);
            let exact = match (m.exact, b == n) {
                (false, _) => "",
                (true, true) => "  exact",
                (true, false) => {
                    differing += 1;
                    "  DIFFERS"
                }
            };
            writeln!(
                table,
                "  {:<24} base {:>16.6}  new {:>16.6}  ratio {:>7.4}  bound {:>4.0}%  {}{}",
                m.name,
                b,
                n,
                n / b,
                m.bound * 100.0,
                v.as_str(),
                exact
            )
            .unwrap();
        }
        for l in PER_LAYER.iter().filter(|l| l.exact) {
            let cell = (
                metric_value(base, workload, "per_layer", l.name),
                metric_value(new, workload, "per_layer", l.name),
            );
            if let (Some(b), Some(n)) = cell {
                if b != n {
                    differing += 1;
                    writeln!(table, "  {:<24} base {b}  new {n}  DIFFERS", l.name).unwrap();
                }
            }
        }
    }
    writeln!(
        table,
        "{regressed} regressed cell(s); {differing} exact-match metric(s) differ"
    )
    .unwrap();
    Comparison {
        table,
        regressed,
        differing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let wall = end_to_end("replay_wall_s").unwrap();
        let b = wall.bound;
        // Lower is better: slower by less than the bound is ok, by more is not.
        assert_eq!(verdict(wall, 1.0, 1.0 + b * 0.9, 0.01), Verdict::Ok);
        assert_eq!(verdict(wall, 1.0, 1.0 + b * 1.1, 0.01), Verdict::Regressed);
        assert_eq!(verdict(wall, 1.0, 0.5, 0.01), Verdict::Ok);
        // A spread wider than the bound resolves nothing, either way.
        assert_eq!(verdict(wall, 1.0, 2.0, b * 1.5), Verdict::Unresolved);
        assert_eq!(verdict(wall, 1.0, 1.0, b * 1.5), Verdict::Unresolved);

        let rate = end_to_end("host_entries_per_s").unwrap();
        // Higher is better: a drop beyond the bound regresses, a rise never.
        assert_eq!(
            verdict(rate, 100.0, 100.0 * (1.0 - rate.bound * 1.1), 0.0),
            Verdict::Regressed
        );
        assert_eq!(verdict(rate, 100.0, 300.0, 0.0), Verdict::Ok);

        // Virtual metrics are never unresolved: host noise cannot move them.
        let p99 = end_to_end("vt_response_p99_s").unwrap();
        assert_eq!(verdict(p99, 10.0, 10.0, 0.9), Verdict::Ok);
        assert_eq!(
            verdict(p99, 10.0, 10.0 * (1.0 + p99.bound * 1.1), 0.9),
            Verdict::Regressed
        );
    }

    fn result_set(wall: f64, p99: f64, batches: f64) -> Value {
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|(w, _)| {
                format!(
                    r#""{w}": {{"end_to_end": {{
                        "replay_wall_s": {{"value": {wall}, "unit": "s"}},
                        "vt_response_p99_s": {{"value": {p99}, "unit": "s"}}}},
                      "per_layer": {{
                        "harness.rep_iqr_share": {{"value": 0.01, "unit": "share"}},
                        "sim.batches": {{"value": {batches}, "unit": "count"}}}}}}"#
                )
            })
            .collect();
        Value::parse(&format!("{{\"workloads\": {{{}}}}}", workloads.join(","))).unwrap()
    }

    #[test]
    fn identical_sets_agree_and_changed_sets_are_flagged() {
        let a = result_set(1.0, 10.0, 8000.0);
        let same = compare(&a, &a);
        assert_eq!((same.regressed, same.differing), (0, 0));
        assert!(same.table.contains("exact"));
        assert!(same.table.contains("missing"), "absent metrics are listed");

        // Twice the wall regresses on every workload; a moved p99 and a
        // moved count each differ on every workload.
        let slower = compare(&a, &result_set(2.0, 10.0, 8000.0));
        assert_eq!((slower.regressed, slower.differing), (WORKLOADS.len(), 0));
        let rescheduled = compare(&a, &result_set(1.0, 10.5, 8001.0));
        assert_eq!(rescheduled.regressed, 0);
        assert_eq!(rescheduled.differing, 2 * WORKLOADS.len());
        assert!(rescheduled.table.contains("DIFFERS"));
    }
}
