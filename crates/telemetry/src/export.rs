//! Trace export: JSONL event streams and Chrome trace-event / Perfetto
//! JSON.
//!
//! Everything here is hand-rolled, dependency-free JSON over integer and
//! boolean payloads — the byte-identical-across-executors contract forbids
//! float formatting in the event stream, and every quantity the recorder
//! captures is integer virtual time anyway.

use std::fmt::Write as _;

use crate::event::{class_label, Event, EventKind, ROUTER_SHARD};

/// Renders one event as a single-line JSON object: the common envelope
/// (`t` µs, `shard`, `seq`, `kind`) followed by the kind's payload fields
/// in declaration order. All values are integers or booleans, so the
/// rendering is byte-stable.
pub fn event_to_json(e: &Event) -> String {
    let mut s = format!(
        "{{\"t\":{},\"shard\":{},\"seq\":{},\"kind\":\"{}\"",
        e.time.as_micros(),
        e.shard,
        e.seq,
        e.kind.name()
    );
    e.kind.for_each_field(|key, value| {
        let _ = write!(s, ",\"{key}{}\":{value}", value.key_suffix());
    });
    s.push('}');
    s
}

/// Renders a merged event stream as JSONL: one event per line, in stream
/// order, with a trailing newline after every line.
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_to_json(e));
        out.push('\n');
    }
    out
}

/// Renders a merged event stream as a Chrome trace-event / Perfetto JSON
/// document (open with `chrome://tracing` or <https://ui.perfetto.dev>).
///
/// - Each shard becomes a thread (`tid = shard`) of process 0; the router
///   pseudo-shard becomes the `"router"` thread.
/// - Batches render as complete spans (`ph: "X"`) on their shard's
///   timeline, paired [`BatchStart`](EventKind::BatchStart) →
///   [`BatchEnd`](EventKind::BatchEnd) (a shard runs one batch at a time);
///   an end whose start a bounded ring shed renders nothing.
/// - Applied migrations render as spans on the router timeline (duration =
///   the destination's migration cost); planned moves and cache mutations
///   render as instant events.
/// - Admission waits render as spans from arrival to release; rejections
///   and load samples as instants.
///
/// Timestamps are integer virtual-time microseconds, so the document is
/// byte-stable across platforms and executors.
pub fn events_to_chrome_trace(events: &[Event], n_shards: u32) -> String {
    let mut rows: Vec<String> = Vec::new();
    for shard in 0..n_shards {
        rows.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{shard},\"args\":{{\"name\":\"shard {shard}\"}}}}"
        ));
    }
    rows.push(format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{n_shards},\"args\":{{\"name\":\"router\"}}}}"
    ));
    // The router pseudo-shard id is u32::MAX; remap it onto the compact tid
    // right after the real shards so viewers show a tight thread list.
    let tid_of = |shard: u32| {
        if shard == ROUTER_SHARD {
            n_shards
        } else {
            shard
        }
    };

    // One open batch per shard at most — keyed by shard id.
    let mut open: Vec<Option<(u64, u64, bool, bool)>> = vec![None; n_shards as usize];
    for e in events {
        let tid = tid_of(e.shard);
        let ts = e.time.as_micros();
        match &e.kind {
            EventKind::BatchStart {
                bucket,
                entries: _,
                cached,
                indexed,
            } => {
                let slot = &mut open[e.shard as usize];
                debug_assert!(slot.is_none(), "overlapping batches on shard {}", e.shard);
                *slot = Some((ts, *bucket as u64, *cached, *indexed));
            }
            EventKind::BatchEnd { bucket, entries } => {
                // A bounded ring may have shed this batch's start: no span.
                let Some((start, b, cached, indexed)) = open[e.shard as usize].take() else {
                    continue;
                };
                debug_assert_eq!(b, *bucket as u64, "batch pairing drifted");
                rows.push(format!(
                    "{{\"name\":\"bucket {bucket}\",\"cat\":\"batch\",\"ph\":\"X\",\"ts\":{start},\"dur\":{},\"pid\":0,\"tid\":{tid},\"args\":{{\"entries\":{entries},\"cached\":{cached},\"indexed\":{indexed}}}}}",
                    ts - start
                ));
            }
            EventKind::CacheInsert { bucket } => {
                rows.push(format!(
                    "{{\"name\":\"insert {bucket}\",\"cat\":\"cache\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{tid}}}"
                ));
            }
            EventKind::CacheEvict { bucket } => {
                rows.push(format!(
                    "{{\"name\":\"evict {bucket}\",\"cat\":\"cache\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{tid}}}"
                ));
            }
            EventKind::MigrationPlanned {
                epoch,
                bucket,
                from,
                to,
                entries,
            } => {
                rows.push(format!(
                    "{{\"name\":\"plan {bucket}: {from}\\u2192{to}\",\"cat\":\"migration\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{{\"epoch\":{epoch},\"entries\":{entries}}}}}"
                ));
            }
            EventKind::MigrationApplied {
                epoch,
                bucket,
                to,
                cost,
            } => {
                rows.push(format!(
                    "{{\"name\":\"migrate {bucket}\\u2192shard {to}\",\"cat\":\"migration\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":0,\"tid\":{tid},\"args\":{{\"epoch\":{epoch}}}}}",
                    cost.as_micros()
                ));
            }
            EventKind::Admitted {
                query_index,
                class,
                sheds,
                waited,
                ..
            } => {
                if waited.as_micros() > 0 {
                    rows.push(format!(
                        "{{\"name\":\"admission wait q{query_index}\",\"cat\":\"admission\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{tid},\"args\":{{\"class\":\"{}\",\"sheds\":{sheds}}}}}",
                        ts - waited.as_micros(),
                        waited.as_micros(),
                        class_label(*class)
                    ));
                }
            }
            EventKind::Rejected {
                query_index, class, ..
            } => {
                rows.push(format!(
                    "{{\"name\":\"reject q{query_index} ({})\",\"cat\":\"admission\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts},\"pid\":0,\"tid\":{tid}}}",
                    class_label(*class)
                ));
            }
            EventKind::ShardDown { target, queued } => {
                rows.push(format!(
                    "{{\"name\":\"shard {target} down\",\"cat\":\"failover\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{{\"queued\":{queued}}}}}"
                ));
            }
            EventKind::ShardUp { target } => {
                rows.push(format!(
                    "{{\"name\":\"shard {target} up\",\"cat\":\"failover\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts},\"pid\":0,\"tid\":{tid}}}"
                ));
            }
            EventKind::BucketEvacuated {
                bucket,
                from,
                to,
                entries,
                resident,
            } => {
                rows.push(format!(
                    "{{\"name\":\"evacuate {bucket}: {from}\\u2192{to}\",\"cat\":\"failover\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{{\"entries\":{entries},\"resident\":{resident}}}}}"
                ));
            }
            EventKind::FragmentRetried {
                query,
                attempt,
                delivered,
                ..
            } => {
                rows.push(format!(
                    "{{\"name\":\"retry q{query} #{attempt}\",\"cat\":\"failover\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{{\"delivered\":{delivered}}}}}"
                ));
            }
            EventKind::FragmentDropped {
                query,
                link,
                to_shard,
                attempt,
            } => {
                let leg = if *to_shard { "data" } else { "ack" };
                rows.push(format!(
                    "{{\"name\":\"drop q{query} {leg} #{attempt}\",\"cat\":\"transport\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{{\"link\":{link}}}}}"
                ));
            }
            EventKind::FragmentRetransmitted { query, to, attempt } => {
                rows.push(format!(
                    "{{\"name\":\"retransmit q{query} #{attempt}\",\"cat\":\"transport\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{{\"to\":{to}}}}}"
                ));
            }
            EventKind::FragmentHedged {
                query,
                from,
                to,
                entries,
            } => {
                rows.push(format!(
                    "{{\"name\":\"hedge q{query}: {from}\\u2192{to}\",\"cat\":\"transport\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{{\"entries\":{entries}}}}}"
                ));
            }
            EventKind::DuplicateSuppressed { query, to, attempt } => {
                rows.push(format!(
                    "{{\"name\":\"dedup q{query} #{attempt}\",\"cat\":\"transport\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{{\"to\":{to}}}}}"
                ));
            }
            EventKind::AdmissionSampled {
                inflight, waiting, ..
            } => {
                rows.push(format!(
                    "{{\"name\":\"load sample\",\"cat\":\"admission\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{{\"inflight\":{inflight},\"waiting\":{waiting}}}}}"
                ));
            }
            // Per-query and per-decision events stay in the JSONL stream;
            // rendering millions of instants would drown the span timeline.
            EventKind::QueryArrival { .. }
            | EventKind::Decision { .. }
            | EventKind::CacheHit { .. }
            | EventKind::QueryComplete { .. } => {}
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&rows.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_storage::{SimDuration, SimTime};

    /// Escapes a string for inclusion in a JSON string literal (quotes,
    /// backslashes, control characters).
    fn json_escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    fn ev(t: u64, shard: u32, seq: u64, kind: EventKind) -> Event {
        Event {
            time: SimTime::from_micros(t),
            shard,
            seq,
            kind,
        }
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn jsonl_lines_carry_envelope_and_payload() {
        let events = vec![
            ev(
                5,
                1,
                0,
                EventKind::QueryArrival {
                    query: 7,
                    assignments: 3,
                },
            ),
            ev(
                9,
                1,
                1,
                EventKind::QueryComplete {
                    query: 7,
                    assignments: 3,
                    response: SimDuration::from_micros(4),
                },
            ),
        ];
        let out = events_to_jsonl(&events);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t\":5,\"shard\":1,\"seq\":0,\"kind\":\"query_arrival\",\"query\":7,\"assignments\":3}"
        );
        assert!(lines[1].contains("\"response_us\":4"));
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn chrome_trace_pairs_batches_into_spans() {
        let events = vec![
            ev(
                10,
                0,
                0,
                EventKind::BatchStart {
                    bucket: 3,
                    entries: 8,
                    cached: true,
                    indexed: false,
                },
            ),
            ev(
                25,
                0,
                1,
                EventKind::BatchEnd {
                    bucket: 3,
                    entries: 8,
                },
            ),
        ];
        let out = events_to_chrome_trace(&events, 2);
        assert!(out.contains("\"name\":\"bucket 3\""));
        assert!(out.contains("\"ts\":10,\"dur\":15"));
        assert!(out.contains("\"name\":\"shard 0\""));
        assert!(out.contains("\"name\":\"router\""));
        assert!(out.trim_end().ends_with("]}"));
    }

    #[test]
    fn an_end_whose_start_was_shed_renders_no_span() {
        let batch = |t, seq, start| {
            let kind = if start {
                EventKind::BatchStart {
                    bucket: 3,
                    entries: 8,
                    cached: false,
                    indexed: false,
                }
            } else {
                EventKind::BatchEnd {
                    bucket: 3,
                    entries: 8,
                }
            };
            ev(t, 0, seq, kind)
        };
        let events = vec![batch(10, 7, false), batch(10, 8, true), batch(30, 9, false)];
        let out = events_to_chrome_trace(&events, 1);
        assert_eq!(out.matches("\"cat\":\"batch\"").count(), 1);
        assert!(out.contains("\"ts\":10,\"dur\":20"));
    }

    #[test]
    fn router_events_land_on_the_router_thread() {
        let events = vec![ev(
            100,
            ROUTER_SHARD,
            0,
            EventKind::MigrationApplied {
                epoch: 1,
                bucket: 9,
                to: 2,
                cost: SimDuration::from_micros(50),
            },
        )];
        let out = events_to_chrome_trace(&events, 4);
        // Router remaps to tid 4 (first id after the real shards).
        assert!(out.contains("\"tid\":4,\"args\":{\"epoch\":1}"));
    }
}
