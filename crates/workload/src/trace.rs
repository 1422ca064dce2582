//! Traces and their plain-text codec.
//!
//! A [`Trace`] is the logical query sequence; a [`TimedTrace`] attaches
//! arrival instants (the same trace is replayed at several saturations in
//! Figure 8, so timing is deliberately separate). The codec is a simple
//! line-oriented text format — versioned, diff-able, and dependency-free.

use std::fmt;
use std::io::{self, BufRead, Write};

use liferaft_htm::{BatchCoverer, Cap, Vec3, MAX_LEVEL};
use liferaft_query::{CrossMatchQuery, MatchObject, Predicate, QueryId};
use liferaft_storage::SimTime;

/// The logical query sequence of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    level: u8,
    queries: Vec<CrossMatchQuery>,
}

impl Trace {
    /// Creates a trace of queries whose bounding boxes live at `level`.
    pub fn new(level: u8, queries: Vec<CrossMatchQuery>) -> Self {
        Trace { level, queries }
    }

    /// The HTM level of object bounding boxes.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The queries in trace order.
    pub fn queries(&self) -> &[CrossMatchQuery] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the trace has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Total cross-match objects across all queries.
    pub fn total_objects(&self) -> u64 {
        self.queries.iter().map(|q| q.len() as u64).sum()
    }

    /// Attaches arrival times (must be sorted, one per query).
    ///
    /// # Panics
    /// Panics on length mismatch or unsorted arrivals.
    pub fn with_arrivals(&self, arrivals: Vec<SimTime>) -> TimedTrace {
        assert_eq!(
            arrivals.len(),
            self.queries.len(),
            "need exactly one arrival per query"
        );
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrivals must be sorted"
        );
        TimedTrace {
            entries: arrivals
                .into_iter()
                .zip(self.queries.iter().cloned())
                .collect(),
        }
    }

    /// Like [`with_arrivals`](Self::with_arrivals) but consumes the trace,
    /// *moving* the queries instead of deep-cloning millions of match
    /// objects — the cheap path for fixture builders that no longer need
    /// the untimed trace.
    ///
    /// # Panics
    /// Panics if `arrivals` and queries differ in length, or arrivals are
    /// unsorted.
    pub fn into_timed(self, arrivals: Vec<SimTime>) -> TimedTrace {
        assert_eq!(
            arrivals.len(),
            self.queries.len(),
            "need exactly one arrival per query"
        );
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrivals must be sorted"
        );
        TimedTrace {
            entries: arrivals.into_iter().zip(self.queries).collect(),
        }
    }

    /// Serializes the trace to a writer in the v1 text format.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "liferaft-trace v1")?;
        writeln!(w, "level {}", self.level)?;
        writeln!(w, "queries {}", self.queries.len())?;
        for q in &self.queries {
            let pred = match q.predicate {
                Predicate::All => "all".to_string(),
                Predicate::MagRange { min, max } => format!("magrange {min} {max}"),
                Predicate::BrighterThan(b) => format!("brighter {b}"),
            };
            writeln!(w, "query {} {} {}", q.id.0, q.len(), pred)?;
            for o in &q.objects {
                let (ra, dec) = o.pos.to_radec();
                // 17 significant digits round-trip f64 exactly.
                writeln!(w, "o {ra:.17e} {dec:.17e} {:.17e}", o.radius)?;
            }
        }
        Ok(())
    }

    /// Parses a trace from a reader (recomputing object bounding boxes at
    /// the recorded level).
    pub fn read_from<R: BufRead>(r: R) -> Result<Self, TraceReadError> {
        let mut lines = r.lines().enumerate();
        let mut next = |expect: &str| -> Result<(usize, String), TraceReadError> {
            match lines.next() {
                Some((n, Ok(line))) => Ok((n + 1, line)),
                Some((n, Err(e))) => Err(TraceReadError::Io(n + 1, e)),
                None => Err(TraceReadError::UnexpectedEof(expect.to_string())),
            }
        };

        let (n, header) = next("header")?;
        if header.trim() != "liferaft-trace v1" {
            return Err(TraceReadError::Malformed(
                n,
                format!("bad header {header:?}"),
            ));
        }
        let (n, level_line) = next("level")?;
        let level: u8 = parse_kv(&level_line, "level", n)?;
        if level > MAX_LEVEL {
            return Err(TraceReadError::Malformed(
                n,
                format!("level {level} exceeds the mesh's {MAX_LEVEL}"),
            ));
        }
        let (n, count_line) = next("queries")?;
        let count: usize = parse_kv(&count_line, "queries", n)?;

        // Counts are claims, not facts: nothing is reserved for them, the
        // vectors grow with the lines actually read.
        let mut coverer = BatchCoverer::new(level);
        let mut queries = Vec::new();
        for _ in 0..count {
            let (n, qline) = next("query")?;
            let mut parts = qline.split_whitespace();
            if parts.next() != Some("query") {
                return Err(TraceReadError::Malformed(
                    n,
                    format!("expected query line, got {qline:?}"),
                ));
            }
            let id: u64 = parse_field(parts.next(), "query id", n)?;
            let n_objects: usize = parse_field(parts.next(), "object count", n)?;
            let predicate = match parts.next() {
                Some("all") => Predicate::All,
                Some("magrange") => Predicate::MagRange {
                    min: parse_field(parts.next(), "magrange min", n)?,
                    max: parse_field(parts.next(), "magrange max", n)?,
                },
                Some("brighter") => {
                    Predicate::BrighterThan(parse_field(parts.next(), "brighter bound", n)?)
                }
                other => {
                    return Err(TraceReadError::Malformed(
                        n,
                        format!("unknown predicate {other:?}"),
                    ))
                }
            };
            // The query's error circles (one radius, as a rule: its trig is
            // done when the radius changes), then one mesh walk for them all.
            let mut caps: Vec<Cap> = Vec::new();
            for _ in 0..n_objects {
                let (n, oline) = next("object")?;
                let mut parts = oline.split_whitespace();
                if parts.next() != Some("o") {
                    return Err(TraceReadError::Malformed(
                        n,
                        format!("expected object line, got {oline:?}"),
                    ));
                }
                let ra: f64 = parse_field(parts.next(), "ra", n)?;
                let dec: f64 = parse_field(parts.next(), "dec", n)?;
                let radius: f64 = parse_field(parts.next(), "radius", n)?;
                if !(ra.is_finite() && dec.is_finite()) {
                    return Err(TraceReadError::Malformed(
                        n,
                        format!("position ({ra}, {dec}) is not finite"),
                    ));
                }
                if !(radius > 0.0 && radius <= std::f64::consts::FRAC_PI_2) {
                    return Err(TraceReadError::Malformed(
                        n,
                        format!("radius {radius} is outside (0, π/2]"),
                    ));
                }
                let pos = Vec3::from_radec(ra, dec);
                caps.push(match caps.last() {
                    Some(last) if last.radius() == radius => last.recentered(pos),
                    _ => Cap::new(pos, radius),
                });
            }
            let objects = MatchObject::from_caps(&caps, &mut coverer);
            queries.push(CrossMatchQuery::new(QueryId(id), objects, predicate));
        }
        Ok(Trace::new(level, queries))
    }
}

fn parse_kv<T: std::str::FromStr>(line: &str, key: &str, n: usize) -> Result<T, TraceReadError> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some(key) {
        return Err(TraceReadError::Malformed(
            n,
            format!("expected `{key} <value>`, got {line:?}"),
        ));
    }
    parse_field(parts.next(), key, n)
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    what: &str,
    n: usize,
) -> Result<T, TraceReadError> {
    field
        .ok_or_else(|| TraceReadError::Malformed(n, format!("missing {what}")))?
        .parse()
        .map_err(|_| TraceReadError::Malformed(n, format!("unparseable {what}")))
}

/// Errors produced by [`Trace::read_from`].
#[derive(Debug)]
pub enum TraceReadError {
    /// I/O failure at a line.
    Io(usize, io::Error),
    /// Structurally invalid content at a line.
    Malformed(usize, String),
    /// Input ended while expecting more content.
    UnexpectedEof(String),
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Io(line, e) => write!(f, "I/O error at line {line}: {e}"),
            TraceReadError::Malformed(line, what) => {
                write!(f, "malformed trace at line {line}: {what}")
            }
            TraceReadError::UnexpectedEof(what) => {
                write!(f, "unexpected end of trace while reading {what}")
            }
        }
    }
}

impl std::error::Error for TraceReadError {}

/// A trace with arrival instants attached — directly replayable by the
/// simulation engine.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedTrace {
    entries: Vec<(SimTime, CrossMatchQuery)>,
}

impl TimedTrace {
    /// The (arrival, query) pairs in arrival order.
    pub fn entries(&self) -> &[(SimTime, CrossMatchQuery)] {
        &self.entries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::uniform_arrivals;

    fn sample_trace() -> Trace {
        let mk = |id: u64, ra: f64, pred: Predicate| {
            CrossMatchQuery::from_positions(
                QueryId(id),
                &[
                    Vec3::from_radec_deg(ra, 10.0),
                    Vec3::from_radec_deg(ra + 0.5, -20.0),
                ],
                1e-4,
                8,
                pred,
            )
        };
        Trace::new(
            8,
            vec![
                mk(0, 10.0, Predicate::All),
                mk(
                    1,
                    120.0,
                    Predicate::MagRange {
                        min: 15.0,
                        max: 18.5,
                    },
                ),
                mk(2, 250.0, Predicate::BrighterThan(20.25)),
            ],
        )
    }

    #[test]
    fn codec_round_trips() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(back.level(), t.level());
        assert_eq!(back.len(), t.len());
        for (a, b) in t.queries().iter().zip(back.queries()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.predicate, b.predicate);
            assert_eq!(a.len(), b.len());
            for (oa, ob) in a.objects.iter().zip(&b.objects) {
                assert!(oa.pos.angle_to(ob.pos) < 1e-12);
                assert_eq!(oa.radius, ob.radius);
                assert_eq!(oa.bbox, ob.bbox, "bbox must recompute identically");
            }
        }
    }

    #[test]
    fn read_rejects_bad_header() {
        let err = Trace::read_from("not-a-trace\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceReadError::Malformed(1, _)), "{err}");
    }

    #[test]
    fn read_rejects_truncation() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        // Drop the final line entirely (truncating mid-line could still leave
        // a parseable shorter float; a missing line is unambiguous).
        let cut = buf[..buf.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .expect("multi-line trace");
        let err = Trace::read_from(&buf[..=cut]).unwrap_err();
        assert!(matches!(err, TraceReadError::UnexpectedEof(_)), "{err}");
    }

    #[test]
    fn read_rejects_unknown_predicate() {
        let text = "liferaft-trace v1\nlevel 8\nqueries 1\nquery 0 0 frobnicate\n";
        let err = Trace::read_from(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown predicate"));
    }

    /// A one-query, one-object trace with the given level, query count and
    /// object line.
    fn trace_text(level: &str, queries: &str, object: &str) -> String {
        format!("liferaft-trace v1\nlevel {level}\nqueries {queries}\nquery 0 1 all\n{object}\n")
    }

    #[test]
    fn read_rejects_a_level_beyond_the_mesh() {
        let text = trace_text("99", "1", "o 1.0 0.5 1e-4");
        let err = Trace::read_from(text.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceReadError::Malformed(2, _)), "{err}");
    }

    #[test]
    fn read_rejects_radii_outside_the_cap_domain() {
        for radius in ["0", "-1e-4", "NaN", "1.6", "inf"] {
            let text = trace_text("8", "1", &format!("o 1.0 0.5 {radius}"));
            let err = Trace::read_from(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, TraceReadError::Malformed(5, _)),
                "radius {radius}: {err}"
            );
        }
    }

    #[test]
    fn read_rejects_non_finite_positions() {
        for object in ["o NaN 0.5 1e-4", "o 1.0 inf 1e-4", "o -inf NaN 1e-4"] {
            let text = trace_text("8", "1", object);
            let err = Trace::read_from(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, TraceReadError::Malformed(5, _)),
                "{object}: {err}"
            );
        }
    }

    #[test]
    fn read_never_reserves_for_counts_the_input_cannot_back() {
        // A query count, then an object count, of usize::MAX: the loader
        // must run out of input, not out of memory.
        let text = trace_text("8", "18446744073709551615", "o 1.0 0.5 1e-4");
        let err = Trace::read_from(text.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceReadError::UnexpectedEof(_)), "{err}");
        let text = "liferaft-trace v1\nlevel 8\nqueries 1\nquery 0 18446744073709551615 all\n";
        let err = Trace::read_from(text.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceReadError::UnexpectedEof(_)), "{err}");
    }

    #[test]
    fn read_covers_mixed_radii_like_the_per_cap_reference() {
        let text = "liferaft-trace v1\nlevel 10\nqueries 1\nquery 7 4 all\n\
                    o 1.0 0.5 1e-4\no 1.0001 0.5001 1e-4\no 1.0002 0.5 2e-3\no 4.0 -1.2 1e-4\n";
        let trace = Trace::read_from(text.as_bytes()).unwrap();
        let reference = crate::reference::Coverer::new(10);
        for o in &trace.queries()[0].objects {
            let cap = Cap::new(o.pos, o.radius);
            let budget = liferaft_query::crossmatch::BBOX_MAX_RANGES;
            assert_eq!(o.bbox, reference.cover_bounded(&cap, budget));
        }
    }

    #[test]
    fn with_arrivals_builds_timed_trace() {
        let t = sample_trace();
        let timed = t.with_arrivals(uniform_arrivals(1.0, 3));
        assert_eq!(timed.len(), 3);
        assert_eq!(timed.entries()[0].0.as_secs_f64(), 1.0);
        assert_eq!(timed.entries()[2].1.id, QueryId(2));
        assert_eq!(timed.entries()[2].0.as_secs_f64(), 3.0);
    }

    #[test]
    #[should_panic(expected = "one arrival per query")]
    fn with_arrivals_length_mismatch() {
        sample_trace().with_arrivals(uniform_arrivals(1.0, 2));
    }

    #[test]
    fn trace_accessors() {
        let t = sample_trace();
        assert_eq!(t.total_objects(), 6);
        assert!(!t.is_empty());
    }
}
