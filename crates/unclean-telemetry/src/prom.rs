//! Prometheus text exposition: render a [`Snapshot`] to the classic
//! `text/plain; version=0.0.4` format, and parse/validate such text back
//! into samples.
//!
//! The parser exists so the bench runner's `results/metrics.prom` output
//! is validated by machine rather than by eye: CI renders, re-parses, and
//! checks counter values round-trip exactly (counters are written as
//! integers, so no f64 precision is lost up to `u64::MAX`).

use crate::snapshot::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Map an internal series name (dots, slashes, dashes) onto the
/// Prometheus metric-name charset `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        let ok = ch.is_ascii_alphanumeric() || ch == '_' || ch == ':';
        if ok {
            if i == 0 && ch.is_ascii_digit() {
                out.push('_');
            }
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Render the standard process-identity block both daemons append to
/// their `/metrics` exposition: a `{ns}_build_info` gauge whose
/// `version`/`git_sha` labels identify the running build (value always
/// 1, the conventional info-metric shape) and the conventional
/// `process_start_time_seconds` gauge (Unix seconds, fractional).
pub fn build_info(ns: &str, version: &str, git_sha: &str, start_unix_secs: f64) -> String {
    let ns = sanitize(ns);
    let mut out = String::new();
    let _ = writeln!(out, "# HELP {ns}_build_info Build identity of this binary.");
    let _ = writeln!(out, "# TYPE {ns}_build_info gauge");
    let _ = writeln!(
        out,
        "{ns}_build_info{{version=\"{}\",git_sha=\"{}\"}} 1",
        escape_label(version),
        escape_label(git_sha)
    );
    let _ = writeln!(
        out,
        "# HELP process_start_time_seconds Unix time the process started."
    );
    let _ = writeln!(out, "# TYPE process_start_time_seconds gauge");
    let _ = writeln!(out, "process_start_time_seconds {start_unix_secs}");
    out
}

/// Render a snapshot as Prometheus text exposition. Every metric name is
/// prefixed with `{ns}_`; internal series names are sanitized into the
/// metric-name charset. Counters render as integers; histograms render
/// with cumulative `_bucket{le=...}` plus `_sum`/`_count`; span stats
/// render as `{ns}_stage_duration_seconds{stage="path"}` totals and
/// `{ns}_stage_invocations{stage="path"}` counts.
pub fn render(snap: &Snapshot, ns: &str) -> String {
    let ns = sanitize(ns);
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let metric = format!("{ns}_{}", sanitize(name));
        let _ = writeln!(out, "# HELP {metric} Event counter `{name}`.");
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {v}");
    }
    for (name, v) in &snap.gauges {
        let metric = format!("{ns}_{}", sanitize(name));
        let _ = writeln!(out, "# HELP {metric} Gauge `{name}`.");
        let _ = writeln!(out, "# TYPE {metric} gauge");
        let _ = writeln!(out, "{metric} {v}");
    }
    for (name, hist) in &snap.histograms {
        let metric = format!("{ns}_{}", sanitize(name));
        let _ = writeln!(out, "# HELP {metric} Log2 histogram `{name}`.");
        let _ = writeln!(out, "# TYPE {metric} histogram");
        let mut cumulative = 0u64;
        for bucket in &hist.buckets {
            cumulative += bucket.count;
            if bucket.le == u64::MAX {
                continue; // folded into the +Inf bucket below
            }
            let _ = writeln!(
                out,
                "{metric}_bucket{{le=\"{le}\"}} {cumulative}",
                le = bucket.le
            );
        }
        let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{metric}_sum {}", hist.sum);
        let _ = writeln!(out, "{metric}_count {}", hist.count);
    }
    if !snap.spans.is_empty() {
        let duration = format!("{ns}_stage_duration_seconds");
        let _ = writeln!(
            out,
            "# HELP {duration} Total wall-clock seconds per pipeline stage."
        );
        let _ = writeln!(out, "# TYPE {duration} counter");
        for (path, stat) in &snap.spans {
            let _ = writeln!(
                out,
                "{duration}{{stage=\"{}\"}} {}",
                escape_label(path),
                stat.total_secs
            );
        }
        let invocations = format!("{ns}_stage_invocations");
        let _ = writeln!(
            out,
            "# HELP {invocations} Number of recorded spans per pipeline stage."
        );
        let _ = writeln!(out, "# TYPE {invocations} counter");
        for (path, stat) in &snap.spans {
            let _ = writeln!(
                out,
                "{invocations}{{stage=\"{}\"}} {}",
                escape_label(path),
                stat.count
            );
        }
    }
    out
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Label pairs, in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
    /// The unparsed value text (exact for integer counters).
    pub raw_value: String,
}

/// A parsed exposition: samples plus declared metric types.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// All sample lines, in source order.
    pub samples: Vec<Sample>,
    /// `# TYPE` declarations by metric name.
    pub types: BTreeMap<String, String>,
}

impl Exposition {
    /// The first sample named `name` (any labels).
    pub fn find(&self, name: &str) -> Option<&Sample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// The exact integer value of an unlabelled counter sample, if its
    /// raw text parses as `u64`.
    pub fn counter_u64(&self, name: &str) -> Option<u64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .and_then(|s| s.raw_value.parse().ok())
    }

    /// The value of the sample with `name` and exactly one label
    /// `key=value`.
    pub fn labelled(&self, name: &str, key: &str, value: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.len() == 1
                    && s.labels[0].0 == key
                    && s.labels[0].1 == value
            })
            .map(|s| s.value)
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_value(text: &str) -> Result<f64, String> {
    match text {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse()
            .map_err(|_| format!("invalid sample value {other:?}")),
    }
}

/// Parse label text of the form `key="value",key2="value2"` (the part
/// between `{` and `}`), honouring `\\`, `\"` and `\n` escapes.
fn parse_labels(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {text:?}"))?;
        let key = rest[..eq].trim().to_string();
        if !valid_label_name(&key) {
            return Err(format!("invalid label name {key:?}"));
        }
        rest = rest[eq + 1..].trim_start();
        let mut chars = rest.char_indices();
        match chars.next() {
            Some((_, '"')) => {}
            _ => return Err(format!("label value not quoted in {text:?}")),
        }
        let mut value = String::new();
        let mut end = None;
        let mut escaped = false;
        for (i, ch) in chars {
            if escaped {
                match ch {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    other => return Err(format!("bad escape '\\{other}' in {text:?}")),
                }
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                end = Some(i);
                break;
            } else {
                value.push(ch);
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value in {text:?}"))?;
        labels.push((key, value));
        rest = rest[end + 1..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
            if rest.is_empty() {
                return Err(format!("trailing comma in labels {text:?}"));
            }
        } else if !rest.is_empty() {
            return Err(format!("junk after label value in {text:?}"));
        }
    }
    Ok(labels)
}

/// Parse and validate Prometheus text exposition. Returns an error (with
/// a line number) on malformed comments, metric names outside the legal
/// charset, bad label syntax, or unparsable values.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut exposition = Exposition::default();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without metric name"))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a type"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: invalid metric name {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {lineno}: unknown metric type {kind:?}"));
                }
                exposition.types.insert(name.to_string(), kind.to_string());
            } else if !comment.starts_with("HELP ") && !comment.is_empty() {
                // Bare comments are legal; nothing to validate.
            }
            continue;
        }
        let (name_part, labels, value_part) = match line.find('{') {
            Some(open) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {lineno}: '{{' without '}}'"))?;
                if close < open {
                    return Err(format!("line {lineno}: '}}' before '{{'"));
                }
                (
                    &line[..open],
                    parse_labels(&line[open + 1..close])
                        .map_err(|e| format!("line {lineno}: {e}"))?,
                    line[close + 1..].trim(),
                )
            }
            None => {
                let mut parts = line.splitn(2, char::is_whitespace);
                let name = parts.next().unwrap_or("");
                let rest = parts.next().unwrap_or("").trim();
                (name, Vec::new(), rest)
            }
        };
        let name = name_part.trim();
        if !valid_metric_name(name) {
            return Err(format!("line {lineno}: invalid metric name {name:?}"));
        }
        // An optional trailing timestamp (integer milliseconds) is legal.
        let mut value_fields = value_part.split_whitespace();
        let value_text = value_fields
            .next()
            .ok_or_else(|| format!("line {lineno}: sample without a value"))?;
        if let Some(ts) = value_fields.next() {
            ts.parse::<i64>()
                .map_err(|_| format!("line {lineno}: invalid timestamp {ts:?}"))?;
        }
        if value_fields.next().is_some() {
            return Err(format!("line {lineno}: trailing junk after value"));
        }
        let value = parse_value(value_text).map_err(|e| format!("line {lineno}: {e}"))?;
        exposition.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
            raw_value: value_text.to_string(),
        });
    }
    Ok(exposition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{HistBucket, HistogramSnapshot, SpanStat};
    use proptest::prelude::*;

    #[test]
    fn sanitize_maps_into_legal_charset() {
        assert_eq!(
            sanitize("flowgen.flows_generated"),
            "flowgen_flows_generated"
        );
        assert_eq!(sanitize("table-1/run stage"), "table_1_run_stage");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert!(valid_metric_name(&sanitize("9lives")));
        assert_eq!(sanitize(""), "_");
    }

    fn sample_snapshot() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("flowgen.flows_generated".into(), 1234);
        s.counters.insert("ingest.quarantined_lines".into(), 0);
        s.gauges.insert("bench.scale".into(), 0.002);
        s.histograms.insert(
            "core.block_sizes".into(),
            HistogramSnapshot {
                count: 4,
                sum: 19,
                buckets: vec![
                    HistBucket { le: 1, count: 1 },
                    HistBucket { le: 7, count: 2 },
                    HistBucket {
                        le: u64::MAX,
                        count: 1,
                    },
                ],
            },
        );
        s.spans.insert(
            "pipeline/detect".into(),
            SpanStat {
                count: 3,
                total_secs: 0.75,
                min_secs: 0.1,
                max_secs: 0.5,
                fields: Default::default(),
            },
        );
        s
    }

    #[test]
    fn render_output_parses_and_is_typed() {
        let text = render(&sample_snapshot(), "unclean");
        let exp = parse(&text).expect("render output must parse");
        assert_eq!(
            exp.counter_u64("unclean_flowgen_flows_generated"),
            Some(1234)
        );
        assert_eq!(exp.counter_u64("unclean_ingest_quarantined_lines"), Some(0));
        assert_eq!(
            exp.types["unclean_flowgen_flows_generated"], "counter",
            "counters declare their type"
        );
        assert_eq!(exp.types["unclean_bench_scale"], "gauge");
        assert_eq!(exp.types["unclean_core_block_sizes"], "histogram");
        assert_eq!(
            exp.labelled("unclean_stage_duration_seconds", "stage", "pipeline/detect"),
            Some(0.75)
        );
        assert_eq!(
            exp.labelled("unclean_stage_invocations", "stage", "pipeline/detect"),
            Some(3.0)
        );
    }

    #[test]
    fn histogram_buckets_render_cumulative_with_inf() {
        let text = render(&sample_snapshot(), "unclean");
        let exp = parse(&text).expect("parse");
        let hist = "unclean_core_block_sizes";
        assert_eq!(
            exp.labelled(&format!("{hist}_bucket"), "le", "1"),
            Some(1.0)
        );
        assert_eq!(
            exp.labelled(&format!("{hist}_bucket"), "le", "7"),
            Some(3.0),
            "cumulative across buckets"
        );
        assert_eq!(
            exp.labelled(&format!("{hist}_bucket"), "le", "+Inf"),
            Some(4.0),
            "+Inf bucket equals total count"
        );
        assert_eq!(exp.counter_u64(&format!("{hist}_sum")), Some(19));
        assert_eq!(exp.counter_u64(&format!("{hist}_count")), Some(4));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("9bad_name 1").is_err(), "digit-leading name");
        assert!(parse("ok{le=\"1\" 3").is_err(), "unterminated labels");
        assert!(parse("ok{le=1} 3").is_err(), "unquoted label value");
        assert!(parse("ok notanumber").is_err(), "bad value");
        assert!(parse("ok 1 2 3").is_err(), "trailing junk");
        assert!(parse("# TYPE ok sideways").is_err(), "unknown type");
        assert!(parse("ok 1 1700000000000\n# random comment\nok2 2").is_ok());
    }

    #[test]
    fn label_escapes_round_trip() {
        let text = "m{path=\"a\\\\b \\\"q\\\" \\n\"} 1\n";
        let exp = parse(text).expect("escaped labels parse");
        assert_eq!(exp.samples[0].labels[0].1, "a\\b \"q\" \n");
        // And our renderer produces escapes the parser understands.
        let rendered = format!("m{{path=\"{}\"}} 1\n", escape_label("a\\b \"q\" \n"));
        let back = parse(&rendered).expect("rendered escapes parse");
        assert_eq!(back.samples[0].labels[0].1, "a\\b \"q\" \n");
    }

    proptest! {
        #[test]
        fn counter_values_round_trip_through_text(
            values in proptest::collection::vec(any::<u64>(), 1..20),
        ) {
            let mut snap = Snapshot::default();
            for (i, v) in values.iter().enumerate() {
                snap.counters.insert(format!("series_{i}.events"), *v);
            }
            let text = render(&snap, "unclean");
            let exp = parse(&text).expect("rendered text parses");
            for (i, v) in values.iter().enumerate() {
                prop_assert_eq!(
                    exp.counter_u64(&format!("unclean_series_{}_events", i)),
                    Some(*v)
                );
            }
        }
    }
}
