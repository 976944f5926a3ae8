//! Report file I/O for the CLI.
//!
//! The interchange format is the simplest thing an operator already has:
//! one IPv4 address per line, blank lines and `#` comments ignored. A
//! report's metadata (tag, class) comes from the command line, not the
//! file, so existing blocklists and log extracts work untouched.

use std::io::{BufRead, Write};
use std::path::Path;
use unclean_core::prelude::*;

/// Write `text` to stdout through one lock, and flush: how a command's
/// result and each `unclean top` frame reach the terminal. An error of
/// kind `BrokenPipe` means the reader has gone (`unclean … | head`), which
/// callers treat as the end of output, never as a crash.
pub fn print(text: &str) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    out.write_all(text.as_bytes())?;
    out.flush()
}

/// How malformed report lines are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseMode {
    /// A malformed address aborts the load with its line number (the
    /// default), because silently dropping entries from a blocklist is how
    /// incidents happen.
    Strict,
    /// Malformed lines are quarantined — collected with line numbers and
    /// reasons instead of aborting — failing only once more than `max_bad`
    /// lines have gone bad. For operator files with a known sprinkle of
    /// garbage (log extracts, hand-edited lists).
    Lenient {
        /// The error budget: the load fails on the `max_bad + 1`-th
        /// malformed line.
        max_bad: usize,
    },
}

/// How many quarantined lines keep their full reason text; past this only
/// the count grows (a million-line garbage file must not OOM the summary).
const QUARANTINE_DETAIL: usize = 20;

/// Malformed lines set aside by a lenient parse.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Quarantine {
    /// The first [`QUARANTINE_DETAIL`] offenders: (1-based line number,
    /// reason).
    pub bad: Vec<(usize, String)>,
    /// Total malformed lines seen (may exceed `bad.len()`).
    pub total_bad: usize,
}

impl Quarantine {
    /// True when every line parsed clean.
    pub fn is_empty(&self) -> bool {
        self.total_bad == 0
    }

    /// Human-readable multi-line summary (empty string when clean).
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let mut out = format!("quarantined {} malformed line(s):\n", self.total_bad);
        for (lineno, reason) in &self.bad {
            out.push_str(&format!("  line {lineno}: {reason}\n"));
        }
        if self.total_bad > self.bad.len() {
            out.push_str(&format!(
                "  … and {} more\n",
                self.total_bad - self.bad.len()
            ));
        }
        out
    }
}

/// Parse a report body: one address per line, `#` comments, blank lines.
///
/// Returns the set, the number of ignored (comment/blank) lines, and the
/// quarantine. In [`ParseMode::Strict`] a malformed address aborts with
/// its line number and the quarantine is always empty; in
/// [`ParseMode::Lenient`] malformed lines are quarantined until the error
/// budget is exhausted.
pub fn parse_addresses_with(
    reader: impl BufRead,
    mode: ParseMode,
) -> Result<(IpSet, usize, Quarantine), String> {
    let mut raw = Vec::new();
    let mut ignored = 0usize;
    let mut quarantine = Quarantine::default();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("read error at line {}: {e}", lineno + 1))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            ignored += 1;
            continue;
        }
        match trimmed.parse::<Ip>() {
            Ok(ip) => raw.push(ip.raw()),
            Err(e) => match mode {
                ParseMode::Strict => return Err(format!("line {}: {e}", lineno + 1)),
                ParseMode::Lenient { max_bad } => {
                    quarantine.total_bad += 1;
                    if quarantine.bad.len() < QUARANTINE_DETAIL {
                        quarantine.bad.push((lineno + 1, e.to_string()));
                    }
                    if quarantine.total_bad > max_bad {
                        return Err(format!(
                            "{} malformed lines exceed the --max-bad budget of {max_bad}; \
                             first offender at line {}: {}",
                            quarantine.total_bad, quarantine.bad[0].0, quarantine.bad[0].1
                        ));
                    }
                }
            },
        }
    }
    Ok((IpSet::from_raw(raw), ignored, quarantine))
}

/// Strict parse (see [`parse_addresses_with`]): the set plus the number of
/// ignored lines.
#[cfg(test)]
pub fn parse_addresses(reader: impl BufRead) -> Result<(IpSet, usize), String> {
    parse_addresses_with(reader, ParseMode::Strict).map(|(set, ignored, _)| (set, ignored))
}

/// Load a report from a file path with the given parse mode, returning the
/// quarantine alongside so callers can surface what was set aside.
pub fn load_report_with(
    path: &Path,
    tag: &str,
    class: ReportClass,
    provenance: Provenance,
    mode: ParseMode,
) -> Result<(Report, Quarantine), String> {
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let (addresses, _, quarantine) = parse_addresses_with(std::io::BufReader::new(file), mode)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if addresses.is_empty() {
        return Err(format!("{}: no addresses found", path.display()));
    }
    // CLI reports carry no dates; a single-day placeholder period keeps the
    // type honest without inventing calendars.
    Ok((
        Report::new(
            tag,
            class,
            provenance,
            DateRange::single(Day::EPOCH),
            addresses,
        ),
        quarantine,
    ))
}

/// Load a report strictly (see [`load_report_with`]).
pub fn load_report(
    path: &Path,
    tag: &str,
    class: ReportClass,
    provenance: Provenance,
) -> Result<Report, String> {
    load_report_with(path, tag, class, provenance, ParseMode::Strict).map(|(report, _)| report)
}

/// Write an address set to a file, one per line with a header comment.
pub fn write_addresses(path: &Path, set: &IpSet, comment: &str) -> Result<(), String> {
    let mut out = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut buf = String::with_capacity(set.len() * 16);
    buf.push_str(&format!("# {comment}\n"));
    for ip in set.iter() {
        buf.push_str(&ip.to_string());
        buf.push('\n');
    }
    out.write_all(buf.as_bytes())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Parse a report-class name.
pub fn parse_class(s: &str) -> Result<ReportClass, String> {
    match s.to_ascii_lowercase().as_str() {
        "bots" | "bot" => Ok(ReportClass::Bots),
        "phishing" | "phish" => Ok(ReportClass::Phishing),
        "scanning" | "scan" => Ok(ReportClass::Scanning),
        "spamming" | "spam" => Ok(ReportClass::Spamming),
        "control" => Ok(ReportClass::Control),
        other => Err(format!(
            "unknown class {other:?} (expected bot|phish|scan|spam|control)"
        )),
    }
}

/// Parse a blocklist format name.
pub fn parse_format(s: &str) -> Result<BlocklistFormat, String> {
    match s.to_ascii_lowercase().as_str() {
        "plain" => Ok(BlocklistFormat::Plain),
        "cisco" | "acl" => Ok(BlocklistFormat::CiscoAcl),
        "iptables" => Ok(BlocklistFormat::Iptables),
        other => Err(format!(
            "unknown format {other:?} (expected plain|cisco|iptables)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_basic_file() {
        let text = "# comment\n8.8.8.8\n\n1.2.3.4\n  9.9.9.9  \n";
        let (set, ignored) = parse_addresses(Cursor::new(text)).expect("valid");
        assert_eq!(set.len(), 3);
        assert_eq!(ignored, 2);
        assert!(set.contains("1.2.3.4".parse().expect("ok")));
    }

    #[test]
    fn parse_rejects_malformed_with_line_number() {
        let text = "8.8.8.8\nnot-an-ip\n";
        let err = parse_addresses(Cursor::new(text)).expect_err("malformed");
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn lenient_quarantines_with_line_numbers() {
        let text = "8.8.8.8\nnot-an-ip\n# fine\n1.2.3.4\n999.1.1.1\n";
        let (set, ignored, q) =
            parse_addresses_with(Cursor::new(text), ParseMode::Lenient { max_bad: 10 })
                .expect("within budget");
        assert_eq!(set.len(), 2, "valid addresses still load");
        assert_eq!(ignored, 1);
        assert_eq!(q.total_bad, 2);
        assert_eq!(q.bad[0].0, 2, "first offender's line number");
        assert_eq!(q.bad[1].0, 5);
        let summary = q.summary();
        assert!(summary.contains("line 2"), "{summary}");
        assert!(summary.contains("quarantined 2"), "{summary}");
    }

    #[test]
    fn lenient_fails_past_error_budget() {
        let text = "bad1\nbad2\nbad3\n1.1.1.1\n";
        let err = parse_addresses_with(Cursor::new(text), ParseMode::Lenient { max_bad: 2 })
            .expect_err("over budget");
        assert!(err.contains("--max-bad budget of 2"), "{err}");
        assert!(err.contains("line 1"), "{err}");
        // Exactly at the budget is still fine.
        let (set, _, q) =
            parse_addresses_with(Cursor::new(text), ParseMode::Lenient { max_bad: 3 })
                .expect("at budget");
        assert_eq!(set.len(), 1);
        assert_eq!(q.total_bad, 3);
    }

    #[test]
    fn quarantine_detail_is_capped() {
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("junk-{i}\n"));
        }
        let (_, _, q) =
            parse_addresses_with(Cursor::new(text), ParseMode::Lenient { max_bad: 100 })
                .expect("within budget");
        assert_eq!(q.total_bad, 40);
        assert_eq!(q.bad.len(), 20, "detail capped");
        assert!(q.summary().contains("and 20 more"));
    }

    #[test]
    fn strict_mode_unchanged_by_quarantine_machinery() {
        let text = "8.8.8.8\nnot-an-ip\n";
        let err =
            parse_addresses_with(Cursor::new(text), ParseMode::Strict).expect_err("strict aborts");
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn parse_dedups() {
        let text = "1.1.1.1\n1.1.1.1\n";
        let (set, _) = parse_addresses(Cursor::new(text)).expect("valid");
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn round_trip_through_files() {
        let dir = std::env::temp_dir().join("unclean-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("report.txt");
        let set = IpSet::from_raw(vec![1, 2, 0xffff_ffff]);
        write_addresses(&path, &set, "test report").expect("write");
        let report =
            load_report(&path, "t", ReportClass::Bots, Provenance::Provided).expect("load");
        assert_eq!(report.addresses(), &set);
        assert_eq!(report.tag(), "t");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn load_rejects_empty() {
        let dir = std::env::temp_dir().join("unclean-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("empty.txt");
        std::fs::write(&path, "# nothing\n").expect("write");
        let err = load_report(&path, "t", ReportClass::Bots, Provenance::Provided)
            .expect_err("empty report");
        assert!(err.contains("no addresses"));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn class_and_format_parsing() {
        assert_eq!(parse_class("BOT").expect("ok"), ReportClass::Bots);
        assert_eq!(parse_class("phish").expect("ok"), ReportClass::Phishing);
        assert!(parse_class("nonsense").is_err());
        assert_eq!(
            parse_format("cisco").expect("ok"),
            BlocklistFormat::CiscoAcl
        );
        assert!(parse_format("xml").is_err());
    }
}
