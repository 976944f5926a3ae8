//! Router-ready block-list rendering.
//!
//! §6's conclusion is operational: "spatial and temporal uncleanliness …
//! can be effectively used to block hostile traffic". This module turns a
//! set of CIDR blocks (typically `C_24(R_bot-test)` or its aggregated
//! cover) into the formats an operator would actually deploy — and parses
//! the plain format back, so lists survive a round trip through version
//! control.

use crate::cidr::Cidr;
use crate::error::Error;
use crate::ip::Ip;
use std::fmt::Write as _;

/// Supported output formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlocklistFormat {
    /// One `a.b.c.d/len` per line (comments start with `#`).
    Plain,
    /// Cisco IOS extended-ACL deny lines (wildcard masks).
    CiscoAcl,
    /// iptables `-A INPUT -s … -j DROP` lines.
    Iptables,
}

/// Render a block list.
///
/// `name` labels the list (ACL number/name, comment header). Blocks are
/// emitted in the order given; deduplicate or aggregate first (see
/// [`crate::blocks::BlockSet::aggregate`]) if the source may overlap.
pub fn render(blocks: &[Cidr], format: BlocklistFormat, name: &str) -> String {
    let mut out = String::new();
    match format {
        BlocklistFormat::Plain => {
            let _ = writeln!(out, "# blocklist: {name} ({} entries)", blocks.len());
            for b in blocks {
                let _ = writeln!(out, "{b}");
            }
        }
        BlocklistFormat::CiscoAcl => {
            let _ = writeln!(out, "ip access-list extended {name}");
            for b in blocks {
                let wildcard = Ip(!crate::cidr::mask(b.len()));
                let _ = writeln!(out, " deny ip {} {} any", b.base(), wildcard);
            }
            let _ = writeln!(out, " permit ip any any");
        }
        BlocklistFormat::Iptables => {
            let _ = writeln!(out, "# iptables blocklist: {name}");
            for b in blocks {
                let _ = writeln!(out, "iptables -A INPUT -s {b} -j DROP");
            }
        }
    }
    out
}

/// Render a *scored* plain list: one `a.b.c.d/len # score=S` per line.
/// [`parse_scored`] reads it back; [`parse_plain`] reads it too (scores
/// live in the inline comment, which plain parsing ignores). This is how
/// uncleanliness scores travel from the offline analyses to the serving
/// daemon.
pub fn render_scored(entries: &[(Cidr, f64)], name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# blocklist: {name} ({} entries, scored)",
        entries.len()
    );
    for (cidr, score) in entries {
        let _ = writeln!(out, "{cidr} # score={score}");
    }
    out
}

/// Render a scored list whose header carries `key=value` provenance
/// metadata on a second comment line — the cross-process lineage
/// carrier: `unclean ingest` stamps `generation=G published_unix_ms=T`
/// here, `unclean serve` reads it back with [`parse_header_meta`], and
/// every parser that ignores comments ([`parse_plain`],
/// [`parse_scored`]) still reads the list unchanged.
pub fn render_scored_with_meta(
    entries: &[(Cidr, f64)],
    name: &str,
    meta: &[(&str, String)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# blocklist: {name} ({} entries, scored)",
        entries.len()
    );
    if !meta.is_empty() {
        out.push('#');
        for (key, value) in meta {
            let _ = write!(out, " {key}={value}");
        }
        out.push('\n');
    }
    for (cidr, score) in entries {
        let _ = writeln!(out, "{cidr} # score={score}");
    }
    out
}

/// Header keys whose values must parse as unsigned integers. A list
/// whose `# generation=` line is corrupt must fail loudly: silently
/// dropping the value would let a serving daemon install the snapshot
/// with no lineage, and the staleness watchdog would never notice.
const NUMERIC_META_KEYS: &[&str] = &["generation", "published_unix_ms", "horizon_days"];

/// Collect `key=value` tokens from the leading comment block of a
/// rendered blocklist (the lines [`render_scored_with_meta`] writes).
/// Scanning stops at the first non-comment, non-blank line, so inline
/// `score=` comments on entry lines are never mistaken for metadata.
/// Later duplicates win. Keys that carry lineage ([`NUMERIC_META_KEYS`])
/// are validated: a non-numeric value returns
/// [`Error::MalformedHeaderMeta`] instead of being silently ignored.
pub fn parse_header_meta(text: &str) -> Result<std::collections::BTreeMap<String, String>, Error> {
    let mut meta = std::collections::BTreeMap::new();
    for raw_line in text.lines() {
        let line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        let Some(comment) = line.strip_prefix('#') else {
            break;
        };
        for token in comment.split_whitespace() {
            if let Some((key, value)) = token.split_once('=') {
                if key.is_empty() {
                    continue;
                }
                if NUMERIC_META_KEYS.contains(&key) && value.parse::<u64>().is_err() {
                    return Err(Error::MalformedHeaderMeta {
                        key: key.to_string(),
                        value: value.to_string(),
                    });
                }
                meta.insert(key.to_string(), value.to_string());
            }
        }
    }
    Ok(meta)
}

/// Parse a plain-format list (ignores blank lines and `#` comments,
/// including inline comments after a CIDR; tolerates CRLF line endings).
pub fn parse_plain(text: &str) -> Result<Vec<Cidr>, Error> {
    Ok(parse_scored(text)?.into_iter().map(|(c, _)| c).collect())
}

/// Parse a plain-format list keeping per-block scores: a line's inline
/// `# score=S` comment (as written by [`render_scored`]) attaches `S` to
/// the block; lines without one score 0. Same tolerance as
/// [`parse_plain`] for blank lines, full-line/inline comments, and CRLF.
pub fn parse_scored(text: &str) -> Result<Vec<(Cidr, f64)>, Error> {
    let mut out = Vec::new();
    for raw_line in text.lines() {
        // `lines` splits on `\n`; a file with CRLF endings leaves the
        // `\r` on the line, and operators hand-edit these files on every
        // platform. Strip the comment before trimming so `cidr# c` and
        // `cidr # c` both parse.
        let (body, comment) = match raw_line.split_once('#') {
            Some((body, comment)) => (body, Some(comment)),
            None => (raw_line, None),
        };
        let body = body.trim();
        if body.is_empty() {
            continue;
        }
        let cidr: Cidr = body.parse()?;
        let score = comment
            .and_then(|c| {
                c.split_whitespace()
                    .find_map(|token| token.strip_prefix("score="))
            })
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0);
        out.push((cidr, score));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks() -> Vec<Cidr> {
        vec![
            "9.1.1.0/24".parse().expect("valid"),
            "9.5.0.0/16".parse().expect("valid"),
            "203.0.113.7/32".parse().expect("valid"),
        ]
    }

    #[test]
    fn plain_round_trips() {
        let text = render(&blocks(), BlocklistFormat::Plain, "bot-test-24s");
        assert!(text.starts_with("# blocklist: bot-test-24s (3 entries)"));
        let parsed = parse_plain(&text).expect("well-formed");
        assert_eq!(parsed, blocks());
    }

    #[test]
    fn cisco_wildcard_masks() {
        let text = render(&blocks(), BlocklistFormat::CiscoAcl, "UNCLEAN");
        assert!(text.contains("ip access-list extended UNCLEAN"));
        assert!(text.contains(" deny ip 9.1.1.0 0.0.0.255 any"));
        assert!(text.contains(" deny ip 9.5.0.0 0.0.255.255 any"));
        assert!(text.contains(" deny ip 203.0.113.7 0.0.0.0 any"));
        assert!(text.trim_end().ends_with("permit ip any any"));
    }

    #[test]
    fn iptables_lines() {
        let text = render(&blocks(), BlocklistFormat::Iptables, "unclean");
        assert_eq!(
            text.lines()
                .filter(|l| l.starts_with("iptables -A INPUT -s "))
                .count(),
            3
        );
        assert!(text.contains("-s 9.1.1.0/24 -j DROP"));
    }

    #[test]
    fn parse_rejects_garbage_lines() {
        assert!(parse_plain("9.1.1.0/24\nnot-a-cidr\n").is_err());
        assert_eq!(parse_plain("\n# only comments\n").expect("ok"), vec![]);
    }

    #[test]
    fn parse_tolerates_crlf_line_endings() {
        let parsed = parse_plain("# header\r\n9.1.1.0/24\r\n\r\n9.5.0.0/16\r\n").expect("crlf ok");
        assert_eq!(
            parsed,
            vec![
                "9.1.1.0/24".parse::<Cidr>().expect("valid"),
                "9.5.0.0/16".parse::<Cidr>().expect("valid"),
            ]
        );
    }

    #[test]
    fn parse_tolerates_inline_comments() {
        let text = "9.1.1.0/24 # C_24 of bot-test\n9.5.0.0/16# tight\n   # full-line\n";
        let parsed = parse_plain(text).expect("inline comments ok");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].to_string(), "9.1.1.0/24");
        // Garbage before an inline comment still aborts.
        assert!(parse_plain("bogus # looks like a comment\n").is_err());
    }

    #[test]
    fn scored_round_trips_and_defaults_to_zero() {
        let entries = vec![
            ("9.1.1.0/24".parse::<Cidr>().expect("valid"), 3.25),
            ("9.5.0.0/16".parse::<Cidr>().expect("valid"), 0.5),
        ];
        let text = render_scored(&entries, "bot-test");
        assert!(text.contains("9.1.1.0/24 # score=3.25"), "{text}");
        let parsed = parse_scored(&text).expect("well-formed");
        assert_eq!(parsed, entries);
        // Plain parsing reads the same file, dropping scores.
        assert_eq!(parse_plain(&text).expect("ok").len(), 2);
        // Unscored and CRLF lines score 0; malformed score tokens too.
        let mixed = "9.1.1.0/24\r\n9.5.0.0/16 # score=oops extra\n";
        let parsed = parse_scored(mixed).expect("ok");
        assert_eq!(parsed[0].1, 0.0);
        assert_eq!(parsed[1].1, 0.0);
    }

    #[test]
    fn header_meta_round_trips_and_stays_backward_compatible() {
        let entries = vec![
            ("9.1.1.0/24".parse::<Cidr>().expect("valid"), 3.25),
            ("9.5.0.0/16".parse::<Cidr>().expect("valid"), 0.5),
        ];
        let meta = [
            ("generation", "17".to_string()),
            ("published_unix_ms", "1754700000123".to_string()),
        ];
        let text = render_scored_with_meta(&entries, "unclean-ingest", &meta);
        let parsed_meta = parse_header_meta(&text).expect("well-formed meta");
        assert_eq!(
            parsed_meta.get("generation").map(String::as_str),
            Some("17")
        );
        assert_eq!(
            parsed_meta.get("published_unix_ms").map(String::as_str),
            Some("1754700000123")
        );
        // Every existing parser still reads the list unchanged.
        assert_eq!(parse_scored(&text).expect("scored ok"), entries);
        assert_eq!(parse_plain(&text).expect("plain ok").len(), 2);
        // Inline `score=` comments never leak into header metadata, and
        // a meta-free list yields an empty map.
        assert!(!parse_header_meta(&text).expect("ok").contains_key("score"));
        assert!(parse_header_meta(&render_scored(&entries, "plain"))
            .expect("ok")
            .is_empty());
    }

    #[test]
    fn header_meta_rejects_non_numeric_generation() {
        for bad in [
            "# blocklist: x (0 entries)\n# generation=seventeen\n",
            "# generation=17.5 published_unix_ms=1754700000123\n",
            "# generation=17 published_unix_ms=-3\n",
        ] {
            match parse_header_meta(bad) {
                Err(Error::MalformedHeaderMeta { key, .. }) => {
                    assert!(key == "generation" || key == "published_unix_ms");
                }
                other => panic!("expected MalformedHeaderMeta, got {other:?}"),
            }
        }
        // Free-form keys stay unvalidated; entry lines are never scanned.
        let tolerated = "# note=not-a-number\n9.1.1.0/24 # generation=bogus\n";
        let meta = parse_header_meta(tolerated).expect("ok");
        assert_eq!(meta.get("note").map(String::as_str), Some("not-a-number"));
        assert!(!meta.contains_key("generation"));
    }

    #[test]
    fn empty_list_renders_headers_only() {
        let text = render(&[], BlocklistFormat::CiscoAcl, "EMPTY");
        assert!(text.contains("EMPTY"));
        assert!(!text.contains("deny"));
    }
}
