//! The CLI subcommands, factored out of `main` so they can be tested
//! without spawning processes. Every command returns its human-readable
//! output as a `String` (plus side-effect files where documented).

use crate::io::{
    load_report, load_report_with, parse_class, parse_format, write_addresses, ParseMode,
};
use std::fmt::Write as _;
use std::path::Path;
use unclean_core::prelude::*;
use unclean_stats::SeedTree;

/// `unclean inspect <file> [--lenient [--max-bad N]] [--verbose]`: sniff
/// and profile one file. A v2 flow archive gets a per-day replay summary;
/// a v1 framed archive is refused with the upgrade command; anything else
/// is parsed as an IP report. Lenient mode quarantines malformed report
/// lines — or, for a v2 archive, damaged segments — and reports them
/// instead of aborting.
pub fn inspect(path: &Path, mode: ParseMode, verbose: bool) -> Result<String, String> {
    use std::io::Read as _;
    use unclean_flowgen::indexed::{looks_like_v1, V1_SNIFF_LEN};
    use unclean_flowgen::{IndexedError, WalSegments};
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    match WalSegments::open(path) {
        Ok(segments) => return inspect_archive_v2(path, &segments, mode, verbose),
        Err(IndexedError::NotIndexed) => {}
        Err(e) => return Err(format!("{}: {e}", path.display())),
    }
    let mut head = Vec::new();
    file.take(V1_SNIFF_LEN as u64)
        .read_to_end(&mut head)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if looks_like_v1(&head) {
        return Err(format!(
            "{}: v1 framed flow archive; upgrade it with `unclean archive index` first",
            path.display()
        ));
    }
    inspect_report(path, mode)
}

/// Per-day summary of a v2 indexed archive file: one lenient segment walk
/// through one buffer, one row per segment. A damaged segment fails a
/// strict inspection; `--lenient` reports it instead, up to the
/// `--max-bad` budget.
fn inspect_archive_v2(
    path: &Path,
    segments: &unclean_flowgen::WalSegments,
    mode: ParseMode,
    verbose: bool,
) -> Result<String, String> {
    use unclean_flowgen::SegmentSource;
    let index = segments.index();
    let mut rows = vec![None; index.segments.len()];
    let walk = segments
        .walk(&index.select(None), true, &mut Vec::new(), |i, cursor| {
            cursor.for_each_flow(|_| {})?;
            rows[i] = Some(cursor.telemetry());
            Ok(())
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    match (mode, walk.quarantined.first()) {
        (ParseMode::Strict, Some(q)) => {
            return Err(format!("segment {} ({}): {}", q.segment, q.day, q.detail));
        }
        (ParseMode::Lenient { max_bad }, _) if walk.quarantined.len() > max_bad => {
            return Err(format!(
                "{} damaged segment(s) exceeds --max-bad {max_bad}",
                walk.quarantined.len()
            ));
        }
        _ => {}
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: v2 indexed flow archive, {} segment(s), boot {}",
        path.display(),
        index.segments.len(),
        index.boot_unix_secs
    );
    let _ = writeln!(
        out,
        "{:>12}  {:>10}  {:>10}  {:>12}  {:>6}  {:>10}",
        "day", "flows", "datagrams", "bytes", "gaps", "lost"
    );
    // Per-day decode-buffer high-water mark: the largest segment the
    // reusable segment buffer must hold to replay that day. Days are
    // decoded one segment at a time, so this — not the day's total
    // bytes — is the replay memory a day costs.
    let mut day_peak: std::collections::BTreeMap<i32, u64> = std::collections::BTreeMap::new();
    for (info, row) in index.segments.iter().zip(&rows) {
        let peak = day_peak.entry(info.day.0).or_insert(0);
        *peak = (*peak).max(info.len);
        // A quarantined segment's counts are unknown.
        let [flows, datagrams, gaps, lost] = match row {
            Some(t) => [t.flows, t.datagrams, t.sequence_gaps, t.lost_flows].map(|n| n.to_string()),
            None => ["-"; 4].map(String::from),
        };
        let _ = writeln!(
            out,
            "{:>12}  {:>10}  {:>10}  {:>12}  {:>6}  {:>10}",
            info.day.to_string(),
            flows,
            datagrams,
            info.len,
            gaps,
            lost
        );
    }
    let totals = walk.telemetry;
    let _ = writeln!(
        out,
        "total: {} flows, {} datagrams, {} gap(s), {} lost, {} reordered",
        totals.flows, totals.datagrams, totals.sequence_gaps, totals.lost_flows, totals.reordered
    );
    if !walk.quarantined.is_empty() {
        let _ = writeln!(out, "quarantined {} segment(s):", walk.quarantined.len());
        for q in &walk.quarantined {
            let _ = writeln!(out, "  segment {}: {}", q.segment, q.detail);
        }
    }
    if verbose {
        let _ = writeln!(
            out,
            "peak segment buffer: {} bytes (largest indexed segment: {} bytes)",
            walk.peak_buffer_bytes,
            index.max_segment_len()
        );
        let _ = writeln!(out, "per-day peak decode buffer:");
        let _ = writeln!(out, "{:>12}  {:>14}", "day", "peak bytes");
        for (day, peak) in &day_peak {
            let _ = writeln!(out, "{:>12}  {:>14}", Day(*day).to_string(), peak);
        }
    }
    Ok(out)
}

/// The original report-file profile.
fn inspect_report(path: &Path, mode: ParseMode) -> Result<String, String> {
    let (report, quarantine) = load_report_with(
        path,
        "report",
        ReportClass::Bots,
        Provenance::Provided,
        mode,
    )?;
    let counts = report.block_counts();
    let mut out = String::new();
    let _ = writeln!(out, "{}: {} addresses", path.display(), report.len());
    if !quarantine.is_empty() {
        out.push_str(&quarantine.summary());
    }
    let _ = writeln!(
        out,
        "blocks: /8 {}  /16 {}  /20 {}  /24 {}  /28 {}",
        counts.at(8),
        counts.at(16),
        counts.at(20),
        counts.at(24),
        counts.at(28)
    );
    let _ = writeln!(
        out,
        "span:  {} .. {}",
        report.addresses().min().expect("non-empty"),
        report.addresses().max().expect("non-empty")
    );
    let density = report.len() as f64 / counts.at(24) as f64;
    let _ = writeln!(out, "mean addresses per occupied /24: {density:.2}");
    // Top /16s by membership.
    let scores = UncleanlinessScorer::default().score(&[&report]);
    let _ = writeln!(out, "top /16s:");
    for ns in scores.iter().take(5) {
        let _ = writeln!(out, "  {}  {} addresses", ns.network, ns.total_evidence());
    }
    Ok(out)
}

/// `unclean archive index <file> [--out PATH]`: print a v2 archive's
/// footer index, or upgrade a v1 archive to v2 (writing to `--out`,
/// default `<file>.v2`) and print the index it gained.
pub fn archive_index(path: &Path, out_path: Option<&Path>) -> Result<String, String> {
    use unclean_flowgen::indexed::{looks_like_v1, upgrade_v1};
    use unclean_flowgen::{IndexedArchive, IndexedError};
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = String::new();
    match IndexedArchive::open(&bytes) {
        Ok(archive) => {
            if out_path.is_some() {
                return Err(format!(
                    "{} is already a v2 indexed archive",
                    path.display()
                ));
            }
            let _ = writeln!(out, "{}: v2 indexed flow archive", path.display());
            out.push_str(&index_table(&archive));
        }
        Err(IndexedError::NotIndexed) if looks_like_v1(&bytes) => {
            let boot = u32::from_be_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]);
            let (v2, _, telemetry) =
                upgrade_v1(&bytes, boot).map_err(|e| format!("{}: {e}", path.display()))?;
            let default_out = path.with_extension(match path.extension() {
                Some(ext) => format!("{}.v2", ext.to_string_lossy()),
                None => "v2".to_string(),
            });
            let target = out_path.unwrap_or(&default_out);
            std::fs::write(target, &v2)
                .map_err(|e| format!("cannot write {}: {e}", target.display()))?;
            let _ = writeln!(
                out,
                "{}: v1 framed archive — upgraded to {} ({} flows, {} datagrams, {} lost)",
                path.display(),
                target.display(),
                telemetry.flows,
                telemetry.datagrams,
                telemetry.lost_flows
            );
            let archive =
                IndexedArchive::open(&v2).map_err(|e| format!("{}: {e}", target.display()))?;
            out.push_str(&index_table(&archive));
        }
        Err(IndexedError::NotIndexed) => {
            return Err(format!("{}: not a flow archive", path.display()));
        }
        Err(e) => return Err(format!("{}: {e}", path.display())),
    }
    Ok(out)
}

/// Render a v2 archive's footer index as a table.
fn index_table(archive: &unclean_flowgen::IndexedArchive<'_>) -> String {
    let mut out = String::new();
    let index = archive.index();
    let _ = writeln!(out, "boot: {} (unix secs)", index.boot_unix_secs);
    let _ = writeln!(
        out,
        "{:>3}  {:>12}  {:>12}  {:>12}  {:>10}  {:>10}  {:>10}",
        "#", "day", "offset", "bytes", "datagrams", "flows", "crc32"
    );
    for (i, s) in index.segments.iter().enumerate() {
        let _ = writeln!(
            out,
            "{i:>3}  {:>12}  {:>12}  {:>12}  {:>10}  {:>10}  {:>10}",
            s.day.to_string(),
            s.offset,
            s.len,
            s.datagrams,
            s.flows,
            format!("{:08x}", s.crc)
        );
    }
    let _ = writeln!(
        out,
        "total: {} flows in {} datagrams across {} segment(s)",
        index.total_flows(),
        index.total_datagrams(),
        index.segments.len()
    );
    out
}

/// `unclean spatial --report R --control C`: the Eq. 3 test.
pub fn spatial(
    report_path: &Path,
    control_path: &Path,
    trials: usize,
    seed: u64,
) -> Result<String, String> {
    let report = load_report(
        report_path,
        "report",
        ReportClass::Bots,
        Provenance::Provided,
    )?;
    let control = load_report(
        control_path,
        "control",
        ReportClass::Control,
        Provenance::Observed,
    )?;
    if control.len() <= report.len() {
        return Err(format!(
            "control ({}) must be larger than the report ({})",
            control.len(),
            report.len()
        ));
    }
    let analysis = DensityAnalysis::with_config(DensityConfig {
        trials,
        ..DensityConfig::default()
    });
    let res = analysis.run(&report, control.addresses(), &[], &SeedTree::new(seed));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "spatial uncleanliness (Eq. 3) over {} control draws: {}",
        trials,
        if res.hypothesis_holds() {
            "HOLDS"
        } else {
            "does NOT hold"
        }
    );
    let _ = writeln!(out, "  n  observed  control-median  ratio");
    for (i, &n) in res.xs.iter().enumerate() {
        if n % 4 == 0 {
            let _ = writeln!(
                out,
                " {n:>2}  {:>8}  {:>14.0}  {:>5.2}",
                res.observed[i],
                res.control_boxes[i].1.median,
                res.density_ratio()[i]
            );
        }
    }
    Ok(out)
}

/// `unclean temporal --past P --present Q --control C`: the Eq. 5 test.
pub fn temporal(
    past_path: &Path,
    present_path: &Path,
    control_path: &Path,
    trials: usize,
    seed: u64,
) -> Result<String, String> {
    let past = load_report(past_path, "past", ReportClass::Bots, Provenance::Provided)?;
    let present = load_report(
        present_path,
        "present",
        ReportClass::Bots,
        Provenance::Provided,
    )?;
    let control = load_report(
        control_path,
        "control",
        ReportClass::Control,
        Provenance::Observed,
    )?;
    if control.len() <= past.len() {
        return Err(format!(
            "control ({}) must be larger than the past report ({})",
            control.len(),
            past.len()
        ));
    }
    let analysis = TemporalAnalysis::with_config(TemporalConfig {
        trials,
        ..TemporalConfig::default()
    });
    let res = analysis.run(&past, &present, control.addresses(), &SeedTree::new(seed));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "temporal uncleanliness (Eq. 5) over {trials} control draws: {}",
        if res.hypothesis_holds() {
            "HOLDS"
        } else {
            "does NOT hold"
        }
    );
    match res.predictive_band() {
        Some((lo, hi)) => {
            let _ = writeln!(out, "predictive band: /{lo} ..= /{hi}");
        }
        None => {
            let _ = writeln!(out, "no prefix length beats random draws");
        }
    }
    let fives = res.control.five_numbers();
    let _ = writeln!(out, "  n  observed  control-median");
    for (i, &n) in res.xs.iter().enumerate() {
        if n % 4 == 0 {
            let _ = writeln!(
                out,
                " {n:>2}  {:>8}  {:>14.1}",
                res.observed[i], fives[i].1.median
            );
        }
    }
    Ok(out)
}

/// `unclean blocklist --report R`: emit a deploy-ready deny list.
pub fn blocklist(
    report_path: &Path,
    prefix_len: u8,
    format_name: &str,
    aggregate: bool,
) -> Result<String, String> {
    if !(8..=32).contains(&prefix_len) {
        return Err(format!("prefix length {prefix_len} out of [8, 32]"));
    }
    let format = parse_format(format_name)?;
    let report = load_report(
        report_path,
        "report",
        ReportClass::Bots,
        Provenance::Provided,
    )?;
    let blocks = report.blocks(prefix_len);
    let cidrs = if aggregate {
        blocks.aggregate()
    } else {
        blocks.to_cidrs()
    };
    Ok(unclean_core::blocklist::render(
        &cidrs,
        format,
        &format!("unclean-{prefix_len}"),
    ))
}

/// `unclean blocklist freeze <scored-list> --out <snap>`: parse a
/// scored (or plain) text blocklist and write the mmap-able frozen-trie
/// snapshot `unclean serve` maps in O(1) (and co-located daemons share
/// via the page cache). Provenance from the list's header metadata
/// (`generation=G`) is carried into the snapshot header.
pub fn blocklist_freeze(list: &Path, out: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(list)
        .map_err(|e| format!("cannot read {}: {e}", list.display()))?;
    let scored = unclean_core::blocklist::parse_scored(&text)
        .map_err(|e| format!("cannot parse {}: {e}", list.display()))?;
    let meta = unclean_core::blocklist::parse_header_meta(&text)
        .map_err(|e| format!("corrupt header in {}: {e}", list.display()))?;
    let source_generation = meta.get("generation").and_then(|g| g.parse().ok());
    let entries = scored.len();
    let trie = unclean_core::frozen::FrozenTrie::from_scored(scored);
    let built_unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0);
    trie.freeze_to_file(
        out,
        unclean_core::snap::SnapshotMeta {
            built_unix_ms,
            source_generation,
        },
    )
    .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let info = unclean_core::snap::inspect(out).map_err(|e| e.to_string())?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "froze {entries} entries ({} nodes) from {} into {} ({} bytes)",
        info.node_count,
        list.display(),
        out.display(),
        info.file_len,
    );
    let _ = writeln!(
        report,
        "source generation: {}",
        source_generation
            .map(|g: u64| g.to_string())
            .unwrap_or_else(|| "none".into())
    );
    Ok(report)
}

/// `unclean snapshot inspect <snap>`: print a frozen snapshot's header,
/// section geometry, provenance, and the outcome of full CRC
/// verification.
pub fn snapshot_inspect(path: &Path) -> Result<String, String> {
    let info = unclean_core::snap::inspect(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = String::new();
    let _ = writeln!(out, "frozen-trie snapshot: {}", path.display());
    let _ = writeln!(out, "  version:      {}", info.version);
    let _ = writeln!(out, "  file length:  {} bytes", info.file_len);
    let _ = writeln!(
        out,
        "  nodes:        {} x 16 B at offset {}",
        info.node_count, info.nodes_off
    );
    let _ = writeln!(
        out,
        "  entries:      {} x 16 B at offset {}",
        info.entry_count, info.entries_off
    );
    let _ = writeln!(out, "  built:        unix_ms {}", info.meta.built_unix_ms);
    let _ = writeln!(
        out,
        "  source gen:   {}",
        info.meta
            .source_generation
            .map(|g| g.to_string())
            .unwrap_or_else(|| "none".into())
    );
    let _ = writeln!(
        out,
        "  crc:          header={:08x} nodes={:08x} entries={:08x} -> {}",
        info.header_crc,
        info.nodes_crc,
        info.entries_crc,
        if info.crc_ok { "OK" } else { "MISMATCH" }
    );
    if !info.crc_ok {
        return Err(format!(
            "{}: section CRC mismatch (file is corrupt)\n{out}",
            path.display()
        ));
    }
    Ok(out)
}

/// `unclean score --report class=path ...`: rank networks by combined
/// evidence.
pub fn score(inputs: &[(String, std::path::PathBuf)], prefix_len: u8) -> Result<String, String> {
    if inputs.is_empty() {
        return Err("score needs at least one class=path report".into());
    }
    let mut reports = Vec::new();
    for (class_name, path) in inputs {
        let class = parse_class(class_name)?;
        reports.push(load_report(path, class_name, class, Provenance::Provided)?);
    }
    let refs: Vec<&Report> = reports.iter().collect();
    let scorer = UncleanlinessScorer {
        prefix_len,
        ..UncleanlinessScorer::default()
    };
    let scores = scorer.score(&refs);
    let mut out = String::new();
    let _ = writeln!(out, "{} networks scored at /{prefix_len}:", scores.len());
    let _ = writeln!(
        out,
        "{:<20} {:>7} {:>5} {:>5} {:>5} {:>5}",
        "network", "score", "bot", "spam", "scan", "phish"
    );
    for ns in scores.iter().take(20) {
        let _ = writeln!(
            out,
            "{:<20} {:>7.2} {:>5} {:>5} {:>5} {:>5}",
            ns.network.to_string(),
            ns.score,
            ns.bots,
            ns.spamming,
            ns.scanning,
            ns.phishing
        );
    }
    Ok(out)
}

/// `unclean demo --out DIR`: generate synthetic paper-shaped report files
/// so the other commands can be tried without real data.
pub fn demo(out_dir: &Path, scale: f64, seed: u64) -> Result<String, String> {
    use unclean_detect::{build_reports, PipelineConfig};
    use unclean_netmodel::{Scenario, ScenarioConfig};
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let scenario = Scenario::generate(ScenarioConfig::at_scale(scale, seed));
    let reports = build_reports(&scenario, &PipelineConfig::paper());
    let mut out = String::new();
    let _ = writeln!(out, "synthetic reports (scale {scale}, seed {seed}):");
    for (name, report) in [
        ("bot.txt", &reports.bot),
        ("phish.txt", &reports.phish),
        ("scan.txt", &reports.scan),
        ("spam.txt", &reports.spam),
        ("bot-test.txt", &reports.bot_test),
        ("control.txt", &reports.control),
    ] {
        let path = out_dir.join(name);
        write_addresses(
            &path,
            report.addresses(),
            &format!(
                "R_{} | {} | {}",
                report.tag(),
                report.class(),
                report.period()
            ),
        )?;
        let _ = writeln!(out, "  {} ({} addresses)", path.display(), report.len());
    }
    Ok(out)
}

/// `unclean metrics <file> [--assert-zero a,b]`: pretty-print a telemetry
/// export. A `telemetry.json` snapshot renders as the stage tree with
/// counter rates; a `metrics.prom` exposition is validated and
/// summarized. `--assert-zero` fails (exit 1) when any named counter is
/// nonzero — absent series count as zero, so a clean run that never
/// declared the counter still passes.
pub fn metrics(path: &Path, assert_zero: &[String]) -> Result<String, String> {
    use unclean_telemetry::{prom, Snapshot};
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = String::new();
    if text.trim_start().starts_with('{') {
        let snap: Snapshot = serde_json::from_str(&text)
            .map_err(|e| format!("{} is not a telemetry snapshot: {e}", path.display()))?;
        out.push_str(&snap.render_tree());
        for name in assert_zero {
            let v = snap.counters.get(name).copied().unwrap_or(0);
            if v != 0 {
                return Err(format!(
                    "assert-zero failed: counter {name} is {v} in {}",
                    path.display()
                ));
            }
        }
    } else {
        let exposition = prom::parse(&text)
            .map_err(|e| format!("{} is not valid Prometheus text: {e}", path.display()))?;
        let _ = writeln!(
            out,
            "{}: valid Prometheus text ({} samples, {} typed series)",
            path.display(),
            exposition.samples.len(),
            exposition.types.len()
        );
        for sample in exposition.samples.iter().take(40) {
            let labels = if sample.labels.is_empty() {
                String::new()
            } else {
                let pairs: Vec<String> = sample
                    .labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v:?}"))
                    .collect();
                format!("{{{}}}", pairs.join(","))
            };
            let _ = writeln!(out, "  {}{labels} {}", sample.name, sample.raw_value);
        }
        if exposition.samples.len() > 40 {
            let _ = writeln!(out, "  … {} more", exposition.samples.len() - 40);
        }
        for name in assert_zero {
            let total: f64 = exposition
                .samples
                .iter()
                .filter(|s| s.name == *name)
                .map(|s| s.value)
                .sum();
            if total != 0.0 {
                return Err(format!(
                    "assert-zero failed: series {name} sums to {total} in {}",
                    path.display()
                ));
            }
        }
    }
    if !assert_zero.is_empty() {
        let _ = writeln!(out, "assert-zero: {} counter(s) clean", assert_zero.len());
    }
    Ok(out)
}

/// `unclean serve`: run the online blocklist query daemon until a client
/// sends `POST /quit`.
///
/// Blocks for the daemon's whole lifetime; the listening address is
/// printed to stdout immediately so scripts can scrape it (a daemon whose
/// stdout has no reader serves all the same), and the returned string is
/// the post-shutdown summary.
pub fn serve(config: unclean_serve::ServeConfig) -> Result<String, String> {
    use unclean_serve::Server;
    use unclean_telemetry::Registry;

    let registry = Registry::full();
    let (blocklist, forecast) = (config.source.clone(), config.forecast.clone());
    let server = Server::start(config, registry.clone()).map_err(|e| e.to_string())?;
    let _ = crate::io::print(&format!(
        "unclean-serve listening on http://{} (blocklist: {}{}, generation 1)\n\
         endpoints: /lookup?ip=A.B.C.D /batch /forecast?net=A.B.0.0/16 /healthz \
         /snapshot /metrics /metrics/history /trace /reload /quit\n",
        server.local_addr(),
        blocklist.display(),
        forecast
            .map(|f| format!(", forecast: {}", f.display()))
            .unwrap_or_default()
    ));
    server.wait();
    Ok(format!(
        "shut down cleanly: {} requests ({} blocked, {} clean answers), {} reload(s)\n",
        registry.counter_value("requests"),
        registry.counter_value("answers.blocked"),
        registry.counter_value("answers.clean"),
        registry.counter_value("reload.count"),
    ))
}

/// One raw HTTP/1.0 GET round trip against a daemon control/serving
/// port; returns the response body on any 2xx status.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("torn response from {addr}{path}: {text:?}"))?;
    match head.split_whitespace().nth(1) {
        Some(code) if code.starts_with('2') => Ok(body.to_string()),
        _ => Err(format!("{addr}{path} answered: {head}")),
    }
}

/// `unclean metrics --diff A.prom B.prom [--interval-secs S]`: what
/// changed between two Prometheus scrapes of the same daemon. Counter
/// series print their delta (and per-second rate when the scrape
/// interval is given); gauge series print before → after. Series whose
/// value did not move are suppressed.
pub fn metrics_diff(a: &Path, b: &Path, interval_secs: Option<f64>) -> Result<String, String> {
    use std::collections::BTreeMap;
    use unclean_telemetry::prom;
    let load = |path: &Path| -> Result<BTreeMap<String, f64>, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let exposition = prom::parse(&text)
            .map_err(|e| format!("{} is not valid Prometheus text: {e}", path.display()))?;
        let mut series = BTreeMap::new();
        for sample in &exposition.samples {
            let key = if sample.labels.is_empty() {
                sample.name.clone()
            } else {
                let pairs: Vec<String> = sample
                    .labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v:?}"))
                    .collect();
                format!("{}{{{}}}", sample.name, pairs.join(","))
            };
            series.insert(key, sample.value);
        }
        Ok(series)
    };
    let before = load(a)?;
    let after = load(b)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "metrics diff: {} -> {}{}",
        a.display(),
        b.display(),
        interval_secs.map_or(String::new(), |s| format!(" over {s}s"))
    );
    let (mut moved, mut unchanged) = (0usize, 0usize);
    for (key, new) in &after {
        let old = before.get(key).copied().unwrap_or(0.0);
        let delta = new - old;
        if delta == 0.0 {
            unchanged += 1;
            continue;
        }
        moved += 1;
        match interval_secs {
            Some(secs) if secs > 0.0 => {
                let _ = writeln!(
                    out,
                    "  {key}  {old} -> {new}  (+{delta}, {:.1}/s)",
                    delta / secs
                );
            }
            _ => {
                let _ = writeln!(out, "  {key}  {old} -> {new}  (+{delta})");
            }
        }
    }
    for key in before.keys() {
        if !after.contains_key(key) {
            moved += 1;
            let _ = writeln!(out, "  {key}  disappeared");
        }
    }
    let _ = writeln!(out, "{moved} series moved, {unchanged} unchanged");
    Ok(out)
}

/// `unclean trace export <addr|events.json> [--out FILE]`: produce a
/// Chrome/Perfetto `about:tracing` JSON trace. Given a daemon address,
/// fetches `/trace` (already chrome-format). Given a file of raw events
/// (`/trace?format=events` shape), converts it offline.
pub fn trace_export(target: &str, out: Option<&Path>) -> Result<String, String> {
    use unclean_telemetry::{chrome_trace_json, Snapshot, TraceEvent};
    let (chrome, origin) = if Path::new(target).is_file() {
        let text =
            std::fs::read_to_string(target).map_err(|e| format!("cannot read {target}: {e}"))?;
        if text.contains("\"traceEvents\"") {
            (text, format!("file {target} (already chrome-format)"))
        } else {
            let value: serde_json::Value =
                serde_json::from_str(&text).map_err(|e| format!("{target} is not JSON: {e}"))?;
            let events_json = value
                .get("events")
                .ok_or_else(|| format!("{target} has no \"events\" key"))?;
            let events: Vec<TraceEvent> = serde_json::from_str(
                &serde_json::to_string(events_json).map_err(|e| e.to_string())?,
            )
            .map_err(|e| format!("{target} events do not deserialize: {e}"))?;
            let n = events.len();
            (
                chrome_trace_json(&Snapshot::default(), &events, "unclean"),
                format!("file {target} ({n} raw events)"),
            )
        }
    } else {
        let body = http_get(target, "/trace")?;
        (body, format!("daemon {target}"))
    };
    match out {
        Some(path) => {
            std::fs::write(path, &chrome)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(format!(
                "exported chrome trace from {origin} to {} ({} bytes); open in \
                 chrome://tracing or https://ui.perfetto.dev\n",
                path.display(),
                chrome.len()
            ))
        }
        None => Ok(chrome),
    }
}

/// Unicode sparkline over a value series (empty input → empty string).
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                BARS[(((v / max) * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// `unclean top <addr> [--interval-ms N] [--iterations N] [--no-clear]`:
/// a live TTY dashboard over a daemon's `/metrics/history` flight
/// recorder — per-counter rates with sparklines, plus the health line.
/// Works against both `unclean serve` and the `unclean ingest` control
/// port. `--iterations 0` runs until the daemon goes away.
pub fn top(
    addr: &str,
    interval_ms: u64,
    iterations: u64,
    no_clear: bool,
) -> Result<String, String> {
    let mut iteration = 0u64;
    loop {
        iteration += 1;
        let body = http_get(addr, "/metrics/history")?;
        let value: serde_json::Value = serde_json::from_str(&body)
            .map_err(|e| format!("{addr}/metrics/history is not JSON: {e}"))?;
        let samples: Vec<unclean_telemetry::HistorySample> = match value.get("samples") {
            Some(s) => {
                let text = serde_json::to_string(s).map_err(|e| e.to_string())?;
                serde_json::from_str(&text)
                    .map_err(|e| format!("samples do not deserialize: {e}"))?
            }
            None => Vec::new(),
        };
        let health = http_get(addr, "/healthz").unwrap_or_else(|e| format!("unavailable ({e})"));

        let mut screen = String::new();
        let _ = writeln!(
            screen,
            "unclean top — {addr}  ({} history sample(s), refresh {}ms)",
            samples.len(),
            interval_ms
        );
        let _ = writeln!(screen, "health: {}", health.trim());
        if let Some(latest) = samples.last() {
            // Generation staleness at a glance: the blocklist line always
            // shows once the age gauge exists; the forecast line appears
            // only for daemons serving a `--forecast` artifact.
            let gauge = |name: &str| latest.gauges.get(name).copied();
            if let Some(age) = gauge("generation_age_secs") {
                let mut line = format!(
                    "blocklist: generation {:.0} age {age:.0}s",
                    gauge("snapshot.generation").unwrap_or(0.0)
                );
                if gauge("forecast.generation").is_some_and(|g| g > 0.0) {
                    let _ = write!(
                        line,
                        "  |  forecast: generation {:.0} age {:.0}s",
                        gauge("forecast.generation").unwrap_or(0.0),
                        gauge("forecast_generation_age_secs").unwrap_or(0.0)
                    );
                }
                let _ = writeln!(screen, "{line}");
            }
            // Every rate name seen anywhere in the window, so a counter
            // that just went quiet keeps its row (and its sparkline tail).
            let mut names: Vec<&String> = samples
                .iter()
                .flat_map(|s| s.rates.keys())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            // Busiest rows first; the terminal only has so many lines.
            names.sort_by(|a, b| {
                let ra = latest.rates.get(*a).copied().unwrap_or(0.0);
                let rb = latest.rates.get(*b).copied().unwrap_or(0.0);
                rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal)
            });
            let _ = writeln!(screen, "{:<34} {:>12}  trend", "counter", "rate/s");
            for name in names.iter().take(20) {
                let series: Vec<f64> = samples
                    .iter()
                    .map(|s| s.rates.get(*name).copied().unwrap_or(0.0))
                    .collect();
                let tail: Vec<f64> = series.iter().rev().take(40).rev().copied().collect();
                let _ = writeln!(
                    screen,
                    "{:<34} {:>12.1}  {}",
                    name,
                    latest.rates.get(*name).copied().unwrap_or(0.0),
                    sparkline(&tail)
                );
            }
            let mut gauges: Vec<(&String, &f64)> = latest.gauges.iter().collect();
            gauges.truncate(10);
            if !gauges.is_empty() {
                let _ = writeln!(screen, "{:<34} {:>12}", "gauge", "value");
                for (name, value) in gauges {
                    let _ = writeln!(screen, "{:<34} {:>12.1}", name, value);
                }
            }
        } else {
            let _ = writeln!(
                screen,
                "(no samples yet — the recorder fills one per interval)"
            );
        }

        let done = iterations != 0 && iteration >= iterations;
        if done {
            // Final frame goes through the normal return path so tests
            // (and shell pipelines) can capture it.
            return Ok(screen);
        }
        let clear = if no_clear { "" } else { "\x1b[2J\x1b[H" };
        match crate::io::print(&format!("{clear}{screen}")) {
            Ok(()) => {}
            // The reader has gone (`unclean top … | grep -q`): stop.
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return Ok(String::new()),
            Err(e) => return Err(format!("cannot write to stdout: {e}")),
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("unclean-cli-cmd").join(name);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    fn write_file(dir: &Path, name: &str, addrs: &[&str]) -> std::path::PathBuf {
        let path = dir.join(name);
        let body: String = addrs.iter().map(|a| format!("{a}\n")).collect();
        std::fs::write(&path, body).expect("write");
        path
    }

    #[test]
    fn metrics_diff_reports_moved_series_and_rates() {
        let dir = tmp_dir("metrics-diff");
        let a = dir.join("a.prom");
        let b = dir.join("b.prom");
        std::fs::write(
            &a,
            "# TYPE unclean_requests counter\nunclean_requests 10\nunclean_reloads 5\nunclean_gone 2\n",
        )
        .expect("write a");
        std::fs::write(
            &b,
            "# TYPE unclean_requests counter\nunclean_requests 25\nunclean_reloads 5\nunclean_drops 3\n",
        )
        .expect("write b");
        let out = metrics_diff(&a, &b, Some(5.0)).expect("diff");
        assert!(
            out.contains("unclean_requests  10 -> 25  (+15, 3.0/s)"),
            "{out}"
        );
        assert!(out.contains("unclean_drops  0 -> 3"), "{out}");
        assert!(
            !out.contains("unclean_reloads"),
            "unchanged series must be suppressed: {out}"
        );
        assert!(out.contains("unclean_gone  disappeared"), "{out}");
        // Requests and drops moved, gone disappeared; reloads held still.
        assert!(out.ends_with("3 series moved, 1 unchanged\n"), "{out}");
        // Without an interval there is no rate column.
        let out = metrics_diff(&a, &b, None).expect("diff");
        assert!(out.contains("(+15)"), "{out}");
        // Garbage input is a parse error, not a panic.
        std::fs::write(&a, "{not prometheus").expect("write");
        assert!(metrics_diff(&a, &b, None).is_err());
    }

    #[test]
    fn trace_export_converts_raw_events_offline() {
        use unclean_telemetry::{TraceEvent, TraceKind};
        let dir = tmp_dir("trace-export");
        let events = vec![
            TraceEvent::now(TraceKind::Publish)
                .generation(7)
                .dur_ns(1500),
            TraceEvent::now(TraceKind::Lookup)
                .generation(1)
                .source_generation(7)
                .dur_ns(900),
        ];
        let raw = dir.join("events.json");
        std::fs::write(
            &raw,
            format!(
                "{{\"events\":{}}}",
                serde_json::to_string(&events).expect("serialize")
            ),
        )
        .expect("write");
        let out_path = dir.join("chrome.json");
        let msg = trace_export(raw.to_str().expect("utf8"), Some(&out_path)).expect("export");
        assert!(msg.contains("2 raw events"), "{msg}");
        let chrome = std::fs::read_to_string(&out_path).expect("read");
        let value: serde_json::Value = serde_json::from_str(&chrome).expect("chrome JSON");
        let entries = value
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert!(
            entries
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("publish")),
            "{chrome}"
        );
        // A chrome-format file passes through unchanged; with no --out the
        // JSON itself is the command output.
        let through = trace_export(out_path.to_str().expect("utf8"), None).expect("passthrough");
        assert_eq!(through, chrome);
    }

    #[test]
    fn inspect_profiles_a_report() {
        let dir = tmp_dir("inspect");
        let path = write_file(
            &dir,
            "r.txt",
            &["9.1.1.1", "9.1.1.2", "9.1.2.1", "10.0.0.1"],
        );
        let out = inspect(&path, ParseMode::Strict, false).expect("ok");
        assert!(out.contains("4 addresses"));
        assert!(out.contains("/24 3"), "{out}");
        assert!(out.contains("top /16s"));
    }

    #[test]
    fn inspect_lenient_reports_quarantine() {
        let dir = tmp_dir("inspect-lenient");
        let path = write_file(&dir, "r.txt", &["9.1.1.1", "oops", "9.1.1.2"]);
        // Strict aborts with the line number…
        let err = inspect(&path, ParseMode::Strict, false).expect_err("strict");
        assert!(err.contains("line 2"), "{err}");
        // …lenient loads the valid addresses and reports the quarantine.
        let out = inspect(&path, ParseMode::Lenient { max_bad: 10 }, false).expect("lenient");
        assert!(out.contains("2 addresses"), "{out}");
        assert!(out.contains("quarantined 1"), "{out}");
        assert!(out.contains("line 2"), "{out}");
        // …and the budget still binds.
        let err = inspect(&path, ParseMode::Lenient { max_bad: 0 }, false).expect_err("budget");
        assert!(err.contains("--max-bad budget of 0"), "{err}");
    }

    #[test]
    fn spatial_on_clustered_vs_scattered() {
        let dir = tmp_dir("spatial");
        // Clustered report: one /24.
        let report: Vec<String> = (1..=40).map(|i| format!("9.1.1.{i}")).collect();
        let report_refs: Vec<&str> = report.iter().map(String::as_str).collect();
        let r = write_file(&dir, "r.txt", &report_refs);
        // Scattered control: one host per /16.
        let control: Vec<String> = (0..250u32)
            .flat_map(|i| (0..4u32).map(move |j| format!("11.{i}.{j}.7")))
            .collect();
        let control_refs: Vec<&str> = control.iter().map(String::as_str).collect();
        let c = write_file(&dir, "c.txt", &control_refs);
        let out = spatial(&r, &c, 50, 1).expect("ok");
        assert!(out.contains("HOLDS"), "{out}");
    }

    #[test]
    fn spatial_rejects_small_control() {
        let dir = tmp_dir("spatial-small");
        let r = write_file(&dir, "r.txt", &["1.1.1.1", "2.2.2.2"]);
        let c = write_file(&dir, "c.txt", &["3.3.3.3"]);
        assert!(spatial(&r, &c, 10, 1).is_err());
    }

    #[test]
    fn temporal_self_prediction() {
        let dir = tmp_dir("temporal");
        let past: Vec<String> = (0..20).map(|i| format!("9.1.{i}.5")).collect();
        let past_refs: Vec<&str> = past.iter().map(String::as_str).collect();
        let p = write_file(&dir, "p.txt", &past_refs);
        let present: Vec<String> = (0..20).map(|i| format!("9.1.{i}.200")).collect();
        let present_refs: Vec<&str> = present.iter().map(String::as_str).collect();
        let q = write_file(&dir, "q.txt", &present_refs);
        let control: Vec<String> = (0..200u32)
            .flat_map(|i| (0..5u32).map(move |j| format!("11.{}.{}.7", i % 250, (i / 250) * 5 + j)))
            .collect();
        let control_refs: Vec<&str> = control.iter().map(String::as_str).collect();
        let c = write_file(&dir, "c.txt", &control_refs);
        let out = temporal(&p, &q, &c, 50, 1).expect("ok");
        assert!(out.contains("HOLDS"), "{out}");
        assert!(out.contains("predictive band"));
    }

    #[test]
    fn blocklist_formats_and_aggregation() {
        let dir = tmp_dir("blocklist");
        let r = write_file(
            &dir,
            "r.txt",
            &["9.1.0.1", "9.1.1.1"], // adjacent /24s → one /23 when aggregated
        );
        let plain = blocklist(&r, 24, "plain", false).expect("ok");
        assert!(plain.contains("9.1.0.0/24"));
        assert!(plain.contains("9.1.1.0/24"));
        let agg = blocklist(&r, 24, "plain", true).expect("ok");
        assert!(agg.contains("9.1.0.0/23"), "{agg}");
        assert!(!agg.contains("/24"));
        let cisco = blocklist(&r, 24, "cisco", false).expect("ok");
        assert!(cisco.contains("deny ip 9.1.0.0 0.0.0.255 any"));
        assert!(blocklist(&r, 40, "plain", false).is_err());
        assert!(blocklist(&r, 24, "xml", false).is_err());
    }

    #[test]
    fn score_ranks_networks() {
        let dir = tmp_dir("score");
        let bot = write_file(&dir, "bot.txt", &["9.1.0.1", "9.1.0.2"]);
        let spam = write_file(&dir, "spam.txt", &["9.1.0.3", "10.0.0.1"]);
        let out = score(&[("bot".into(), bot), ("spam".into(), spam)], 16).expect("ok");
        assert!(
            out.lines().nth(2).expect("rows").starts_with("9.1.0.0/16"),
            "{out}"
        );
    }

    #[test]
    fn demo_generates_loadable_reports() {
        let dir = tmp_dir("demo");
        let out = demo(&dir, 0.001, 7).expect("ok");
        assert!(out.contains("bot.txt"));
        let bot = load_report(
            &dir.join("bot.txt"),
            "bot",
            ReportClass::Bots,
            Provenance::Provided,
        )
        .expect("loadable");
        assert!(!bot.is_empty());
        let control = load_report(
            &dir.join("control.txt"),
            "control",
            ReportClass::Control,
            Provenance::Observed,
        )
        .expect("loadable");
        assert!(control.len() > bot.len());
    }

    fn sample_registry() -> unclean_telemetry::Registry {
        let registry = unclean_telemetry::Registry::full();
        registry.counter("detect.flows_ingested").add(1234);
        registry.counter("ingest.quarantined_lines");
        {
            let _span = registry.span("pipeline");
        }
        registry
    }

    #[test]
    fn metrics_renders_snapshot_json_and_asserts_zero() {
        let dir = tmp_dir("metrics-json");
        let snap = sample_registry().snapshot();
        let path = dir.join("telemetry.json");
        std::fs::write(&path, serde_json::to_string(&snap).expect("serialize")).expect("write");
        let out = metrics(&path, &["ingest.quarantined_lines".into()]).expect("clean");
        assert!(out.contains("detect.flows_ingested"), "{out}");
        assert!(out.contains("pipeline"), "{out}");
        assert!(out.contains("assert-zero: 1 counter(s) clean"), "{out}");
        // Absent counters count as zero; nonzero ones fail.
        metrics(&path, &["never.declared".into()]).expect("absent is zero");
        let err = metrics(&path, &["detect.flows_ingested".into()]).expect_err("nonzero fails");
        assert!(err.contains("1234"), "{err}");
    }

    #[test]
    fn serve_runs_answers_and_quits() {
        use std::io::{Read as _, Write as _};
        let dir = tmp_dir("serve");
        let list = dir.join("list.txt");
        std::fs::write(&list, "9.1.0.0/16 # score=2.0\n").expect("write");
        // Reserve a free port, release it, and serve there: `serve`
        // prints the bound address to stdout, which an in-process test
        // cannot capture, so ephemeral port 0 is not usable here.
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe");
            probe.local_addr().expect("addr").port()
        };
        let addr = format!("127.0.0.1:{port}");
        let daemon = {
            let list = list.clone();
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut config = unclean_serve::ServeConfig::new(list);
                config.core.addr = addr;
                config.core.threads = 2;
                config.core.max_conns = 64;
                config.core.read_timeout = std::time::Duration::from_secs(2);
                config.core.trace_sample = 4;
                config.core.history_interval = Some(std::time::Duration::from_millis(200));
                serve(config)
            })
        };
        let http = |req: String| -> String {
            // The daemon may still be binding; retry the connect briefly.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                match std::net::TcpStream::connect(&addr) {
                    Ok(mut stream) => {
                        stream.write_all(req.as_bytes()).expect("write");
                        let mut text = String::new();
                        stream.read_to_string(&mut text).expect("read");
                        return text;
                    }
                    Err(e) if std::time::Instant::now() < deadline => {
                        let _ = e;
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    Err(e) => panic!("daemon never came up: {e}"),
                }
            }
        };
        let health = http("GET /healthz HTTP/1.0\r\n\r\n".into());
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");
        let hit = http("GET /lookup?ip=9.1.1.7 HTTP/1.0\r\n\r\n".into());
        assert!(hit.contains("\"blocked\":true"), "{hit}");
        // The observability endpoints the new flags switch on.
        let trace = http("GET /trace HTTP/1.0\r\n\r\n".into());
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        let history = http("GET /metrics/history HTTP/1.0\r\n\r\n".into());
        assert!(history.contains("\"interval_secs\""), "{history}");
        let metrics = http("GET /metrics HTTP/1.0\r\n\r\n".into());
        assert!(metrics.contains("unclean_serve_build_info"), "{metrics}");
        assert!(metrics.contains("process_start_time_seconds"), "{metrics}");
        let quit = http("POST /quit HTTP/1.0\r\nContent-Length: 0\r\n\r\n".into());
        assert!(quit.starts_with("HTTP/1.0 200"), "{quit}");
        let summary = daemon.join().expect("join").expect("serve ok");
        assert!(summary.contains("shut down cleanly"), "{summary}");
        assert!(summary.contains("1 blocked"), "{summary}");
    }

    #[test]
    fn metrics_validates_prometheus_text_and_asserts_zero() {
        let dir = tmp_dir("metrics-prom");
        let text = unclean_telemetry::prom::render(&sample_registry().snapshot(), "unclean");
        let path = dir.join("metrics.prom");
        std::fs::write(&path, text).expect("write");
        let out = metrics(&path, &["unclean_ingest_quarantined_lines".into()]).expect("clean");
        assert!(out.contains("valid Prometheus text"), "{out}");
        assert!(out.contains("unclean_detect_flows_ingested"), "{out}");
        let err =
            metrics(&path, &["unclean_detect_flows_ingested".into()]).expect_err("nonzero fails");
        assert!(err.contains("1234"), "{err}");
        // Malformed exposition is an error, not a silent pass.
        let bad = dir.join("torn.prom");
        std::fs::write(&bad, "no spaces here!{").expect("write");
        assert!(metrics(&bad, &[]).is_err());
    }
}
