//! Cross-crate pipeline coherence: the report inventory's metadata, the
//! relationships between reports, and the NetFlow substrate's fidelity
//! along the way.

use unclean_core::prelude::*;
use unclean_flowgen::{decode_datagram, encode_datagram, FlowGenerator, GeneratorConfig, V5Header};
use unclean_integration::fixture;
use unclean_stats::SeedTree;

#[test]
fn inventory_matches_table1_structure() {
    let f = fixture();
    let r = &f.reports;
    // Tags, classes and provenance per Table 1.
    assert_eq!(r.bot.tag(), "bot");
    assert_eq!(r.bot.class(), ReportClass::Bots);
    assert_eq!(r.bot.provenance(), Provenance::Provided);
    assert_eq!(r.phish.class(), ReportClass::Phishing);
    assert_eq!(r.phish.provenance(), Provenance::Provided);
    assert_eq!(r.scan.class(), ReportClass::Scanning);
    assert_eq!(r.scan.provenance(), Provenance::Observed);
    assert_eq!(r.spam.class(), ReportClass::Spamming);
    assert_eq!(r.spam.provenance(), Provenance::Observed);
    assert_eq!(r.control.class(), ReportClass::Control);
    assert_eq!(r.unclean.class(), ReportClass::Special);
    // Periods per Table 1.
    assert_eq!(r.bot.period().start.to_string(), "2006-10-01");
    assert_eq!(r.bot.period().end.to_string(), "2006-10-14");
    assert_eq!(r.phish.period().start.to_string(), "2006-05-01");
    assert_eq!(r.bot_test.period().start.to_string(), "2006-05-10");
    assert_eq!(r.control.period().start.to_string(), "2006-09-25");
}

#[test]
fn size_ordering_matches_table1() {
    let f = fixture();
    let r = &f.reports;
    assert!(r.control.len() > r.bot.len());
    assert!(r.bot.len() > r.spam.len());
    assert!(r.spam.len() > r.scan.len());
    assert!(
        r.scan.len() > r.phish.len() / 2,
        "scan is within reach of phish scale"
    );
    assert!(r.bot_test.len() <= 186);
    assert!(r.bot_test.len() >= 30);
}

#[test]
fn unclean_union_is_exact() {
    let f = fixture();
    let r = &f.reports;
    let manual = r
        .bot
        .addresses()
        .union(r.phish.addresses())
        .union(r.scan.addresses())
        .union(r.spam.addresses());
    assert_eq!(r.unclean.addresses(), &manual);
    // "note that there is overlap": the union is smaller than the sum.
    let sum: usize = r.unclean_reports().iter().map(|x| x.len()).sum();
    assert!(r.unclean.len() < sum, "cross-indicator overlap exists");
}

#[test]
fn scan_and_bot_reports_overlap_like_figure_1() {
    // Figure 1's phenomenon: a sizable fraction of bot addresses also
    // appear in the scan report (the paper saw up to 35% during campaign
    // peaks; baseline overlap is lower but must be present).
    let f = fixture();
    let overlap = f
        .reports
        .bot
        .addresses()
        .intersect(f.reports.scan.addresses());
    assert!(
        overlap.len() * 20 >= f.reports.scan.len(),
        "scanners are drawn from the bot population: {} of {}",
        overlap.len(),
        f.reports.scan.len()
    );
}

#[test]
fn phishing_is_disjoint_from_the_botnet_ecosystem() {
    // The mechanism behind Figure 4(ii): phishing hosts live on hosting
    // infrastructure, not in the compromised population.
    let f = fixture();
    let with_bot = f
        .reports
        .phish
        .addresses()
        .intersect(f.reports.bot.addresses());
    assert!(
        with_bot.len() * 20 < f.reports.phish.len().max(20),
        "phish/bot overlap should be negligible: {}",
        with_bot.len()
    );
}

#[test]
fn no_report_contains_reserved_or_observed_addresses() {
    let f = fixture();
    let observed = &f.scenario.observed;
    for report in [
        &f.reports.bot,
        &f.reports.phish,
        &f.reports.scan,
        &f.reports.spam,
        &f.reports.control,
        &f.reports.bot_test,
    ] {
        for ip in report.addresses().iter() {
            assert!(!ip.is_reserved(), "{}: reserved {ip}", report.tag());
            assert!(
                !observed.contains(ip),
                "{}: inside observed {ip}",
                report.tag()
            );
        }
    }
}

#[test]
fn border_flows_round_trip_the_v5_wire_format() {
    // Generate a real day's worth of candidate-block flows, export them as
    // V5 datagrams, decode, and verify nothing is lost.
    let f = fixture();
    let model = f.scenario.activity();
    let generator = FlowGenerator::new(
        &f.scenario.observed,
        GeneratorConfig::default(),
        f.scenario.seeds.child("v5-test"),
    );
    let mut flows = Vec::new();
    let day = f.scenario.dates.unclean_window.start;
    model.hostile_events_on(day, |e| {
        if flows.len() < 2_000 {
            generator.expand(&e, |fl| flows.push(fl));
        }
    });
    assert!(flows.len() >= 30, "enough flows to fill a datagram");

    let boot = unclean_flowgen::record::EPOCH_UNIX_SECS + 86_400 * 270;
    let mut sequence = 0u32;
    for chunk in flows.chunks(30) {
        let records: Vec<_> = chunk.iter().map(|fl| fl.to_v5(boot)).collect();
        let header = V5Header {
            count: records.len() as u16,
            sys_uptime_ms: 0,
            unix_secs: boot,
            unix_nsecs: 0,
            flow_sequence: sequence,
            engine_type: 0,
            engine_id: 0,
            sampling_interval: 0,
        };
        let wire = encode_datagram(&header, &records);
        let (h, decoded) = decode_datagram(&wire).expect("well-formed datagram");
        assert_eq!(h.flow_sequence, sequence);
        assert_eq!(decoded, records);
        for (orig, dec) in chunk.iter().zip(&decoded) {
            let back = unclean_flowgen::Flow::from_v5(dec, boot);
            assert_eq!(&back, orig, "flow survives the wire");
        }
        sequence += records.len() as u32;
    }
}

#[test]
fn scenario_regeneration_is_bit_identical() {
    use unclean_netmodel::{Scenario, ScenarioConfig};
    let a = Scenario::generate(ScenarioConfig::at_scale(
        unclean_integration::TEST_SCALE,
        unclean_integration::TEST_SEED,
    ));
    let f = fixture();
    assert_eq!(a.infections, f.scenario.infections);
    assert_eq!(a.phish_sites, f.scenario.phish_sites);
    assert_eq!(a.bot_test_addrs(), f.scenario.bot_test_addrs());
}

#[test]
fn control_report_is_a_plausible_internet_sample() {
    let f = fixture();
    let control = f.reports.control.addresses();
    // Spans many /8s.
    let slash8s: std::collections::HashSet<u8> = control.iter().map(|ip| ip.slash8()).collect();
    assert!(slash8s.len() > 30, "control spans {} /8s", slash8s.len());
    // Multifractal: /24 blocks ≪ addresses (clustering), yet ≫ /16 blocks.
    let counts = f.reports.control.block_counts();
    assert!(counts.at(24) < control.len() as u64);
    assert!(counts.at(24) > counts.at(16));
    // The sampling API the analyses depend on works at this size.
    let mut rng = SeedTree::new(9).stream("sanity");
    let sub = control.sample(&mut rng, 1000).expect("plenty");
    assert_eq!(sub.len(), 1000);
}
