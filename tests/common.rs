//! Shared fixtures for the cross-crate integration tests.
//!
//! Every integration target exercises the same end-to-end object: a small
//! paper-shaped scenario pushed through the full detector pipeline. The
//! fixture is generated once per test process and shared.

use std::sync::OnceLock;
use unclean_detect::{build_reports, PipelineConfig, ReportSet};
use unclean_flowgen::{encode_datagram, Flow, V5Header, V5Record, V5_MAX_RECORDS};
use unclean_netmodel::{Scenario, ScenarioConfig};

/// The scale every integration test runs at: large enough for the
/// statistical shapes to be stable, small enough to finish in seconds.
pub const TEST_SCALE: f64 = 0.002;

/// The master seed shared by the integration fixtures.
pub const TEST_SEED: u64 = 20061001;

/// A generated scenario plus its full report inventory.
pub struct Fixture {
    /// The scenario (world, infections, phishing, campaigns).
    pub scenario: Scenario,
    /// The Table 1 / Table 2 report set.
    pub reports: ReportSet,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

/// The shared fixture, generated on first use.
pub fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let scenario = Scenario::generate(ScenarioConfig::at_scale(TEST_SCALE, TEST_SEED));
        let reports = build_reports(&scenario, &PipelineConfig::paper());
        Fixture { scenario, reports }
    })
}

/// Number of control-ensemble trials used in the integration tests (the
/// paper uses 1000; a tenth of that keeps CI fast while the 95% criterion
/// stays meaningful).
pub const TEST_TRIALS: usize = 100;

/// `flows` as a v1 flow archive: runs of 30 as V5 export datagrams with
/// contiguous sequence numbers, each framed by its big-endian u16 length.
pub fn frame_v1(flows: &[Flow], boot: u32) -> Vec<u8> {
    let mut out = Vec::new();
    for (k, chunk) in flows.chunks(V5_MAX_RECORDS).enumerate() {
        let records: Vec<V5Record> = chunk.iter().map(|f| f.to_v5(boot)).collect();
        let header = V5Header {
            count: records.len() as u16,
            unix_secs: boot,
            flow_sequence: (k * V5_MAX_RECORDS) as u32,
            ..V5Header::default()
        };
        let wire = encode_datagram(&header, &records);
        out.extend((wire.len() as u16).to_be_bytes().into_iter().chain(wire));
    }
    out
}
