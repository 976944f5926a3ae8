//! The forecasting layer, end to end at the workspace level: a seeded
//! scenario's flows written into a v2 indexed archive → per-/16 daily
//! report series via one strict segment walk → Holt level+trend fit →
//! held-out scoring against the persistence baseline → generation-stamped
//! artifact served and hot-reloaded by `unclean-serve`.

use crossbeam::executor::Executor;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use unclean_core::{publish_atomic, Day};
use unclean_flowgen::record::EPOCH_UNIX_SECS;
use unclean_flowgen::{FlowGenerator, GeneratorConfig, IndexedArchiveWriter};
use unclean_forecast::{evaluate, DailySeries, ForecastArtifact, ForecastConfig, ForecastModel};
use unclean_netmodel::{Scenario, ScenarioConfig};
use unclean_serve::{ServeConfig, Server};
use unclean_telemetry::{Registry, TraceEvent, TraceKind};

/// Days of flow history synthesized into the shared archive.
const ARCHIVE_DAYS: u32 = 40;

/// A smoke-scale v2 indexed archive of hostile flows, generated once per
/// test process — the same object `unclean forecast synth` publishes.
fn archive_bytes() -> &'static [u8] {
    static ARCHIVE: OnceLock<Vec<u8>> = OnceLock::new();
    ARCHIVE.get_or_init(|| {
        let scenario = Scenario::generate(ScenarioConfig::at_scale(0.002, 11));
        let model = scenario.activity();
        let generator = FlowGenerator::new(
            &scenario.observed,
            GeneratorConfig::default(),
            scenario.seeds.child("flowgen"),
        );
        let mut writer = IndexedArchiveWriter::new(Vec::new(), EPOCH_UNIX_SECS);
        let start = scenario.dates.full_span.start;
        let mut write_error = None;
        for i in 0..ARCHIVE_DAYS {
            generator.flows_on(&model, Day(start.0 + i as i32), false, |flow| {
                if write_error.is_none() {
                    if let Err(e) = writer.push(&flow) {
                        write_error = Some(e.to_string());
                    }
                }
            });
        }
        assert_eq!(write_error, None);
        let (bytes, index) = writer.finish().expect("finish archive");
        assert!(!index.segments.is_empty());
        bytes
    })
}

fn archive_series() -> DailySeries {
    let (series, _telemetry) = DailySeries::from_archive(archive_bytes(), None).expect("series");
    series
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("unclean-forecast-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// One blocking HTTP/1.0 exchange; retries the connect until the daemon
/// answers. Returns the raw response.
fn http(addr: &str, request: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(mut stream) => {
                stream.write_all(request.as_bytes()).expect("write");
                let mut text = String::new();
                stream.read_to_string(&mut text).expect("read");
                return text;
            }
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("daemon never came up at {addr}: {e}"),
        }
    }
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("")
}

#[test]
fn model_beats_persistence_on_archived_series() {
    // The acceptance claim at smoke scale: trained through the archive
    // read path, the smoother's held-out Brier score beats carrying the
    // last observed count forward.
    let series = archive_series();
    let config = ForecastConfig::default();
    let train = series.days() - config.horizon_days as usize;
    let pool = Executor::new(2);
    let report = evaluate(&series, train, &config, &pool).expect("evaluate");
    assert!(
        report.networks > 10,
        "too few networks: {}",
        report.networks
    );
    assert!(
        report.beats_persistence(),
        "model brier {} vs persistence {}",
        report.model_brier,
        report.persistence_brier
    );
    assert!(report.brier_skill() > 0.0);
}

#[test]
fn fit_and_eval_are_thread_count_invariant() {
    // Byte-identical artifacts and identical held-out scores whether the
    // fit fans out over 1 thread or 8.
    let series = archive_series();
    let config = ForecastConfig::default();
    let one = Executor::new(1);
    let eight = Executor::new(8);

    let render = |pool: &Executor| {
        let model = ForecastModel::fit(&series, &config, pool);
        let mut artifact = ForecastArtifact::from_model(&model, "determinism");
        artifact.generation = Some(3);
        artifact.render()
    };
    let text_one = render(&one);
    let text_eight = render(&eight);
    assert_eq!(text_one, text_eight, "artifact bytes diverge across pools");

    // Render → parse → render is also byte-stable on the fitted state.
    let reparsed = ForecastArtifact::parse(&text_one).expect("parse");
    assert_eq!(reparsed.render(), text_one);

    let train = series.days() - config.horizon_days as usize;
    let report_one = evaluate(&series, train, &config, &one).expect("evaluate");
    let report_eight = evaluate(&series, train, &config, &eight).expect("evaluate");
    assert_eq!(report_one, report_eight);
}

#[test]
fn forecast_endpoint_hot_reloads_generations() {
    // Serve boots with a generation-stamped forecast artifact, answers
    // /forecast with the full schema, then picks up an atomically
    // republished artifact through the watcher — no restart.
    let dir = tmp_dir("hot-reload");
    let series = archive_series();
    let config = ForecastConfig::default();
    let pool = Executor::new(2);
    let model = ForecastModel::fit(&series, &config, &pool);
    let mut artifact = ForecastArtifact::from_model(&model, "e2e");
    artifact.generation = Some(1);

    let forecast_path = dir.join("forecast.txt");
    publish_atomic(&forecast_path, |f| {
        f.write_all(artifact.render().as_bytes())
    })
    .expect("publish");
    let blocklist = dir.join("blocklist.txt");
    std::fs::write(&blocklist, "203.0.113.0/24 # score=1.0\n").expect("blocklist");

    let mut serve = ServeConfig::new(&blocklist);
    serve.core.addr = "127.0.0.1:0".to_string();
    serve.core.threads = 2;
    serve.watch = Some(Duration::from_millis(50));
    serve.forecast = Some(forecast_path.clone());
    let server = Server::start(serve, Registry::full()).expect("serve");
    let addr = server.local_addr().to_string();

    let known = artifact.entries.first().expect("nonempty model").network;
    let query = format!(
        "GET /forecast?net={}.{}.0.0/16&horizon=3 HTTP/1.0\r\n\r\n",
        known >> 8,
        known & 255
    );
    let body = body_of(&http(&addr, &query)).to_string();
    for field in [
        "\"known\":true",
        "\"horizon_days\":3",
        "\"predicted_rate\":",
        "\"ci_low\":",
        "\"ci_high\":",
        "\"score_half_life\":",
        "\"generation\":1",
        "\"source_generation\":1",
    ] {
        assert!(body.contains(field), "missing {field} in {body}");
    }

    // Republish with a new source generation, exactly as `forecast fit`
    // does it (tmp + rename), and wait for the watcher.
    artifact.generation = Some(7);
    publish_atomic(&forecast_path, |f| {
        f.write_all(artifact.render().as_bytes())
    })
    .expect("republish");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let body = body_of(&http(&addr, &query)).to_string();
        if body.contains("\"generation\":2") && body.contains("\"source_generation\":7") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watcher never reloaded the forecast: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // An unseen network answers known:false instead of erroring.
    let miss = body_of(&http(
        &addr,
        "GET /forecast?net=255.255.0.0/16 HTTP/1.0\r\n\r\n",
    ))
    .to_string();
    assert!(miss.contains("\"known\":false"), "{miss}");

    let quit = http(&addr, "POST /quit HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
    assert!(quit.starts_with("HTTP/1.0 200"), "{quit}");
    server.wait();
}

/// The value of one `/metrics` sample, if exported.
fn metric(addr: &str, name: &str) -> Option<f64> {
    let text = http(addr, "GET /metrics HTTP/1.0\r\n\r\n");
    body_of(&text).lines().find_map(|line| {
        let (series, value) = line.split_once(' ')?;
        (series == name).then(|| value.parse().ok())?
    })
}

/// One JSON answer from the daemon.
fn json(addr: &str, request: &str) -> serde_json::Value {
    let text = http(addr, request);
    serde_json::from_str(body_of(&text)).unwrap_or_else(|e| panic!("{e}: {text}"))
}

/// A numeric member of a JSON answer.
fn num(answer: &serde_json::Value, key: &str) -> Option<u64> {
    answer.get(key).and_then(serde_json::Value::as_u64)
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "never saw {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A forecast republished as garbage is refused: the watcher counts the
/// failed rebuild, `/forecast` keeps answering from the last good
/// generation, the blocklist does not move, and `POST /reload` reports
/// the forecast rebuild that rode along as `null`.
#[test]
fn a_garbage_forecast_keeps_serving_the_last_good_generation() {
    let dir = tmp_dir("garbage-reload");
    let model = ForecastModel::fit(
        &archive_series(),
        &ForecastConfig::default(),
        &Executor::new(2),
    );
    let mut artifact = ForecastArtifact::from_model(&model, "e2e");
    artifact.generation = Some(7);
    let forecast_path = dir.join("forecast.txt");
    let publish = |text: &str| {
        publish_atomic(&forecast_path, |f| f.write_all(text.as_bytes())).expect("publish")
    };
    publish(&artifact.render());
    let blocklist = dir.join("blocklist.txt");
    std::fs::write(&blocklist, "203.0.113.0/24 # score=1.0\n").expect("blocklist");

    let mut serve = ServeConfig::new(&blocklist);
    serve.core.threads = 1;
    serve.watch = Some(Duration::from_millis(50));
    serve.forecast = Some(forecast_path.clone());
    let server = Server::start(serve, Registry::full()).expect("serve");
    let addr = server.local_addr().to_string();
    let known = artifact.entries.first().expect("nonempty model").network;
    let query = format!(
        "GET /forecast?net={}.{}.0.0/16 HTTP/1.0\r\n\r\n",
        known >> 8,
        known & 255
    );
    let forecast = || json(&addr, &query);

    // A good republish (a new inode) is forecast generation 2.
    publish(&artifact.render());
    wait_for("forecast generation 2", || {
        num(&forecast(), "generation") == Some(2)
    });
    publish("# forecast: garbage\nnot-a-network level=1\n");
    wait_for("the failed rebuild counted", || {
        metric(&addr, "unclean_serve_forecast_reload_errors") == Some(1.0)
    });
    let answer = forecast();
    assert_eq!(num(&answer, "generation"), Some(2), "{answer:?}");
    assert_eq!(num(&answer, "source_generation"), Some(7), "{answer:?}");
    let snapshot = json(&addr, "GET /snapshot HTTP/1.0\r\n\r\n");
    assert_eq!(num(&snapshot, "generation"), Some(1), "{snapshot:?}");
    assert_eq!(
        num(&snapshot, "forecast_generation"),
        Some(2),
        "{snapshot:?}"
    );

    let reload = json(&addr, "POST /reload HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(num(&reload, "generation"), Some(2), "{reload:?}");
    let forecast_generation = reload.get("forecast_generation");
    assert!(
        forecast_generation.is_some_and(serde_json::Value::is_null),
        "{reload:?}"
    );
    assert_eq!(
        metric(&addr, "unclean_serve_forecast_reload_errors"),
        Some(2.0)
    );

    // The good reload is on the trace ring, tagged and linked upstream.
    let trace = json(&addr, "GET /trace?format=events HTTP/1.0\r\n\r\n");
    let events = trace.get("events").expect("events");
    let events: Vec<TraceEvent> =
        serde_json::from_str(&serde_json::to_string(events).expect("reserialize"))
            .expect("events deserialize");
    let tagged = ("artifact".to_string(), "forecast".to_string());
    assert!(
        events.iter().any(|e| e.kind == TraceKind::Reload
            && e.fields.contains(&tagged)
            && e.generation == Some(2)
            && e.source_generation == Some(7)),
        "{events:?}"
    );

    let quit = http(&addr, "POST /quit HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
    assert!(quit.starts_with("HTTP/1.0 200"), "{quit}");
    server.wait();
}
