//! # unclean-serve — online blocklist query daemon
//!
//! The paper's punchline (Collins et al., IMC 2007) is *operational*:
//! uncleanliness is predictive enough that yesterday's unclean blocks are
//! a usable blocklist for tomorrow's traffic. This crate is the serving
//! side of that claim — a long-running daemon that loads a (scored)
//! blocklist produced by the analysis pipeline into an immutable
//! [`FrozenTrie`](unclean_core::frozen::FrozenTrie) and answers
//! longest-prefix-match queries over HTTP/1.1 (keep-alive and pipelining
//! first-class; HTTP/1.0 close-per-request still honored) plus a
//! length-prefixed binary batch protocol (`POST /batch-bin`) for
//! consumers that need millions of verdicts per second.
//!
//! Design in one paragraph: N shard threads each own a listening socket
//! (`SO_REUSEPORT` on Linux, so the kernel spreads accepts), a private
//! epoll/poll event loop ([`poll`]), and the nonblocking connections it
//! accepted — no async runtime, no cross-thread handoff on the hot
//! path. Requests parse incrementally off per-connection buffers
//! ([`http::parse_request`]); responses serialize into per-connection
//! output buffers flushed as sockets allow. Every shard answers from an
//! `Arc` clone of the current [`Snapshot`](snapshot::Snapshot) of each
//! served file: the blocklist and, with `--forecast`, the forecast
//! artifact. Both build, reload, watch and report through one path:
//! snapshots are generation-numbered; a watcher thread per file (or
//! `POST /reload`) rebuilds off the serving path and atomically swaps the
//! `Arc`, so a hot reload under load loses zero requests — in-flight
//! lookups keep answering from the generation they loaded. The blocklist
//! can be a text list *or* a frozen-trie snapshot file (`unclean
//! blocklist freeze`), which is memory-mapped: cold start is O(1) and
//! co-located daemons share one page-cache copy. The event loop and the
//! operator endpoints are one core: [`Server::run`] serves any
//! [`Daemon`], and `unclean ingest` runs its control port on it.
//!
//! | module | what lives there |
//! |---|---|
//! | [`http`] | incremental HTTP/1.x request parser + response serializer |
//! | [`poll`] | epoll/poll readiness wrapper (unix), SO_REUSEPORT shard listeners |
//! | [`snapshot`] | the served files (`Artifact`: blocklist trie, forecast), generation-numbered builds, atomic swap store |
//! | [`server`] | the HTTP daemon core (shard event loops, operator endpoints, housekeeping) and the blocklist daemon on it (routing, one reload/watch path per served file, binary batch protocol) |
//!
//! ```no_run
//! use unclean_serve::{ServeConfig, Server};
//! use unclean_telemetry::Registry;
//!
//! let config = ServeConfig::new("blocklist.txt");
//! let server = Server::start(config, Registry::full()).expect("start");
//! println!("serving on http://{}", server.local_addr());
//! server.wait(); // until POST /quit
//! ```

pub mod http;
pub mod poll;
pub mod server;
pub mod snapshot;

pub use server::{
    Blocklist, CoreConfig, Daemon, Response, ServeConfig, Server, StageTrace, WATCH_POLL,
};
pub use snapshot::{build_snapshot, ServeError};
