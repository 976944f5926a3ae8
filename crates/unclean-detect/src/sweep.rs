//! The one day-sharded sweep behind every multi-day detector pass.
//!
//! The behavioural detectors carry hour- and day-scoped window state, so
//! a sweep may split its input only between whole days. [`day_sweep`] cuts
//! the day list into chunks of [`SWEEP_CHUNK_DAYS`], runs one shard per
//! chunk on the executor, flushes the shard's window state at every day
//! boundary (clearing state, keeping capacity), and returns the shards in
//! day order for the caller to merge. Chunk boundaries depend only on the
//! day list, never on the worker count, and merges are pure unions over
//! flushed shards, so a merged sweep is bit-identical at any `--threads`.

use crate::scan::{FanoutConfig, HourlyFanoutDetector};
use crate::spam::{SpamConfig, SpamDetector};
use crossbeam::executor::Executor;
use unclean_flowgen::{CandidateCollector, Flow};

/// Days per sweep chunk. One shard serves a chunk and reuses its scratch
/// across the chunk's days, so the size trades that reuse against
/// parallelism. It must depend only on the data, never on the worker
/// count.
pub(crate) const SWEEP_CHUNK_DAYS: usize = 2;

/// The state one sweep chunk accumulates.
pub(crate) trait DayShard {
    /// Close a day: drop any state that must not cross a day boundary.
    fn flush_window_state(&mut self) {}
}

/// Candidate evidence has no windowed state: days just accumulate.
impl DayShard for CandidateCollector {}

/// Feed every day of `days` into a shard made by `new_shard`, whole-day
/// chunks in parallel, and return the shards in day order. An error from
/// any day's `feed` fails the sweep with the earliest failing chunk's
/// error.
pub(crate) fn day_sweep<D, S, E>(
    pool: &Executor,
    days: &[D],
    new_shard: impl Fn() -> S + Sync,
    feed: impl Fn(&D, &mut S) -> Result<(), E> + Sync,
) -> Result<Vec<S>, E>
where
    D: Sync,
    S: DayShard + Send,
    E: Send,
{
    let chunks: Vec<&[D]> = days.chunks(SWEEP_CHUNK_DAYS).collect();
    pool.run_indexed(chunks.len(), |c| {
        let mut shard = new_shard();
        for day in chunks[c] {
            feed(day, &mut shard)?;
            shard.flush_window_state();
        }
        Ok(shard)
    })
    .into_iter()
    .collect()
}

/// The scan and spam detectors a sweep shard drives side by side.
pub(crate) struct DetectorPair {
    pub(crate) scan: HourlyFanoutDetector,
    pub(crate) spam: SpamDetector,
    /// Flows observed.
    pub(crate) flows: u64,
}

impl DetectorPair {
    pub(crate) fn new(fanout: &FanoutConfig, spam: &SpamConfig) -> DetectorPair {
        DetectorPair {
            scan: HourlyFanoutDetector::new(fanout.clone()),
            spam: SpamDetector::new(spam.clone()),
            flows: 0,
        }
    }

    pub(crate) fn observe(&mut self, flow: &Flow) {
        self.flows += 1;
        self.scan.observe(flow);
        self.spam.observe(flow);
    }

    /// Fold a later shard in.
    pub(crate) fn merge(&mut self, other: DetectorPair) {
        self.scan.merge(other.scan);
        self.spam.merge(other.spam);
        self.flows += other.flows;
    }
}

impl DayShard for DetectorPair {
    fn flush_window_state(&mut self) {
        self.scan.flush_window_state();
        self.spam.flush_window_state();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard that records the days it saw and the flushes between them.
    #[derive(Default)]
    struct Log(Vec<i32>);

    impl DayShard for Log {
        fn flush_window_state(&mut self) {
            self.0.push(-1);
        }
    }

    #[test]
    fn shards_are_whole_day_chunks_in_day_order_at_any_thread_count() {
        let days: Vec<i32> = (1..=5).collect();
        for threads in [1, 2, 8] {
            let Ok(shards) = day_sweep(&Executor::new(threads), &days, Log::default, |&d, log| {
                log.0.push(d);
                Ok::<(), std::convert::Infallible>(())
            });
            let logs: Vec<Vec<i32>> = shards.into_iter().map(|l| l.0).collect();
            assert_eq!(
                logs,
                vec![vec![1, -1, 2, -1], vec![3, -1, 4, -1], vec![5, -1]],
                "threads {threads}"
            );
        }
    }

    #[test]
    fn a_failing_day_fails_the_sweep() {
        let days: Vec<i32> = (1..=5).collect();
        let swept = day_sweep(&Executor::new(2), &days, Log::default, |&d, _| {
            if d == 4 {
                Err(d)
            } else {
                Ok(())
            }
        });
        assert_eq!(swept.err(), Some(4));
    }
}
