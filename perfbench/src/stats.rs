//! Sample summaries, set-up timing and the open-loop rate ladder: the
//! arithmetic the workloads share, kept free of I/O so it can be
//! unit-tested.

use std::time::{Duration, Instant};

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.99, 99.9, 99.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample (`pct` in `0..=100`).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of `pct` in a sample of `n`.
fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps float error (99.9 * 10_000 / 100 = 9990.000…2)
    // from pushing an exact rank up by one.
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile on the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples above its rank, or `None` when the sample
/// is too small to support even the median's tail.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n >= TAIL_MIN_BEYOND && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// Median, tail and sample count of one latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Percentile the tail is reported at (50 when the sample is too
    /// small for any tail).
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). Panics on an empty sample: every
    /// workload times at least one operation.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        // Too small a sample supports no tail; the median stands in rather
        // than the maximum, which a single hiccup of the host decides.
        let tail_pct = tail_percentile(sorted.len()).unwrap_or(50.0);
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail_pct,
            tail: percentile(&sorted, tail_pct),
        }
    }

    /// `p50 / p<tail> (n=..)` for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, p{} {:.4} {unit} (n={})",
            self.p50, self.tail_pct, self.tail, self.n
        )
    }
}

/// Median of a sample (any order).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// Blocks of set-up repetitions per run; `setup_s` is the median block.
pub const SETUP_BLOCKS: usize = 5;

/// Set-up time, timed in blocks of back-to-back repetitions spread over
/// the run: block `i` runs between operations once `i / SETUP_BLOCKS` of
/// the window has passed. A single set-up of a few milliseconds is decided
/// by whatever else the host does in those milliseconds, and a burst of
/// blocks at the start by the host's speed in that second; blocks spread
/// over the window see the same host as the operations. `reps` is fixed
/// per workload so that a block lasts about 0.2 s.
pub struct SetupTimer {
    reps: usize,
    window: Duration,
    start: Instant,
    per_rep: Vec<f64>,
}

impl SetupTimer {
    pub fn new(reps: usize, window: Duration) -> SetupTimer {
        SetupTimer {
            reps,
            window,
            start: Instant::now(),
            per_rep: Vec::with_capacity(SETUP_BLOCKS),
        }
    }

    /// Runs every block that is due by now.
    pub fn run_due(&mut self, setup: &mut impl FnMut()) {
        while self.per_rep.len() < SETUP_BLOCKS
            && self.start.elapsed()
                >= self
                    .window
                    .mul_f64(self.per_rep.len() as f64 / SETUP_BLOCKS as f64)
        {
            self.block(setup);
        }
    }

    /// Runs the blocks not yet run and returns the median block's time per
    /// repetition, in seconds.
    pub fn finish(mut self, setup: &mut impl FnMut()) -> f64 {
        while self.per_rep.len() < SETUP_BLOCKS {
            self.block(setup);
        }
        median(&self.per_rep)
    }

    fn block(&mut self, setup: &mut impl FnMut()) {
        let t = Instant::now();
        for _ in 0..self.reps {
            setup();
        }
        self.per_rep
            .push(t.elapsed().as_secs_f64() / self.reps as f64);
    }
}

/// One step of the open-loop rate ladder, as the load generator saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderStep {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Answered rate actually measured over the step, requests per second.
    pub answered_per_s: f64,
    /// What-if latency at the step's limit percentile, ms from due time.
    pub whatif_tail_ms: f64,
    /// Requests refused or not answered (shed, error, degraded, lost).
    pub failed: u64,
    /// Outstanding requests sampled at every send, in send order.
    pub outstanding: Vec<u32>,
}

/// Whether the requests outstanding at each send kept growing over a
/// step: the mean of the last third exceeds twice the mean of the first
/// third plus two requests. A queue that only jitters stays flat.
pub fn backlog_growing(outstanding: &[u32]) -> bool {
    let third = outstanding.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |s: &[u32]| s.iter().map(|&v| f64::from(v)).sum::<f64>() / s.len() as f64;
    let first = mean(&outstanding[..third]);
    let last = mean(&outstanding[outstanding.len() - third..]);
    last > 2.0 * first + 2.0
}

/// Whether a ladder step meets the service target.
pub fn step_passes(step: &LadderStep, limit_ms: f64) -> bool {
    step.failed == 0 && step.whatif_tail_ms < limit_ms && !backlog_growing(&step.outstanding)
}

/// The highest step of an ascending ladder that passes, counting only
/// steps below the first failure (a pass above a failure is noise, not
/// capacity). `None` when even the lowest step fails. Its measured
/// answered rate is the ladder's `max_qps`.
pub fn max_passing(steps: &[LadderStep], limit_ms: f64) -> Option<&LadderStep> {
    steps.iter().take_while(|s| step_passes(s, limit_ms)).last()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(19), None);
        // Median of 20: rank 10, ten beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        // p75 of 40: rank 30, ten beyond; p90 would leave four.
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        // p90 of 100: rank 90, ten beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn summary_reports_median_and_supported_tail() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.tail, 90.0);
        // Too small for a tail percentile: the median stands in.
        let small = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((small.p50, small.tail_pct, small.tail), (2.0, 50.0, 2.0));
    }

    #[test]
    fn setup_blocks_spread_over_the_window() {
        let mut calls = 0;
        let mut setup = || calls += 1;
        let mut timer = SetupTimer::new(3, Duration::from_secs(3600));
        // Only the first block is due at the start of a long window.
        timer.run_due(&mut setup);
        timer.run_due(&mut setup);
        assert_eq!(timer.per_rep.len(), 1);
        let secs = timer.finish(&mut setup);
        assert_eq!(calls, 3 * SETUP_BLOCKS);
        assert!(secs >= 0.0);
        // A window already over makes every block due at once.
        let mut timer = SetupTimer::new(1, Duration::ZERO);
        timer.run_due(&mut || {});
        assert_eq!(timer.per_rep.len(), SETUP_BLOCKS);
    }

    fn step(rate: f64, tail: f64, failed: u64, outstanding: Vec<u32>) -> LadderStep {
        LadderStep {
            rate,
            answered_per_s: rate,
            whatif_tail_ms: tail,
            failed,
            outstanding,
        }
    }

    #[test]
    fn backlog_detection_separates_growth_from_jitter() {
        assert!(!backlog_growing(&[0, 1, 0, 2, 1, 0, 1, 2, 0]));
        assert!(backlog_growing(&[0, 1, 2, 4, 6, 8, 10, 12, 14]));
        assert!(!backlog_growing(&[5, 5]));
    }

    #[test]
    fn max_passing_is_the_last_passing_step_before_a_failure() {
        let flat = vec![0, 1, 0, 1, 0, 1];
        let ladder = vec![
            step(100.0, 2.0, 0, flat.clone()),
            step(200.0, 3.0, 0, flat.clone()),
            step(400.0, 9.0, 0, flat.clone()),
            // Latency over the limit.
            step(800.0, 60.0, 0, flat.clone()),
            // A pass above a failure does not count.
            step(1600.0, 4.0, 0, flat.clone()),
        ];
        assert_eq!(max_passing(&ladder, 50.0).map(|s| s.rate), Some(400.0));
        // Shed requests fail a step even at low latency.
        let shed = vec![step(100.0, 1.0, 3, flat.clone())];
        assert_eq!(max_passing(&shed, 50.0), None);
        // A growing backlog fails a step even under the latency limit.
        let growing = vec![
            step(100.0, 1.0, 0, flat),
            step(200.0, 1.0, 0, vec![0, 2, 4, 8, 16, 32]),
        ];
        assert_eq!(max_passing(&growing, 50.0).map(|s| s.rate), Some(100.0));
    }
}
