//! Service-quality and outcome statistics for the multi-bank front-end.

use crate::bank::Bank;

// Both histograms were deduplicated into `wlr_base::stats`; the
// re-exports keep `wlr_mc::stats::LatencyHistogram` (and the crate-root
// re-export) working.
pub use wlr_base::stats::{LatencyHistogram, WearHistogram};

/// Why a multi-bank run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McStopReason {
    /// Every request was serviced.
    TraceComplete,
    /// Under [`McStopPolicy::FirstBankDead`]: this bank exhausted its
    /// memory.
    BankDead(usize),
    /// Under [`McStopPolicy::Quorum`]: this many banks were dead.
    QuorumDead(usize),
}

/// When the front-end declares the memory dead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum McStopPolicy {
    /// Stop as soon as any single bank dies (the whole-DIMM view: an
    /// interleaved address space is unusable with a hole in it).
    FirstBankDead,
    /// Stop when at least this fraction of banks is dead (a controller
    /// that can deinterleave around dead banks at reduced capacity).
    Quorum(f64),
}

/// Per-bank end-of-run summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankReport {
    /// Bank index.
    pub bank: usize,
    /// Writes issued into the bank's PCM stack.
    pub writes_issued: u64,
    /// Writes dropped at or after the bank's death.
    pub dropped: u64,
    /// Page retirements the bank's OS performed.
    pub retirements: u64,
    /// Pages the bank's OS has retired in total.
    pub retired_pages: u64,
    /// Dead blocks on the bank's device.
    pub dead_blocks: u64,
    /// Final survival fraction of the bank's visible blocks.
    pub survival: f64,
    /// Final usable-space fraction of the bank.
    pub usable: f64,
    /// Power-loss recoveries performed mid-drain.
    pub recoveries: u64,
    /// Whether the bank was still alive at the end.
    pub alive: bool,
    /// The bank simulation's end-state fingerprint
    /// ([`wl_reviver::Simulation::fingerprint`]).
    pub fingerprint: u64,
}

impl BankReport {
    /// Summarizes a bank after its last drain.
    pub fn from_bank(bank: &Bank) -> Self {
        let sim = bank.sim();
        BankReport {
            bank: bank.id(),
            writes_issued: sim.writes_issued(),
            dropped: bank.dropped(),
            retirements: sim.retirements(),
            retired_pages: sim.os().retired_pages(),
            dead_blocks: sim.controller().device().dead_blocks(),
            survival: sim.survival_fraction(),
            usable: sim.usable_fraction(),
            recoveries: bank.recoveries(),
            alive: bank.alive(),
            fingerprint: sim.fingerprint(),
        }
    }
}

/// End-of-run summary of a whole multi-bank front-end.
#[derive(Debug, Clone, PartialEq)]
pub struct McOutcome {
    /// Requests submitted to the front-end.
    pub requests: u64,
    /// Requests absorbed by write-buffer hits (never reached PCM).
    pub absorbed: u64,
    /// Requests coalesced into already-queued writes.
    pub coalesced: u64,
    /// Writes issued into bank simulations.
    pub issued: u64,
    /// Writes dropped by dead banks.
    pub dropped: u64,
    /// Writes rerouted into the degraded-mode directory (parked rescues
    /// plus flushes redirected past quarantined banks); always 0 outside
    /// degraded mode.
    pub redirected: u64,
    /// Banks quarantined (degraded mode only).
    pub quarantines: u64,
    /// Oracle lines migrated out of quarantined banks.
    pub migrated_lines: u64,
    /// Transient-read retries performed across all banks.
    pub read_retries: u64,
    /// Reads whose bounded retry was exhausted, across all banks.
    pub retry_exhausted: u64,
    /// Whole-fleet drains performed.
    pub drains: u64,
    /// Final front-end clock value.
    pub ticks: u64,
    /// Why the run ended.
    pub stop: McStopReason,
    /// Per-bank summaries, in bank order.
    pub banks: Vec<BankReport>,
    /// Wear distribution merged across every bank's visible blocks.
    pub wear: WearHistogram,
    /// Queueing-latency distribution across all banks.
    pub latency: LatencyHistogram,
    /// WL-Reviver event counters merged across every reviver bank
    /// (all-zero when the banks run a non-reviver scheme).
    pub revival: wl_reviver::ReviverCounters,
}

impl McOutcome {
    /// Every submitted request is accounted for exactly once:
    /// `requests = absorbed + coalesced + issued + dropped + redirected`.
    /// Holds after [`finish`](crate::McFrontend::finish) (mid-run,
    /// requests still sitting in the buffer or queues are not yet
    /// counted).
    pub fn conserves_writes(&self) -> bool {
        self.requests
            == self.absorbed + self.coalesced + self.issued + self.dropped + self.redirected
    }
}

// The histogram unit tests moved to `wlr-base::stats::hist` together
// with the implementations.
