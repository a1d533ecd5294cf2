//! The open-loop client fleet: a generator thread issuing writes at a
//! configured arrival rate, independent of how fast the service drains
//! them. This module owns pacing and shedding; *which* lines are written
//! comes from a [`wlr_trace::Workload`], like every other load in the
//! repo.
//!
//! Arrivals flow through a bounded SPSC admission ring. When the ring
//! fills, the fleet either sheds the arrival (open-loop honesty: the
//! request is lost and counted) or blocks until there is room
//! (closed-loop backpressure), per [`ShedPolicy`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wlr_base::spsc::Producer;
use wlr_base::stats::registry::Counter;
use wlr_trace::Workload;

/// What to do with an arrival when the admission ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Drop the arrival and count it (`wlr_serve_shed_total`).
    Shed,
    /// Wait for ring space (converts the open loop into backpressure).
    Block,
}

/// Fleet parameters.
#[derive(Debug)]
pub struct FleetConfig {
    /// The address stream, over the front-end's global block space.
    pub workload: Box<dyn Workload>,
    /// Arrivals per second (0 = unpaced, as fast as the ring accepts).
    pub rate: u64,
    /// Total arrivals to generate (0 = until stopped).
    pub total: u64,
    /// Full-ring behavior.
    pub policy: ShedPolicy,
}

/// Handle to the generator thread.
pub struct Fleet {
    handle: std::thread::JoinHandle<()>,
    done: Arc<AtomicBool>,
}

impl Fleet {
    /// Whether the generator has produced its last arrival.
    pub fn done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Joins the generator thread.
    pub fn join(self) {
        self.handle.join().expect("fleet generator panicked");
    }
}

/// Counters the fleet publishes (registered by the caller).
#[derive(Debug, Clone)]
pub struct FleetCounters {
    /// Arrivals generated.
    pub generated: Counter,
    /// Arrivals dropped at a full ring under [`ShedPolicy::Shed`].
    pub shed: Counter,
}

/// Spawns the generator. It runs until `total` arrivals are produced or
/// `stop` is raised, then sets its done flag and exits.
pub fn spawn(
    mut cfg: FleetConfig,
    mut ring: Producer,
    counters: FleetCounters,
    stop: Arc<AtomicBool>,
) -> Fleet {
    let done = Arc::new(AtomicBool::new(false));
    let done_flag = Arc::clone(&done);
    let handle = std::thread::Builder::new()
        .name("wlr-fleet".into())
        .spawn(move || {
            generate(&mut cfg, &mut ring, &counters, &stop);
            done_flag.store(true, Ordering::Release);
        })
        .expect("spawn fleet generator");
    Fleet { handle, done }
}

fn generate(
    cfg: &mut FleetConfig,
    ring: &mut Producer,
    counters: &FleetCounters,
    stop: &AtomicBool,
) {
    let mut generated: u64 = 0;
    let started = Instant::now();
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        if cfg.total != 0 && generated >= cfg.total {
            return;
        }
        // Open-loop pacing: how many arrivals the wall clock owes us.
        let due = if cfg.rate == 0 {
            generated + 1024
        } else {
            started.elapsed().as_micros() as u64 * cfg.rate / 1_000_000
        };
        if generated >= due {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let burst = (due - generated).min(1024);
        for _ in 0..burst {
            if cfg.total != 0 && generated >= cfg.total {
                return;
            }
            let addr = cfg.workload.next_write().index();
            generated += 1;
            counters.generated.inc();
            if !ring.push(addr) {
                match cfg.policy {
                    ShedPolicy::Shed => counters.shed.inc(),
                    ShedPolicy::Block => loop {
                        std::thread::sleep(Duration::from_micros(50));
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        if ring.push(addr) {
                            break;
                        }
                    },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlr_base::spsc;
    use wlr_trace::UniformWorkload;

    fn counters() -> FleetCounters {
        FleetCounters {
            generated: Counter::new(),
            shed: Counter::new(),
        }
    }

    #[test]
    fn bounded_fleet_generates_exactly_total_in_range() {
        let (prod, mut cons) = spsc::ring(1 << 12);
        let c = counters();
        let stop = Arc::new(AtomicBool::new(false));
        let fleet = spawn(
            FleetConfig {
                workload: Box::new(UniformWorkload::new(4096, 11)),
                rate: 0,
                total: 2_000,
                policy: ShedPolicy::Shed,
            },
            prod,
            c.clone(),
            stop,
        );
        fleet.join();
        assert_eq!(c.generated.get(), 2_000);
        let mut buf = Vec::new();
        let mut popped = 0;
        while cons.pop_into(&mut buf) > 0 {
            for &a in &buf {
                assert!(a < 4096, "address {a} out of space");
            }
            popped += buf.len() as u64;
            buf.clear();
        }
        assert_eq!(popped + c.shed.get(), 2_000, "every arrival lands or sheds");
    }

    #[test]
    fn shed_policy_drops_at_full_ring() {
        // Tiny ring, nobody consuming: almost everything must shed.
        let (prod, _cons) = spsc::ring(8);
        let c = counters();
        let stop = Arc::new(AtomicBool::new(false));
        let fleet = spawn(
            FleetConfig {
                workload: Box::new(UniformWorkload::new(1024, 3)),
                rate: 0,
                total: 1_000,
                policy: ShedPolicy::Shed,
            },
            prod,
            c.clone(),
            stop,
        );
        fleet.join();
        assert_eq!(c.generated.get(), 1_000);
        assert!(c.shed.get() >= 1_000 - 8, "shed {}", c.shed.get());
    }
}
