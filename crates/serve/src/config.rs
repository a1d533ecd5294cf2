//! Daemon configuration, read once at boot from `WLR_*` environment
//! variables (documented in EXPERIMENTS.md).

use crate::fleet::ShedPolicy;
use wlr_base::env::{env_str, env_u64, or_exit};

/// Everything the daemon needs to run, with smoke-friendly defaults.
#[derive(Debug, Clone)]
pub struct Config {
    /// `WLR_SERVE_ADDR` — TCP listen address for the metrics endpoints.
    pub addr: String,
    /// `WLR_ARRIVAL_RATE` — open-loop arrivals per second (0 = unpaced).
    pub arrival_rate: u64,
    /// `WLR_METRICS_SAMPLE` — span sampling period, 1-in-N (0 = off).
    pub metrics_sample: u64,
    /// `WLR_SHED_POLICY` — what to do when the admission ring is full.
    pub shed_policy: ShedPolicy,
    /// `WLR_SERVE_REQUESTS` — stop after this many generated arrivals
    /// (0 = run until signalled).
    pub requests: u64,
    /// `WLR_SERVE_BANKS` — bank count for the pipeline.
    pub banks: usize,
    /// `WLR_SERVE_BLOCKS` — global PCM capacity in blocks.
    pub total_blocks: u64,
    /// `WLR_SERVE_SEED` — experiment seed.
    pub seed: u64,
    /// `WLR_SERVE_SCHEME` — per-bank stack, any *revived* scheme-registry
    /// name (part of the persisted-image identity).
    pub scheme: String,
    /// `WLR_SERVE_ENDURANCE` — mean cell endurance per bank.
    pub endurance_mean: f64,
    /// `WLR_SERVE_STATE` — device-image path for crash persistence
    /// (empty/unset = no persistence).
    pub state_path: Option<String>,
    /// `WLR_TRACE_DUMP` — path prefix for per-bank trace-ring dumps on
    /// shutdown (empty/unset = no dump).
    pub trace_dump: Option<String>,
    /// `WLR_SERVE_PUBLISH_MS` — metrics publication interval.
    pub publish_ms: u64,
    /// Admission-ring capacity in requests.
    pub admission_depth: usize,
    /// `WLR_CHAOS_PLAN` — chaos clauses armed at boot (see
    /// [`crate::chaos`]); empty/unset = no injected faults.
    pub chaos_plan: Option<String>,
    /// `WLR_SERVE_VERIFY` — enable the per-bank integrity oracle (costs
    /// DRAM proportional to the live line count; chaos smoke turns it on
    /// to prove zero integrity violations under fault storms).
    pub verify: bool,
}

impl Config {
    /// Reads the configuration from the environment.
    pub fn from_env() -> Config {
        let shed_policy = match env_str("WLR_SHED_POLICY").as_deref() {
            None | Some("shed") => ShedPolicy::Shed,
            Some("block") => ShedPolicy::Block,
            Some(other) => or_exit(Err(format!(
                "WLR_SHED_POLICY={other:?}: expected \"shed\" or \"block\""
            ))),
        };
        let scheme = env_str("WLR_SERVE_SCHEME").unwrap_or_else(|| "reviver-sg".into());
        match wl_reviver::SchemeRegistry::global().resolve(&scheme) {
            Ok(spec) if spec.revivable => {}
            Ok(spec) => {
                let names: Vec<_> = wl_reviver::SchemeRegistry::global()
                    .revivable()
                    .map(|s| s.name)
                    .collect();
                eprintln!(
                    "wlr-serve: WLR_SERVE_SCHEME={}: the daemon's metrics, tracing, and \
                     persistence need a revived stack; valid: {}",
                    spec.name,
                    names.join(", ")
                );
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("wlr-serve: WLR_SERVE_SCHEME: {e}");
                std::process::exit(2);
            }
        }
        Config {
            addr: env_str("WLR_SERVE_ADDR").unwrap_or_else(|| "127.0.0.1:9464".into()),
            arrival_rate: env_u64("WLR_ARRIVAL_RATE", 50_000),
            // 1-in-1024: at multi-M writes/s this still fills the span
            // histogram with thousands of samples per second, while the
            // `Instant::now` stamps stay far below 1% of service time
            // (1-in-64 measurably costs several percent).
            metrics_sample: env_u64("WLR_METRICS_SAMPLE", 1024),
            shed_policy,
            requests: env_u64("WLR_SERVE_REQUESTS", 0),
            banks: env_u64("WLR_SERVE_BANKS", 4) as usize,
            total_blocks: env_u64("WLR_SERVE_BLOCKS", 1 << 14),
            seed: env_u64("WLR_SERVE_SEED", 7),
            scheme,
            endurance_mean: env_u64("WLR_SERVE_ENDURANCE", 1_000_000) as f64,
            state_path: env_str("WLR_SERVE_STATE"),
            trace_dump: env_str("WLR_TRACE_DUMP"),
            publish_ms: env_u64("WLR_SERVE_PUBLISH_MS", 250),
            admission_depth: env_u64("WLR_SERVE_ADMISSION_DEPTH", 1 << 16) as usize,
            chaos_plan: env_str("WLR_CHAOS_PLAN"),
            verify: env_str("WLR_SERVE_VERIFY").as_deref() == Some("1"),
        }
    }
}
