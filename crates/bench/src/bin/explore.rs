//! `explore` — run a custom configuration from the command line.
//!
//! The figure binaries pin the paper's configurations; this tool exposes
//! the full parameter space for one-off studies:
//!
//! ```text
//! cargo run --release -p wlr-bench --bin explore -- \
//!     --blocks 16384 --endurance 1e4 --scheme reviver-sg \
//!     --workload mg --stop usable:0.7 --seed 7
//! ```
//!
//! Options (defaults in brackets):
//!
//! ```text
//! --blocks N          chip size in 64 B blocks [16384]
//! --endurance X       mean cell endurance in writes [1e4]
//! --cov X             endurance CoV [0.2]
//! --psi N             ψ, writes per leveler migration step [auto-scaled]
//! --scheme S          any registry stack name (`--list-stacks` prints
//!                     them) or freep:<frac> [reviver-sg]
//! --ecc E             ecp<k> | payg[:ratio] [ecp6]
//! --workload W        a Table I name, uniform, zipf:<s>, cov:<x>,
//!                     trace:<path>, repeat:<n>, birthday:<n>x<epoch> [uniform]
//! --stop C            writes:<n> | dead:<frac> | usable:<frac> [usable:0.7]
//! --cache BYTES       remap cache size [none]
//! --seed N            experiment seed [42]
//! --seeds N           replicate over N seeds (seed..seed+N) on the worker
//!                     pool and report mean/min/max [1]
//! --sample N          writes between samples [auto]
//! --curve             print the full usable/survival series
//! ```

use wl_reviver::registry::SchemeRegistry;
use wl_reviver::sim::{EccKind, Simulation, SimulationBuilder, StopCondition};
use wlr_bench::{fork_warmup_for, run_replicated_forked, scaled_gap_interval, ForkSweep};
use wlr_pcm::Ecp;
use wlr_trace::{
    Benchmark, BirthdayAttack, CovTargetedWorkload, RepeatAttack, SpatialMode, TraceWorkload,
    UniformWorkload, Workload, ZipfWorkload,
};

#[derive(Debug)]
struct Args {
    blocks: u64,
    endurance: f64,
    cov: f64,
    psi: Option<u64>,
    scheme: String,
    ecc: String,
    workload: String,
    stop: String,
    cache: Option<usize>,
    seed: u64,
    seeds: u64,
    sample: Option<u64>,
    curve: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n\nsee the doc comment at the top of explore.rs for options");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        blocks: 1 << 14,
        endurance: 1e4,
        cov: 0.2,
        psi: None,
        scheme: "reviver-sg".into(),
        ecc: "ecp6".into(),
        workload: "uniform".into(),
        stop: "usable:0.7".into(),
        cache: None,
        seed: 42,
        seeds: 1,
        sample: None,
        curve: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--blocks" => args.blocks = parse_num(&val("--blocks")),
            "--endurance" => args.endurance = parse_f64(&val("--endurance")),
            "--cov" => args.cov = parse_f64(&val("--cov")),
            "--psi" => args.psi = Some(parse_num(&val("--psi"))),
            "--scheme" => args.scheme = val("--scheme"),
            "--ecc" => args.ecc = val("--ecc"),
            "--workload" => args.workload = val("--workload"),
            "--stop" => args.stop = val("--stop"),
            "--cache" => args.cache = Some(parse_num(&val("--cache")) as usize),
            "--seed" => args.seed = parse_num(&val("--seed")),
            "--seeds" => args.seeds = parse_num(&val("--seeds")).max(1),
            "--sample" => args.sample = Some(parse_num(&val("--sample"))),
            "--curve" => args.curve = true,
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

fn parse_num(s: &str) -> u64 {
    parse_f64(s) as u64
}

fn parse_f64(s: &str) -> f64 {
    s.parse::<f64>()
        .unwrap_or_else(|_| usage(&format!("`{s}` is not a number")))
}

/// A registry stack name plus, for `freep:<frac>`, the reserve fraction
/// no registry name can express.
fn parse_scheme(s: &str) -> (&'static str, Option<f64>) {
    let (name, frac) = match s.strip_prefix("freep:") {
        Some(frac) => ("freep", Some(parse_f64(frac))),
        None => (s, None),
    };
    match SchemeRegistry::global().resolve(name) {
        Ok(spec) => (spec.name, frac),
        Err(e) => usage(&e.to_string()),
    }
}

fn parse_ecc(s: &str) -> EccKind {
    if let Some(k) = s.strip_prefix("ecp") {
        match k.parse() {
            Ok(k) if k <= Ecp::MAX_ENTRIES => EccKind::Ecp(k),
            _ => usage(&format!("bad ecp<k> (k is at most {})", Ecp::MAX_ENTRIES)),
        }
    } else if s == "payg" {
        EccKind::Payg { ratio: 0.77 }
    } else if let Some(r) = s.strip_prefix("payg:") {
        EccKind::Payg {
            ratio: parse_f64(r),
        }
    } else {
        usage(&format!("unknown ecc `{s}`"))
    }
}

fn parse_workload(s: &str, blocks: u64, seed: u64) -> Box<dyn Workload> {
    for b in Benchmark::table1() {
        if b.name() == s {
            return Box::new(b.build(blocks, seed));
        }
    }
    if s == "uniform" {
        return Box::new(UniformWorkload::new(blocks, seed));
    }
    if let Some(z) = s.strip_prefix("zipf:") {
        return Box::new(ZipfWorkload::new(blocks, parse_f64(z), seed));
    }
    if let Some(c) = s.strip_prefix("cov:") {
        return Box::new(CovTargetedWorkload::new(
            blocks,
            parse_f64(c),
            SpatialMode::Clustered { run_blocks: 64 },
            seed,
        ));
    }
    if let Some(path) = s.strip_prefix("trace:") {
        let t = TraceWorkload::load(path)
            .unwrap_or_else(|e| usage(&format!("cannot load trace `{path}`: {e}")));
        if t.len() != blocks {
            usage(&format!(
                "trace space {} does not match --blocks {blocks}",
                t.len()
            ));
        }
        return Box::new(t);
    }
    if let Some(n) = s.strip_prefix("repeat:") {
        return Box::new(RepeatAttack::new(blocks, parse_num(n), seed));
    }
    if let Some(spec) = s.strip_prefix("birthday:") {
        let (n, epoch) = spec
            .split_once('x')
            .unwrap_or_else(|| usage("birthday:<n>x<epoch>"));
        return Box::new(BirthdayAttack::new(
            blocks,
            parse_num(n),
            parse_num(epoch),
            seed,
        ));
    }
    usage(&format!("unknown workload `{s}`"))
}

fn parse_stop(s: &str) -> StopCondition {
    if let Some(n) = s.strip_prefix("writes:") {
        StopCondition::Writes(parse_num(n))
    } else if let Some(f) = s.strip_prefix("dead:") {
        StopCondition::DeadFraction(parse_f64(f))
    } else if let Some(f) = s.strip_prefix("usable:") {
        StopCondition::UsableBelow(parse_f64(f))
    } else {
        usage(&format!("unknown stop condition `{s}`"))
    }
}

/// The resolved simulation configuration: plain data, so a replicate
/// job can carry its own copy.
#[derive(Clone, Copy)]
struct SimConfig {
    blocks: u64,
    endurance: f64,
    cov: f64,
    psi: u64,
    ecc: EccKind,
    stack: &'static str,
    reserve_frac: Option<f64>,
    cache: Option<usize>,
    sample: Option<u64>,
}

impl SimConfig {
    /// The configured builder, short of its workload.
    fn builder(&self, seed: u64) -> SimulationBuilder {
        let mut builder = Simulation::builder()
            .num_blocks(self.blocks)
            .endurance_mean(self.endurance)
            .endurance_cov(self.cov)
            .gap_interval(self.psi)
            .ecc(self.ecc)
            .stack(self.stack)
            .seed(seed);
        if let Some(frac) = self.reserve_frac {
            builder = builder.freep_reserve_frac(frac);
        }
        if let Some(bytes) = self.cache {
            builder = builder.cache_bytes(bytes);
        }
        if let Some(sample) = self.sample {
            builder = builder.sample_interval(sample);
        }
        builder
    }
}

/// Multi-seed mode: one shared warmup, one forked future per seed,
/// summarized as mean/min/max. Replicates diverge by workload stream
/// only — they share the warmup and the device's endurance draws (see
/// EXPERIMENTS.md on fork-shared replicates).
fn run_replicates(args: &Args, cfg: SimConfig, stop: StopCondition, app_blocks: u64) {
    let seeds: Vec<u64> = (args.seed..args.seed + args.seeds).collect();
    let label = format!("{}/{}/{}", args.scheme, args.workload, args.stop);
    eprintln!(
        "running {label} on {} blocks × {} seeds (ψ={}, endurance {:.0}, forked) …",
        args.blocks, args.seeds, cfg.psi, args.endurance
    );
    let base_seed = args.seed;
    let build_spec = args.workload.clone();
    let reseed_spec = args.workload.clone();
    let configs: Vec<(String, ForkSweep)> = vec![(
        label.clone(),
        ForkSweep {
            build: Box::new(move || {
                cfg.builder(base_seed)
                    .workload_boxed(parse_workload(&build_spec, app_blocks, base_seed))
                    .build()
            }),
            warmup: fork_warmup_for(stop),
            stop,
            reseed: Box::new(move |seed| parse_workload(&reseed_spec, app_blocks, seed)),
        },
    )];
    let rep = run_replicated_forked(configs, &seeds).remove(0);
    let show = |name: &str, (mean, min, max): (f64, f64, f64), pct: bool| {
        if pct {
            println!(
                "{name}: mean {:.2}%  min {:.2}%  max {:.2}%",
                mean * 100.0,
                min * 100.0,
                max * 100.0
            );
        } else {
            println!("{name}: mean {mean:.0}  min {min:.0}  max {max:.0}");
        }
    };
    println!("replicates        : {}", args.seeds);
    show("writes issued     ", rep.writes_stats(), false);
    show("usable space      ", rep.stats(|c| c.outcome.usable), true);
    show(
        "block survival    ",
        rep.stats(|c| c.outcome.survival),
        true,
    );
}

fn main() {
    wlr_bench::handle_list_stacks();
    let args = parse_args();
    let (stack, reserve_frac) = parse_scheme(&args.scheme);
    let cfg = SimConfig {
        blocks: args.blocks,
        endurance: args.endurance,
        cov: args.cov,
        psi: args
            .psi
            .unwrap_or_else(|| scaled_gap_interval(args.blocks, args.endurance)),
        ecc: parse_ecc(&args.ecc),
        stack,
        reserve_frac,
        cache: args.cache,
        sample: args.sample,
    };
    let psi = cfg.psi;
    let stop = parse_stop(&args.stop);
    // FREE-p shrinks the visible space; size the workload to it.
    let builder = cfg.builder(args.seed);
    let app_blocks = builder.app_blocks();

    if args.seeds > 1 {
        run_replicates(&args, cfg, stop, app_blocks);
        return;
    }

    let mut sim = builder
        .workload_boxed(parse_workload(&args.workload, app_blocks, args.seed))
        .build();

    eprintln!(
        "running {} / {} / {} on {} blocks (ψ={psi}, endurance {:.0}, seed {}) …",
        sim.controller().label(),
        args.workload,
        args.stop,
        args.blocks,
        args.endurance,
        args.seed
    );
    let out = sim.run(stop);

    if args.curve {
        println!(
            "{:>14} {:>9} {:>9} {:>10} {:>7}",
            "writes", "usable", "survival", "avg access", "wl"
        );
        for p in sim.series() {
            println!(
                "{:>14} {:>8.2}% {:>8.2}% {:>10.4} {:>7}",
                p.writes,
                p.usable * 100.0,
                p.survival * 100.0,
                p.avg_access_time,
                if p.wl_active { "on" } else { "OFF" }
            );
        }
        println!();
    }
    println!("writes issued     : {}", out.writes_issued);
    println!("stop reason       : {:?}", out.reason);
    println!("usable space      : {:.2}%", out.usable * 100.0);
    println!("block survival    : {:.2}%", out.survival * 100.0);
    println!(
        "dead blocks       : {}",
        sim.controller().device().dead_blocks()
    );
    println!("pages retired     : {}", sim.os().retired_pages());
    println!("OS failure reports: {}", sim.os().failure_reports());
    println!(
        "wear leveling     : {}",
        if sim.controller().wl_active() {
            "active"
        } else {
            "frozen"
        }
    );
    if let Some(r) = sim.controller().as_reviver() {
        let c = r.counters();
        println!(
            "framework counters: links {}, switches {}, loops {}, suspensions {}, fake reports {}",
            c.links,
            c.switches,
            r.loop_blocks(),
            c.suspensions,
            c.fake_reports
        );
    }
}
