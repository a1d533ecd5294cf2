//! The front-end's instruction-count probe: a window of requests through
//! `benchmark/`'s 8-bank front-end, marked by two `SIGSTOP`s the process
//! sends itself. Run it under `scripts/icount.sh bank-uniform` (or
//! `bank-hot`), which counts the instructions between the two stops; run
//! bare, it stops itself at the first and waits there for a `SIGCONT`.
//!
//! ```text
//! bank_probe [bank-uniform|bank-hot] [SKIP_REQUESTS] [WINDOW_REQUESTS]
//! ```
//!
//! The shape is `bank_frontend(8)`'s: 2¹⁴ blocks over 8 cache-line
//! striped banks of `reviver-sg`, cells that never fail, ψ = 82, queue
//! depth 64, 32 write-buffer lines, seed 42. `bank-uniform` feeds it
//! `bank_uniform`'s stream (uniform, seed 42), `bank-hot` `bank_hot`'s
//! (90 % of the requests on 1 % of the lines, seed 42). The probe drives
//! `with_pipeline` + `submit` as `McFrontend::run` drives its request
//! step, skips `SKIP_REQUESTS` (default 2 000 000) and counts
//! `WINDOW_REQUESTS` (default 10 000). It drains inline (one drain
//! worker), as the 2-core reference box does, so the traced thread does
//! every bank's work and the count is deterministic.

use wlr_mc::McFrontend;
use wlr_trace::{HotRegionWorkload, UniformWorkload, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map_or("bank-uniform", String::as_str);
    let blocks = 1u64 << 14;
    let mut stream: Box<dyn Workload> = match mode {
        "bank-uniform" => Box::new(UniformWorkload::new(blocks, 42)),
        "bank-hot" => Box::new(HotRegionWorkload::new(blocks, 0.9, 0.01, 42)),
        _ => {
            eprintln!("bank_probe: mode {mode} is not bank-uniform or bank-hot");
            std::process::exit(2)
        }
    };
    let count = |i: usize, default: u64| {
        args.get(i).map_or(default, |a| {
            a.parse().unwrap_or_else(|_| {
                eprintln!("bank_probe: {a} is not a request count");
                std::process::exit(2)
            })
        })
    };
    let (skip, window) = (count(1, 2_000_000), count(2, 10_000));
    let mut mc = McFrontend::builder()
        .banks(8)
        .total_blocks(blocks)
        .endurance_mean(1e9)
        .gap_interval(82)
        .seed(42)
        .queue_depth(64)
        .write_buffer_lines(32)
        .drain_workers(1)
        .build()
        .expect("8 banks divide 2^14 blocks");
    mc.with_pipeline(|mc| {
        requests(mc, stream.as_mut(), skip);
        stop();
        requests(mc, stream.as_mut(), window);
        stop();
    });
    let out = mc.finish();
    println!(
        "{mode}: {} requests, {window} in the window, {} issued",
        out.requests, out.issued
    );
}

/// `n` requests from `stream`, as `McFrontend::run`'s loop submits them:
/// the front-end's request step is inlined here, so this function's row
/// is the step plus the loop and the stream's call (about 4 instructions).
#[inline(never)]
fn requests(mc: &mut McFrontend, stream: &mut dyn Workload, n: u64) {
    for _ in 0..n {
        mc.submit(stream.next_write().index());
    }
}

/// Sends this process a `SIGSTOP`, as `examples/icount_probe.rs` does: one
/// system call, the same few instructions of it in every build.
fn stop() {
    extern "C" {
        fn raise(sig: i32) -> i32;
    }
    // x86-64 Linux, like the tracer.
    const SIGSTOP: i32 = 19;
    // SAFETY: `raise` is libc's, which std links; it only sends a signal.
    let sent = unsafe { raise(SIGSTOP) };
    assert_eq!(sent, 0, "raise(SIGSTOP) failed");
}
