//! Counts the instructions a program executes inside a window it marks
//! itself, in total and per function. Linux x86-64 only; no dependencies.
//!
//! ```text
//! icount [--top N] [--sum PATTERN]... [--lines PATTERN]... OPS PROGRAM [ARG]...
//! ```
//!
//! The program runs under `ptrace` at full speed until it sends itself a
//! `SIGSTOP` (`kill -STOP $$` from a shell, `raise(SIGSTOP)` from a
//! program). From there the tracer single-steps it, one
//! instruction per step, until the next `SIGSTOP`, and lets it run to
//! its exit. Both stops are swallowed. It then prints the window's
//! instruction count divided by `OPS` (the operations the window holds),
//! the `N` functions (default 25) that executed the most of it, and for
//! each `--sum PATTERN` the share of every function whose name contains
//! `PATTERN`; each `--lines PATTERN` lists, per instruction of those
//! functions, its address as `objdump -d` prints it and its executions
//! per operation. Names come from `nm -C` on the program; code outside it
//! (libc, the vDSO) is charged to its mapping's file name. The bracket
//! itself — the tail of the first stop's call and the head of the
//! second's — is counted too: run a window of zero operations to see it.
//!
//! Single-stepping costs one `ptrace` round trip per instruction, so
//! expect tens of thousands of instructions per second.
//! `scripts/icount.sh` builds this file with `rustc -O` and runs it on
//! the `icount_probe` example.

use std::collections::HashMap;
use std::ffi::c_long;
use std::os::unix::process::CommandExt;
use std::process::{exit, Command};

const PTRACE_TRACEME: c_long = 0;
const PTRACE_PEEKUSER: c_long = 3;
const PTRACE_CONT: c_long = 7;
const PTRACE_SINGLESTEP: c_long = 9;
/// `offsetof(struct user_regs_struct, rip)` on x86-64.
const RIP_OFFSET: usize = 16 * 8;
const SIGTRAP: i32 = 5;
const SIGSTOP: i32 = 19;

extern "C" {
    fn ptrace(request: c_long, pid: i32, addr: usize, data: usize) -> c_long;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
}

fn die(msg: &str) -> ! {
    eprintln!("icount: {msg}");
    exit(2)
}

/// Resumes the stopped tracee with `request`, delivering `sig` (0: none).
fn resume(request: c_long, pid: i32, sig: i32) {
    // SAFETY: plain ptrace requests on a tracee stopped under this tracer.
    if unsafe { ptrace(request, pid, 0, sig as usize) } < 0 {
        die(&format!(
            "ptrace({request}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
}

fn rip(pid: i32) -> u64 {
    // SAFETY: PEEKUSER reads one word of the stopped tracee's registers.
    unsafe { ptrace(PTRACE_PEEKUSER, pid, RIP_OFFSET, 0) as u64 }
}

/// What the tracee did: `Some(sig)` when it stopped on `sig`, `None`
/// when it is gone.
fn wait(pid: i32) -> Option<i32> {
    let mut status = 0;
    // SAFETY: waits for this process's own child.
    if unsafe { waitpid(pid, &mut status, 0) } < 0 {
        die(&format!(
            "waitpid failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    (status & 0xff == 0x7f).then_some((status >> 8) & 0xff)
}

/// A mapped file: `[start, end)` and its path.
struct Mapping {
    start: u64,
    end: u64,
    path: String,
}

fn mappings(pid: i32) -> Vec<Mapping> {
    let maps = std::fs::read_to_string(format!("/proc/{pid}/maps"))
        .unwrap_or_else(|e| die(&format!("cannot read the tracee's maps: {e}")));
    maps.lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let (start, end) = f.first()?.split_once('-')?;
            Some(Mapping {
                start: u64::from_str_radix(start, 16).ok()?,
                end: u64::from_str_radix(end, 16).ok()?,
                path: f.get(5).map_or("[anon]", |p| p).to_string(),
            })
        })
        .collect()
}

/// The program's function symbols, sorted by address: `(address, name)`.
fn symbols(program: &str) -> Vec<(u64, String)> {
    let out = Command::new("nm")
        .args(["-C", "--defined-only", program])
        .output()
        .unwrap_or_else(|e| die(&format!("cannot run nm: {e}")));
    let mut syms: Vec<(u64, String)> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| {
            let (addr, rest) = line.split_once(' ')?;
            let (kind, name) = rest.split_once(' ')?;
            if !matches!(kind, "t" | "T" | "w" | "W") {
                return None;
            }
            Some((u64::from_str_radix(addr, 16).ok()?, name.to_string()))
        })
        .collect();
    syms.sort();
    syms
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut top = 25;
    let mut sums = Vec::new();
    let mut lines = Vec::new();
    while let Some(flag) = args.next_if(|a| a.starts_with("--")) {
        let value = args
            .next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--top" => top = value.parse().unwrap_or_else(|_| die("--top takes a count")),
            "--sum" => sums.push(value),
            "--lines" => lines.push(value),
            _ => die(&format!("unknown flag {flag}")),
        }
    }
    let ops: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        die("usage: icount [--top N] [--sum PATTERN]... [--lines PATTERN]... OPS PROGRAM [ARG]...")
    });
    let program = args.next().unwrap_or_else(|| die("no program given"));
    let program = std::fs::canonicalize(&program)
        .unwrap_or_else(|e| die(&format!("{program}: {e}")))
        .to_string_lossy()
        .into_owned();

    let mut cmd = Command::new(&program);
    cmd.args(args);
    // SAFETY: the hook runs in the forked child before exec and only
    // makes one async-signal-safe system call.
    unsafe {
        cmd.pre_exec(|| {
            if ptrace(PTRACE_TRACEME, 0, 0, 0) < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        });
    }
    let child = cmd
        .spawn()
        .unwrap_or_else(|e| die(&format!("cannot start {program}: {e}")));
    let pid = child.id() as i32;
    if wait(pid) != Some(SIGTRAP) {
        die("the program did not stop at exec");
    }

    // Run to the first SIGSTOP, forwarding every other signal.
    let mut sig = 0;
    loop {
        resume(PTRACE_CONT, pid, sig);
        match wait(pid) {
            Some(SIGSTOP) => break,
            Some(s) => sig = s,
            None => die("the program exited before its window opened"),
        }
    }
    let maps = mappings(pid);

    // Single-step to the second SIGSTOP, recording where each step ran.
    let mut hits: HashMap<u64, u64> = HashMap::new();
    let mut steps = 0u64;
    sig = 0;
    loop {
        *hits.entry(rip(pid)).or_default() += 1;
        steps += 1;
        resume(PTRACE_SINGLESTEP, pid, sig);
        match wait(pid) {
            Some(SIGSTOP) => break,
            Some(SIGTRAP) => sig = 0,
            Some(s) => sig = s,
            None => die("the program exited inside its window"),
        }
    }
    sig = 0;
    loop {
        resume(PTRACE_CONT, pid, sig);
        match wait(pid) {
            Some(SIGSTOP) => sig = 0,
            Some(s) => sig = s,
            None => break,
        }
    }

    // Charge every address to a function of the program, or to the file
    // it is mapped from.
    let syms = symbols(&program);
    // A position-independent program's symbols are offsets from where
    // its first page is mapped.
    let bias = std::fs::read(&program)
        .ok()
        .filter(|elf| elf.get(16) == Some(&3)) // ET_DYN
        .and_then(|_| maps.iter().find(|m| m.path == program).map(|m| m.start))
        .unwrap_or(0);
    let mut per_fn: HashMap<&str, u64> = HashMap::new();
    let mut listed = Vec::new();
    for (&addr, &n) in &hits {
        let in_program = maps
            .iter()
            .find(|m| (m.start..m.end).contains(&addr))
            .filter(|m| m.path != program);
        let name = match in_program {
            Some(m) => m.path.rsplit('/').next().unwrap_or(&m.path),
            None => {
                let at = addr.wrapping_sub(bias);
                let name = match syms.partition_point(|(a, _)| *a <= at) {
                    0 => "[unknown]",
                    i => &syms[i - 1].1,
                };
                if lines.iter().any(|p| name.contains(p.as_str())) {
                    listed.push((name, at, n));
                }
                name
            }
        };
        *per_fn.entry(name).or_default() += n;
    }
    let mut rows: Vec<(&str, u64)> = per_fn.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));

    let per_op = |n: u64| n as f64 / ops.max(1) as f64;
    let share = |n: u64| 100.0 * n as f64 / steps.max(1) as f64;
    println!(
        "window: {steps} instructions over {ops} ops = {:.1} per op",
        per_op(steps)
    );
    println!("{:>8} {:>7}  function", "per op", "share");
    for &(name, n) in rows.iter().take(top) {
        println!("{:>8.1} {:>6.1}%  {name}", per_op(n), share(n));
    }
    let rest: u64 = rows.iter().skip(top).map(|r| r.1).sum();
    if rest > 0 {
        println!(
            "{:>8.1} {:>6.1}%  ({} more)",
            per_op(rest),
            share(rest),
            rows.len() - top
        );
    }
    listed.sort();
    for (name, at, n) in listed {
        println!("{at:>8x} {:>8.2}  {name}", per_op(n));
    }
    for pattern in &sums {
        let n: u64 = rows
            .iter()
            .filter(|r| r.0.contains(pattern.as_str()))
            .map(|r| r.1)
            .sum();
        println!(
            "{:>8.1} {:>6.1}%  every function matching `{pattern}`",
            per_op(n),
            share(n)
        );
    }
}
