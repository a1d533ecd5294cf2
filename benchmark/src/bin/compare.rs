//! `compare A.json B.json` — two `results.json` files of `run.sh` side by
//! side (see `wlr_benchmark::compare`). Exits 1 when a metric of B is
//! worse than its bound allows, 2 when the files cannot be compared.

use wlr_benchmark::compare::{compare, render, Verdict};
use wlr_benchmark::json::Value;

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [a, b] = args.as_slice() else {
        eprintln!("usage: compare A.json B.json");
        std::process::exit(2);
    };
    let rows = match (read(a), read(b)) {
        (Ok(a), Ok(b)) => compare(&a, &b),
        (Err(e), _) | (_, Err(e)) => Err(e),
    };
    let rows = rows.unwrap_or_else(|e| {
        eprintln!("compare: {e}");
        std::process::exit(2);
    });
    print!("{}", render(&rows));
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "A = {a}, B = {b}: {} ok, {} worse, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    if count(Verdict::Worse) > 0 {
        std::process::exit(1);
    }
}
