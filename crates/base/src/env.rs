//! Strict readers for the `WLR_*` environment knobs every binary takes.
//!
//! One contract for all of them: an unset or empty variable means the
//! default; a value that does not parse ends the process with exit code 2
//! and a message naming the variable and the value — a typo'd knob must
//! never silently run the default experiment and report success.

use std::env::VarError;
use std::str::FromStr;

/// Parses one knob value (surrounding whitespace tolerated). The error is
/// the message the readers exit with.
pub fn parse_knob<T: FromStr>(name: &str, raw: &str) -> Result<T, String> {
    raw.trim().parse().map_err(|_| {
        format!(
            "{name}={raw:?} is not a valid {}",
            std::any::type_name::<T>()
        )
    })
}

/// Unwraps a knob-parsing result, or reports the error and exits 2.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2)
    })
}

/// A string knob: `None` when unset or empty.
pub fn env_str(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) if !v.is_empty() => Some(v),
        Ok(_) | Err(VarError::NotPresent) => None,
        Err(VarError::NotUnicode(v)) => or_exit(Err(format!("{name}={v:?} is not valid UTF-8"))),
    }
}

fn env_parsed<T: FromStr>(name: &str, default: T) -> T {
    env_str(name).map_or(default, |raw| or_exit(parse_knob(name, &raw)))
}

/// An unsigned-integer knob.
pub fn env_u64(name: &str, default: u64) -> u64 {
    env_parsed(name, default)
}

/// A floating-point knob.
pub fn env_f64(name: &str, default: f64) -> f64 {
    env_parsed(name, default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_u64_falls_back() {
        // Only a value that is present and malformed is an error; the
        // fallback for absent ones is `env_parsed`'s `map_or`.
        assert_eq!(parse_knob::<u64>("WLR_SEED", " 7 "), Ok(7));
        assert_eq!(parse_knob::<f64>("WLR_FLEET_WARMUP", "0.95"), Ok(0.95));
        for bad in ["1e3", "abc", "-1", "7 8"] {
            let msg = parse_knob::<u64>("WLR_CRASH_INTERVAL", bad).unwrap_err();
            assert!(
                msg.contains("WLR_CRASH_INTERVAL") && msg.contains(bad),
                "message must name the variable and the value: {msg}"
            );
        }
    }
}
