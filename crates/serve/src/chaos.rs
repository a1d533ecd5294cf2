//! The runtime chaos plan: a tiny grammar for injecting faults into the
//! live daemon, shared by the `WLR_CHAOS_PLAN` boot knob and the
//! `/chaos` admin endpoint.
//!
//! A plan is a `;`-separated list of clauses:
//!
//! ```text
//! bank<B>:die@<N>              kill bank B after N more issued writes
//! bank<B>:reads@<I>+<L>        transient-read burst: L consecutive reads
//!                              starting I reads from now on bank B
//!                              (L ≤ 2²⁰: the plan holds one entry per read)
//! bank<B>:torn@<point>:<K>     power loss at the K-th upcoming crash
//!                              point (switch|migration|retire|link) on
//!                              bank B — a torn-metadata window the
//!                              recovery scan must repair
//! daemon:kill@<N>              abort the whole process once N requests
//!                              have been serviced this lifetime
//! ```
//!
//! Bank clauses become [`BankChaos`] commands posted through the
//! front-end's live chaos mailboxes; `daemon:kill` arms a kill point the
//! service loop checks against its serviced counter. Parsing is strict —
//! an unrecognized clause rejects the whole plan, so a typo'd storm
//! never half-applies.

use wlr_mc::{BankChaos, CrashPoint, FaultPlan};

/// Longest transient-read burst a clause may arm. A `FaultPlan` stores a
/// burst one entry per read, so the length is an allocation size chosen
/// by whoever can reach `/chaos`; the chaos harness arms bursts of tens.
const MAX_READ_BURST: u64 = 1 << 20;

/// One parsed chaos clause.
#[derive(Debug)]
pub enum ChaosCmd {
    /// Post `chaos` to bank `bank`'s mailbox.
    Bank {
        /// Target physical bank.
        bank: usize,
        /// The command to post.
        chaos: BankChaos,
    },
    /// Abort the daemon once this many requests have been serviced in
    /// the current lifetime.
    DaemonKill(u64),
}

/// Parses a full plan (`;`-separated clauses, blanks ignored).
pub fn parse_plan(plan: &str) -> Result<Vec<ChaosCmd>, String> {
    plan.split(';')
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .map(parse_clause)
        .collect()
}

fn parse_clause(clause: &str) -> Result<ChaosCmd, String> {
    let bad = || format!("unrecognized chaos clause: {clause:?}");
    let (target, action) = clause.split_once(':').ok_or_else(bad)?;
    if target == "daemon" {
        let n = action.strip_prefix("kill@").ok_or_else(bad)?;
        return Ok(ChaosCmd::DaemonKill(parse_u64(n, clause)?));
    }
    let bank: usize = target
        .strip_prefix("bank")
        .ok_or_else(bad)?
        .parse()
        .map_err(|_| bad())?;
    let chaos = if let Some(n) = action.strip_prefix("die@") {
        BankChaos::KillAfter(parse_u64(n, clause)?)
    } else if let Some(burst) = action.strip_prefix("reads@") {
        let (start, len) = burst.split_once('+').ok_or_else(bad)?;
        let (start, len) = (parse_u64(start, clause)?, parse_u64(len, clause)?);
        if len > MAX_READ_BURST || start.checked_add(len).is_none() {
            return Err(format!(
                "read burst {start}+{len} in chaos clause {clause:?} is longer than \
                 {MAX_READ_BURST} or runs past the last read index"
            ));
        }
        BankChaos::Faults(FaultPlan::new().transient_read_burst(start, len))
    } else if let Some(torn) = action.strip_prefix("torn@") {
        let (point, k) = torn.split_once(':').ok_or_else(bad)?;
        let point = match point {
            "switch" => CrashPoint::MidSwitch,
            "migration" => CrashPoint::MidMigration,
            "retire" => CrashPoint::MidRetire,
            "link" => CrashPoint::MidLink,
            _ => return Err(bad()),
        };
        BankChaos::Faults(FaultPlan::new().power_loss_at_point(point, parse_u64(k, clause)?))
    } else {
        return Err(bad());
    };
    Ok(ChaosCmd::Bank { bank, chaos })
}

fn parse_u64(s: &str, clause: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("bad number {s:?} in chaos clause {clause:?}"))
}

/// Minimal percent-decoding for the `/chaos?plan=...` query string: the
/// plan grammar only needs `%3B` (`;`), `%3A` (`:`), `%2B` (`+`), `%40`
/// (`@`) and `+`-as-space, but any valid `%xx` escape decodes.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grammar_parses() {
        let plan = "bank0:die@500; bank2:reads@100+8;bank1:torn@switch:2 ; daemon:kill@10000;";
        let cmds = parse_plan(plan).expect("valid plan");
        assert_eq!(cmds.len(), 4);
        assert!(matches!(
            cmds[0],
            ChaosCmd::Bank {
                bank: 0,
                chaos: BankChaos::KillAfter(500)
            }
        ));
        assert!(matches!(
            cmds[1],
            ChaosCmd::Bank {
                bank: 2,
                chaos: BankChaos::Faults(_)
            }
        ));
        assert!(matches!(cmds[3], ChaosCmd::DaemonKill(10_000)));
    }

    #[test]
    fn every_torn_point_is_spellable() {
        for p in ["switch", "migration", "retire", "link"] {
            assert!(parse_plan(&format!("bank0:torn@{p}:1")).is_ok(), "{p}");
        }
    }

    #[test]
    fn bad_clauses_reject_the_whole_plan() {
        for bad in [
            "bank0:die@500; bankX:die@1",
            "bank0:explode@1",
            "daemon:kill@",
            "bank0:torn@gap:1",
            "bank0:reads@100",
            "bank0:reads@0+18446744073709551615",
            "bank0:reads@18446744073709551615+2",
            "nonsense",
        ] {
            assert!(parse_plan(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(parse_plan("").expect("empty is fine").is_empty());
        assert!(parse_plan(" ; ;").expect("blank clauses drop").is_empty());
    }

    #[test]
    fn percent_decoding_covers_the_grammar() {
        assert_eq!(
            percent_decode("bank0%3Adie%40500%3B%20daemon%3Akill%4099"),
            "bank0:die@500; daemon:kill@99"
        );
        assert_eq!(percent_decode("100%2B8"), "100+8");
        assert_eq!(percent_decode("%zz%1"), "%zz%1", "bad escapes pass through");
    }
}
