//! FREE-p adapted with a pre-reserved remap region (paper §IV-C), and —
//! at a 0% reserve — the plain `ECC+WL` baseline of Figures 5 and 6.
//!
//! FREE-p as published acquires free slots incrementally with OS support
//! and records each slot's *device* address directly in the failed block.
//! Because wear-leveling migration would move the slot's data and strand
//! the pointer, the paper adapts it: a fixed fraction of PCM is
//! pre-reserved as the remap region, invisible to software and *outside*
//! the wear-leveling domain, so the direct DA links stay valid. The
//! adapted scheme works with Start-Gap until the reserve runs dry; the
//! first unhidden failure then reaches the wear-leveler, which — like any
//! algebraic-mapping scheme — ceases to function: migrations freeze, the
//! mapping fossilizes, and every further failure costs the OS a page.

use crate::linked::{LinkedBuilder, LinkedController, SpareSupply};
use wlr_base::{Da, Geometry};
use wlr_pcm::PcmDevice;
use wlr_wl::WearLeveler;

/// FREE-p's spare supply: a fixed region of slots beyond the
/// wear-leveling domain, handed out until it runs dry. It gains nothing
/// from page retirement, and a dry reserve exposes the failure.
#[derive(Debug, Clone)]
pub struct Reserve {
    reserve_blocks: u64,
    /// Free reserved slots (device addresses outside the WL domain).
    slots: Vec<Da>,
}

impl SpareSupply for Reserve {
    fn install(&mut self, _geo: &Geometry, base: u64, device_blocks: u64) {
        assert!(
            device_blocks >= base + self.reserve_blocks,
            "device lacks reserve blocks: {device_blocks} < {}",
            base + self.reserve_blocks
        );
        // Slots handed out from the base upward.
        self.slots = (base..base + self.reserve_blocks)
            .rev()
            .map(Da::new)
            .collect();
    }

    fn take(&mut self, _origin: Da) -> Option<Da> {
        self.slots.pop()
    }

    fn reserved_blocks(&self) -> u64 {
        self.reserve_blocks
    }

    fn label(&self) -> &'static str {
        if self.reserve_blocks == 0 {
            ""
        } else {
            "FREEp"
        }
    }
}

/// The FREE-p-adapted controller (see module docs): the direct-link
/// engine over a [`Reserve`].
///
/// ```
/// use wlr_base::Geometry;
/// use wlr_pcm::{Ecp, PcmDevice};
/// use wlr_wl::{RandomizerKind, StartGap};
/// use wl_reviver::freep::FreepController;
/// use wl_reviver::controller::Controller;
///
/// let geo = Geometry::builder().num_blocks(128).build()?;
/// // 5% reserve: 6 slot blocks + 1 gap line as extra device space.
/// let device = PcmDevice::builder(geo).extra_blocks(7).build();
/// let wl = StartGap::builder(128)
///     .randomizer(RandomizerKind::Feistel { seed: 1 })
///     .build();
/// let ctl = FreepController::builder(device, Box::new(wl), 6).build();
/// assert_eq!(ctl.reserved_blocks(), 6);
/// assert!(ctl.wl_active());
/// # Ok::<(), wlr_base::geometry::GeometryError>(())
/// ```
pub type FreepController = LinkedController<Reserve>;

impl LinkedController<Reserve> {
    /// Starts building a FREE-p controller with `reserve_blocks` slots.
    pub fn builder(
        device: PcmDevice,
        wl: Box<dyn WearLeveler>,
        reserve_blocks: u64,
    ) -> LinkedBuilder<Reserve> {
        let supply = Reserve {
            reserve_blocks,
            slots: Vec::new(),
        };
        LinkedBuilder::new(device, wl, supply)
    }

    /// Remaining free slots in the reserve.
    pub fn free_slots(&self) -> u64 {
        self.supply.slots.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, WriteResult};
    use wlr_base::Pa;
    use wlr_pcm::Ecp;
    use wlr_wl::{NoWearLeveling, RandomizerKind, StartGap};

    const N: u64 = 256;

    fn geo() -> Geometry {
        Geometry::builder().num_blocks(N).build().unwrap()
    }

    fn make(reserve: u64, endurance: f64, psi: u64, seed: u64) -> FreepController {
        let device = PcmDevice::builder(geo())
            .extra_blocks(1 + reserve)
            .endurance_mean(endurance)
            .seed(seed)
            .ecc(Box::new(Ecp::ecp6()))
            .track_contents(true)
            .build();
        let wl = StartGap::builder(N)
            .gap_interval(psi)
            .randomizer(RandomizerKind::Feistel { seed })
            .build();
        FreepController::builder(device, Box::new(wl), reserve).build()
    }

    #[test]
    fn healthy_round_trip() {
        let mut ctl = make(8, 1e9, 5, 1);
        for i in 0..N {
            assert_eq!(ctl.write(Pa::new(i), i + 1), WriteResult::Ok);
        }
        for i in 0..N {
            assert_eq!(ctl.read(Pa::new(i)), i + 1);
        }
        assert!(ctl.wl_active());
    }

    #[test]
    fn failure_hidden_while_slots_last() {
        let mut ctl = make(8, 300.0, 1_000_000, 2);
        let pa = Pa::new(9);
        let mut last = 0;
        for i in 1..30_000u64 {
            assert_eq!(ctl.write(pa, i), WriteResult::Ok, "write {i}");
            last = i;
            if ctl.counters().links > 0 {
                break;
            }
        }
        assert!(ctl.counters().links > 0, "block never failed");
        assert!(ctl.wl_active(), "reserve should hide the failure");
        assert_eq!(ctl.read(pa), last);
        assert_eq!(ctl.free_slots(), 7);
    }

    #[test]
    fn zero_reserve_freezes_on_first_failure() {
        let mut ctl = make(0, 300.0, 5, 3);
        let pa = Pa::new(9);
        let mut reported = false;
        for i in 0..30_000u64 {
            match ctl.write(pa, i) {
                WriteResult::Ok => {}
                WriteResult::ReportFailure(rep) => {
                    assert_eq!(rep, pa);
                    reported = true;
                    break;
                }
                other => unreachable!("unexpected write result: {other:?}"),
            }
        }
        assert!(reported);
        assert!(!ctl.wl_active(), "first failure must cripple Start-Gap");
        assert_eq!(ctl.counters().reports, 1);
    }

    /// A decision, not an accident (PR 20's difference (4)): a block that
    /// is already dead when software first writes it — no earlier write
    /// ever failed on it — is linked on the spot while the reserve has a
    /// slot, with nothing reported and leveling still on. Only an empty
    /// reserve exposes it.
    #[test]
    fn already_dead_block_is_linked_on_its_next_write() {
        let pa = Pa::new(9);
        let mut ctl = make(8, 1e9, 1_000_000, 9);
        let da = ctl.wl.map(pa);
        ctl.device.inject_dead(da);
        assert_eq!(ctl.write(pa, 7), WriteResult::Ok);
        assert_eq!((ctl.counters().links, ctl.counters().reports), (1, 0));
        assert!(ctl.wl_active());
        assert_eq!(ctl.read(pa), 7);

        let mut bare = make(0, 1e9, 1_000_000, 9);
        let da = bare.wl.map(pa);
        bare.device.inject_dead(da);
        assert_eq!(bare.write(pa, 7), WriteResult::ReportFailure(pa));
    }

    #[test]
    fn exhausted_reserve_eventually_freezes() {
        let mut ctl = make(2, 200.0, 1_000_000, 4);
        let mut reports = 0;
        for i in 0..400_000u64 {
            let pa = Pa::new(i % N);
            match ctl.write(pa, i) {
                WriteResult::Ok => {}
                WriteResult::ReportFailure(_) => {
                    reports += 1;
                    break;
                }
                other => unreachable!("unexpected write result: {other:?}"),
            }
        }
        assert_eq!(reports, 1);
        assert!(!ctl.wl_active());
        assert_eq!(ctl.free_slots(), 0);
    }

    #[test]
    fn frozen_map_still_serves_linked_blocks() {
        let mut ctl = make(1, 250.0, 1_000_000, 5);
        // Exhaust the single slot, then freeze on a second failing block.
        let mut frozen_at = None;
        for i in 0..400_000u64 {
            let pa = Pa::new(i % N);
            match ctl.write(pa, i) {
                WriteResult::Ok => {}
                WriteResult::ReportFailure(_) => {
                    frozen_at = Some(i);
                    break;
                }
                other => unreachable!("unexpected write result: {other:?}"),
            }
        }
        assert!(frozen_at.is_some());
        // Blocks linked before the freeze keep working.
        assert!(ctl.counters().links >= 1);
        let linked_da = ctl.links.keys().next().unwrap();
        let linked_pa = ctl.wl.inverse(Da::new(linked_da)).unwrap();
        assert_eq!(ctl.write(linked_pa, 123), WriteResult::Ok);
        assert_eq!(ctl.read(linked_pa), 123);
    }

    #[test]
    fn works_without_wear_leveling_as_pure_ecc_baseline() {
        let device = PcmDevice::builder(geo())
            .endurance_mean(300.0)
            .seed(6)
            .ecc(Box::new(Ecp::ecp6()))
            .build();
        let mut ctl = FreepController::builder(device, Box::new(NoWearLeveling::new(N)), 0).build();
        assert_eq!(ctl.label(), "ECP6");
        let pa = Pa::new(3);
        let mut reported = false;
        for i in 0..30_000u64 {
            if ctl.write(pa, i) != WriteResult::Ok {
                reported = true;
                break;
            }
        }
        assert!(reported, "no-WL baseline must expose the failure");
    }

    #[test]
    fn labels() {
        assert_eq!(make(0, 1e9, 5, 7).label(), "ECP6-SG");
        assert_eq!(make(8, 1e9, 5, 7).label(), "ECP6-SG-FREEp");
    }

    #[test]
    fn cache_reduces_linked_access_cost() {
        let device = PcmDevice::builder(geo())
            .extra_blocks(1 + 8)
            .endurance_mean(300.0)
            .seed(8)
            .ecc(Box::new(Ecp::ecp6()))
            .track_contents(true)
            .build();
        let wl = StartGap::builder(N)
            .gap_interval(1_000_000)
            .randomizer(RandomizerKind::Feistel { seed: 8 })
            .build();
        let mut ctl = FreepController::builder(device, Box::new(wl), 8)
            .cache_bytes(1024)
            .build();
        let pa = Pa::new(9);
        for i in 0..30_000u64 {
            ctl.write(pa, i);
            if ctl.counters().links > 0 {
                break;
            }
        }
        assert!(ctl.counters().links > 0);
        ctl.read(pa); // warm the cache
        ctl.reset_request_stats();
        ctl.read(pa);
        assert_eq!(ctl.request_stats().accesses, 1);
    }
}
