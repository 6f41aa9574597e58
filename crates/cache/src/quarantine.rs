//! Peer quarantine with seeded exponential backoff and strike decay.
//!
//! The P2P layer used to drop malformed or consistency-failing replies
//! silently and re-contact the same peer on the very next query — a
//! Byzantine or corrupted peer could burn radio time forever. The
//! [`QuarantineLedger`] replaces that with an explicit per-peer record:
//! every rejected reply books a *strike*, and a struck peer is skipped
//! for an exponentially growing window of epochs. Strikes decay with
//! quiet time, so a peer that misbehaved once during a radio glitch is
//! forgiven, while a persistently bad peer backs off toward a
//! 64-epoch cap. A fresh ledger holds no record and allocates nothing,
//! so a fleet keeps ledgers only for hosts that have struck a peer and
//! builds a fresh one from the host's seed for the rest.
//!
//! Backoff jitter is derived by hashing the ledger seed with the peer id
//! and strike count — fully deterministic, so the epoch-sharded parallel
//! simulation replays identically at every thread count. An empty ledger
//! is inert: it never skips anyone and costs one `BTreeMap` lookup per
//! contacted peer.

use std::collections::BTreeMap;

// The quarantine policy. All durations are in *epochs* (the
// simulation's commit granularity), so decisions align with the
// deterministic parallel barrier.

/// Quarantine length for the first strike (doubles per strike).
const BASE_EPOCHS: u64 = 2;
/// Ceiling on any single quarantine window.
const MAX_EPOCHS: u64 = 64;
/// Quiet epochs needed to forgive one strike.
const DECAY_EPOCHS: u64 = 16;

/// Per-peer misbehavior record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PeerRecord {
    /// Decayed strike count (≥ 1 while the record exists).
    strikes: u32,
    /// Epoch of the most recent strike (decay reference point).
    last_strike: u64,
    /// First epoch at which the peer may be contacted again.
    until: u64,
}

/// A host-local ledger of misbehaving peers.
///
/// Deterministic: the backoff jitter is a pure hash of `(seed, peer,
/// strikes)`, and all state lives in a [`BTreeMap`] so iteration order —
/// and therefore any derived accounting — is stable. The default ledger
/// is empty with jitter seed 0.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QuarantineLedger {
    seed: u64,
    records: BTreeMap<usize, PeerRecord>,
}

impl QuarantineLedger {
    /// An empty ledger with the given jitter seed.
    pub fn new(seed: u64) -> Self {
        QuarantineLedger {
            seed,
            records: BTreeMap::new(),
        }
    }

    /// Whether `peer` is currently quarantined at `epoch`.
    pub fn is_quarantined(&self, peer: usize, epoch: u64) -> bool {
        self.records.get(&peer).is_some_and(|r| epoch < r.until)
    }

    /// Books one strike against `peer` at `epoch` and returns the first
    /// epoch at which the peer may be contacted again.
    ///
    /// Before the new strike lands, old strikes are forgiven at a rate
    /// of one per 16 quiet epochs since the last strike; the backoff
    /// window is then `min(2 << (strikes - 1), 64)` epochs plus a seeded
    /// jitter in `[0, 2)` to de-synchronize re-probes across the fleet.
    pub fn strike(&mut self, peer: usize, epoch: u64) -> u64 {
        let rec = self.records.entry(peer).or_insert(PeerRecord {
            strikes: 0,
            last_strike: epoch,
            until: epoch,
        });
        let quiet = epoch.saturating_sub(rec.last_strike);
        let forgiven = quiet / DECAY_EPOCHS;
        rec.strikes -= forgiven.min(u64::from(rec.strikes)) as u32;
        rec.strikes = rec.strikes.saturating_add(1);
        rec.last_strike = epoch;
        let shift = (rec.strikes - 1).min(63);
        let window = BASE_EPOCHS.saturating_shl(shift).min(MAX_EPOCHS);
        let jitter = mix3(self.seed, peer as u64, u64::from(rec.strikes)) % BASE_EPOCHS;
        rec.until = epoch + window + jitter;
        rec.until
    }

    /// Whether the ledger has no records at all (inert fast path).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Forgets everything — used when a host crashes and loses its
    /// volatile state.
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

/// Saturating left shift (shifting past the width pins to `u64::MAX`
/// for non-zero values instead of wrapping).
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if self == 0 {
            0
        } else if shift >= self.leading_zeros() {
            u64::MAX
        } else {
            self << shift
        }
    }
}

/// The workspace's standard splitmix-based avalanche over three words
/// (same construction as the broadcast fault layer).
fn mix3(seed: u64, a: u64, b: u64) -> u64 {
    let mut h =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_is_inert() {
        let led = QuarantineLedger::new(42);
        assert!(led.is_empty());
        for peer in 0..8 {
            assert!(!led.is_quarantined(peer, 0));
            assert!(!led.is_quarantined(peer, 1000));
        }
    }

    #[test]
    fn strikes_back_off_exponentially_to_the_cap() {
        let mut led = QuarantineLedger::new(7);
        let mut prev_window = 0;
        // Every strike lands in the same epoch, so none is forgiven:
        // pure escalation, 2, 4, ..., 64, then the cap holds.
        for strike in 1..=8u32 {
            let until = led.strike(3, 100);
            let window = until - 100;
            // Window grows (jitter < base can't mask a doubling) until
            // it saturates at max + jitter.
            assert!(
                window >= prev_window || window >= MAX_EPOCHS,
                "strike {strike}: window {window} after {prev_window}"
            );
            let doubled = (BASE_EPOCHS << (strike - 1)).min(MAX_EPOCHS);
            assert!((doubled..doubled + BASE_EPOCHS).contains(&window));
            prev_window = window;
        }
        assert!(prev_window >= MAX_EPOCHS);
        assert!(led.is_quarantined(3, 100));
        assert!(!led.is_quarantined(3, 100 + prev_window));
    }

    #[test]
    fn quiet_time_decays_strikes() {
        let mut led = QuarantineLedger::new(9);
        // Escalate to three strikes...
        for _ in 0..3 {
            led.strike(1, 10);
        }
        let escalated = led.strike(1, 10) - 10;
        // ...then strike once more after a long quiet spell: all prior
        // strikes are forgiven, so the window is back to first-strike
        // size.
        let calm_until = led.strike(1, 1000);
        let calm_window = calm_until - 1000;
        assert!(
            calm_window < escalated,
            "calm {calm_window} vs escalated {escalated}"
        );
        assert!(calm_window >= BASE_EPOCHS);
        assert!(calm_window < BASE_EPOCHS * 2);

        // One strike is forgiven per 16 quiet epochs, not sooner: two
        // strikes, then a third 15 epochs later escalates to the
        // third-strike window, while one 16 epochs later lands as the
        // second strike.
        let window_after = |quiet: u64| {
            let mut led = QuarantineLedger::new(9);
            led.strike(1, 0);
            led.strike(1, 0);
            led.strike(1, quiet) - quiet
        };
        assert!(window_after(DECAY_EPOCHS - 1) >= BASE_EPOCHS << 2);
        assert!(window_after(DECAY_EPOCHS) < BASE_EPOCHS << 2);
        assert!(window_after(DECAY_EPOCHS) >= BASE_EPOCHS << 1);
    }

    #[test]
    fn jitter_is_deterministic_and_seed_dependent() {
        let mut a = QuarantineLedger::new(1);
        let mut b = QuarantineLedger::new(1);
        let mut c = QuarantineLedger::new(2);
        let ua = (0..6).map(|p| a.strike(p, 5)).collect::<Vec<_>>();
        let ub = (0..6).map(|p| b.strike(p, 5)).collect::<Vec<_>>();
        let uc = (0..6).map(|p| c.strike(p, 5)).collect::<Vec<_>>();
        assert_eq!(ua, ub, "same seed, same schedule");
        assert_ne!(ua, uc, "different seed perturbs jitter");
        assert_eq!(a, b);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut led = QuarantineLedger::new(3);
        led.strike(0, 1);
        led.strike(5, 1);
        assert!(led.is_quarantined(0, 1) && led.is_quarantined(5, 1));
        led.clear();
        assert!(led.is_empty());
        assert!(!led.is_quarantined(0, 1));
    }

    #[test]
    fn a_ledger_holds_only_state() {
        // The jitter seed and the records: the policy is constants, not
        // a per-host copy (one ledger per host, 10^6 hosts at fleet
        // scale).
        assert!(std::mem::size_of::<QuarantineLedger>() <= 32);
    }

    #[test]
    fn saturating_shl_never_wraps() {
        assert_eq!(0u64.saturating_shl(70), 0);
        assert_eq!(1u64.saturating_shl(3), 8);
        assert_eq!(u64::MAX.saturating_shl(1), u64::MAX);
        assert_eq!(2u64.saturating_shl(63), u64::MAX);
    }
}
