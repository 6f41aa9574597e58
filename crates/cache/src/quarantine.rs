//! Peer quarantine with seeded exponential backoff and strike decay.
//!
//! The P2P layer used to drop malformed or consistency-failing replies
//! silently and re-contact the same peer on the very next query — a
//! Byzantine or corrupted peer could burn radio time forever. The
//! [`QuarantineLedger`] replaces that with an explicit per-peer record:
//! every rejected reply books a *strike*, and a struck peer is skipped
//! for an exponentially growing window of epochs. Strikes decay with
//! quiet time, so a peer that misbehaved once during a radio glitch is
//! forgiven, while a persistently bad peer backs off toward
//! [`QuarantineConfig::max_epochs`].
//!
//! Backoff jitter is derived by hashing the ledger seed with the peer id
//! and strike count — fully deterministic, so the epoch-sharded parallel
//! simulation replays identically at every thread count. An empty ledger
//! is inert: it never skips anyone and costs one `BTreeMap` lookup per
//! contacted peer.

use std::collections::BTreeMap;

/// Knobs for the quarantine policy. All durations are in *epochs* (the
/// simulation's commit granularity), so decisions align with the
/// deterministic parallel barrier.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuarantineConfig {
    /// Quarantine length for the first strike (doubles per strike).
    pub base_epochs: u64,
    /// Ceiling on any single quarantine window.
    pub max_epochs: u64,
    /// Quiet epochs needed to forgive one strike.
    pub decay_epochs: u64,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            base_epochs: 2,
            max_epochs: 64,
            decay_epochs: 16,
        }
    }
}

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
/// and therefore any derived accounting — is stable.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantineLedger {
    cfg: QuarantineConfig,
    seed: u64,
    records: BTreeMap<usize, PeerRecord>,
}

impl QuarantineLedger {
    /// An empty ledger with the given policy and jitter seed.
    pub fn new(cfg: QuarantineConfig, seed: u64) -> Self {
        QuarantineLedger {
            cfg,
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
    /// of one per [`QuarantineConfig::decay_epochs`] quiet epochs since
    /// the last strike; the backoff window is then
    /// `min(base << (strikes - 1), max)` plus a seeded jitter in
    /// `[0, base)` to de-synchronize re-probes across the fleet.
    pub fn strike(&mut self, peer: usize, epoch: u64) -> u64 {
        let cfg = self.cfg;
        let rec = self.records.entry(peer).or_insert(PeerRecord {
            strikes: 0,
            last_strike: epoch,
            until: epoch,
        });
        let quiet = epoch.saturating_sub(rec.last_strike);
        if let Some(forgiven) = quiet.checked_div(cfg.decay_epochs) {
            rec.strikes -= forgiven.min(u64::from(rec.strikes)) as u32;
        }
        rec.strikes = rec.strikes.saturating_add(1);
        rec.last_strike = epoch;
        let shift = (rec.strikes - 1).min(63);
        let window = cfg
            .base_epochs
            .saturating_shl(shift)
            .min(cfg.max_epochs.max(cfg.base_epochs));
        let jitter = if cfg.base_epochs > 1 {
            mix3(self.seed, peer as u64, u64::from(rec.strikes)) % cfg.base_epochs
        } else {
            0
        };
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
    let mut h = seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
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
        let led = QuarantineLedger::new(QuarantineConfig::default(), 42);
        assert!(led.is_empty());
        for peer in 0..8 {
            assert!(!led.is_quarantined(peer, 0));
            assert!(!led.is_quarantined(peer, 1000));
        }
    }

    #[test]
    fn strikes_back_off_exponentially_to_the_cap() {
        let cfg = QuarantineConfig {
            base_epochs: 2,
            max_epochs: 16,
            decay_epochs: 0, // no forgiveness: pure escalation
        };
        let mut led = QuarantineLedger::new(cfg, 7);
        let mut prev_window = 0;
        for strike in 1..=8u64 {
            let until = led.strike(3, 100);
            let window = until - 100;
            // Window grows (jitter < base can't mask a doubling) until
            // it saturates at max + jitter.
            assert!(
                window >= prev_window || window >= cfg.max_epochs,
                "strike {strike}: window {window} after {prev_window}"
            );
            assert!(window < cfg.max_epochs + cfg.base_epochs);
            prev_window = window;
        }
        assert!(led.is_quarantined(3, 100));
        assert!(!led.is_quarantined(3, 100 + prev_window));
    }

    #[test]
    fn quiet_time_decays_strikes() {
        let cfg = QuarantineConfig {
            base_epochs: 2,
            max_epochs: 64,
            decay_epochs: 4,
        };
        let mut led = QuarantineLedger::new(cfg, 9);
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
        assert!(calm_window >= cfg.base_epochs);
        assert!(calm_window < cfg.base_epochs * 2);
    }

    #[test]
    fn jitter_is_deterministic_and_seed_dependent() {
        let cfg = QuarantineConfig::default();
        let mut a = QuarantineLedger::new(cfg, 1);
        let mut b = QuarantineLedger::new(cfg, 1);
        let mut c = QuarantineLedger::new(cfg, 2);
        let ua = (0..6).map(|p| a.strike(p, 5)).collect::<Vec<_>>();
        let ub = (0..6).map(|p| b.strike(p, 5)).collect::<Vec<_>>();
        let uc = (0..6).map(|p| c.strike(p, 5)).collect::<Vec<_>>();
        assert_eq!(ua, ub, "same seed, same schedule");
        assert_ne!(ua, uc, "different seed perturbs jitter");
        assert_eq!(a, b);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut led = QuarantineLedger::new(QuarantineConfig::default(), 3);
        led.strike(0, 1);
        led.strike(5, 1);
        assert!(led.is_quarantined(0, 1) && led.is_quarantined(5, 1));
        led.clear();
        assert!(led.is_empty());
        assert!(!led.is_quarantined(0, 1));
    }

    #[test]
    fn saturating_shl_never_wraps() {
        assert_eq!(0u64.saturating_shl(70), 0);
        assert_eq!(1u64.saturating_shl(3), 8);
        assert_eq!(u64::MAX.saturating_shl(1), u64::MAX);
        assert_eq!(2u64.saturating_shl(63), u64::MAX);
    }
}
