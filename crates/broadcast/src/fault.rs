//! Deterministic, seeded channel fault model.
//!
//! Real broadcast channels lose frames; this module makes that
//! *simulable* without serializing a byte. A [`ChannelFaults`] decides —
//! purely as a function of `(fault seed, bucket id, cycle occurrence)` —
//! whether a given on-air appearance of a bucket arrives intact. Because
//! the decision is a hash rather than a draw from a shared RNG stream,
//! fault injection never perturbs the simulator's other randomness: a
//! run with loss probability zero is bit-identical to a run without the
//! fault layer, and a run with loss is exactly reproducible from its
//! seed.

use crate::BucketId;

/// Per-appearance bucket loss model for the broadcast channel.
///
/// A lost appearance models a frame the receiver could not use: the
/// client paid the tuning tick to download it, found it corrupt, and
/// must wait for the bucket's next cycle occurrence to retry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelFaults {
    seed: u64,
    loss_prob: f64,
    retry_budget: u32,
}

impl ChannelFaults {
    /// A model that loses each bucket appearance independently with
    /// probability `loss_prob` (clamped to `[0, 1]`), allowing up to
    /// `retry_budget` re-fetch attempts after the first failure.
    pub fn from_loss_prob(seed: u64, loss_prob: f64, retry_budget: u32) -> Self {
        ChannelFaults {
            seed,
            loss_prob: loss_prob.clamp(0.0, 1.0),
            retry_budget,
        }
    }

    /// The per-appearance loss probability.
    pub fn loss_prob(&self) -> f64 {
        self.loss_prob
    }

    /// Maximum re-fetches *after* the free first appearance of each
    /// bucket — budget `N` examines at most `N + 1` appearances, and
    /// budget 0 means single-shot (any loss abandons the bucket). See
    /// `OnAirClient`'s private `retrieve` for the full contract.
    pub fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// Whether the model can never lose anything (the zero-cost case:
    /// clients skip fault bookkeeping entirely).
    pub fn is_lossless(&self) -> bool {
        self.loss_prob <= 0.0
    }

    /// Whether the `occurrence`-th on-air appearance of `bucket` is lost.
    ///
    /// Pure function of the seed and arguments; every client observing
    /// the same broadcast appearance sees the same outcome, as physics
    /// demands of a shared channel.
    pub fn bucket_lost(&self, bucket: BucketId, occurrence: u64) -> bool {
        if self.loss_prob <= 0.0 {
            return false;
        }
        if self.loss_prob >= 1.0 {
            return true;
        }
        let h = mix3(self.seed, bucket as u64, occurrence);
        to_unit(h) < self.loss_prob
    }

    /// Whether an independent fault event keyed by `(a, b)` fires with
    /// probability `prob` — e.g. a peer dropping its reply to a query.
    /// Decorrelated from [`Self::bucket_lost`] by a domain constant.
    pub fn event_fires(&self, prob: f64, a: u64, b: u64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        if prob >= 1.0 {
            return true;
        }
        let h = mix3(self.seed ^ 0xD6E8_FEB8_6659_FD93, a, b);
        to_unit(h) < prob
    }
}

/// SplitMix64 finalizer: the avalanche core used to hash fault keys.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes three keys into one well-mixed word.
fn mix3(a: u64, b: u64, c: u64) -> u64 {
    splitmix(splitmix(splitmix(a) ^ b) ^ c)
}

/// Maps a hash to a uniform f64 in `[0, 1)`.
fn to_unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let f1 = ChannelFaults::from_loss_prob(42, 0.3, 2);
        let f2 = ChannelFaults::from_loss_prob(42, 0.3, 2);
        let f3 = ChannelFaults::from_loss_prob(43, 0.3, 2);
        let outcomes1: Vec<bool> = (0..200).map(|o| f1.bucket_lost(7, o)).collect();
        let outcomes2: Vec<bool> = (0..200).map(|o| f2.bucket_lost(7, o)).collect();
        let outcomes3: Vec<bool> = (0..200).map(|o| f3.bucket_lost(7, o)).collect();
        assert_eq!(outcomes1, outcomes2);
        assert_ne!(outcomes1, outcomes3);
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let f = ChannelFaults::from_loss_prob(1, 0.25, 0);
        let n = 40_000u64;
        let lost = (0..n)
            .filter(|&o| f.bucket_lost(o as usize % 64, o))
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "empirical rate {rate}");
    }

    #[test]
    fn extremes_short_circuit() {
        let none = ChannelFaults::from_loss_prob(9, 0.0, 3);
        let all = ChannelFaults::from_loss_prob(9, 1.0, 3);
        assert!(none.is_lossless());
        assert!(!all.is_lossless());
        for o in 0..100 {
            assert!(!none.bucket_lost(0, o));
            assert!(all.bucket_lost(0, o));
        }
    }

    #[test]
    fn event_channel_is_decorrelated_from_bucket_channel() {
        let f = ChannelFaults::from_loss_prob(5, 0.5, 0);
        let buckets: Vec<bool> = (0..64).map(|o| f.bucket_lost(3, o)).collect();
        let events: Vec<bool> = (0..64).map(|o| f.event_fires(0.5, 3, o)).collect();
        assert_ne!(buckets, events);
    }
}
