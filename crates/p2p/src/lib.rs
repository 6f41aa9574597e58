//! Single-hop peer discovery and cached-result sharing.
//!
//! The paper's architecture (Figure 3) gives every mobile host a
//! short-range radio (IEEE 802.11b/g class): when a host poses a spatial
//! query it first broadcasts a request to all *single-hop* peers, each of
//! which replies with its verified regions and cached POIs (`⟨p.VR,
//! p.O⟩`). Crucially, "the current location of the neighboring hosts has
//! no specific significance, as long as they are within the communication
//! range" — peers contribute *where their data is*, not where they are.
//!
//! * [`NeighborGrid`] — a uniform spatial hash answering "which hosts are
//!   within `r` of this point" in O(output) for `r ≤ cell size`; the
//!   simulator rebuilds it as hosts move.
//! * [`share_exchange`] — the request/reply exchange in full (hop
//!   count, reply validation, fault injection, quarantine, tracing),
//!   reading peer caches through [`PeerCaches`] (host id → cache),
//!   with [`airshare_obs::ShareStats`] accounting (peers contacted,
//!   regions and POIs transferred) so experiments can report P2P
//!   traffic. Replies land in a [`ReplyArena`] retained in the query's
//!   scratch — spans of [`PoiId`](airshare_broadcast::PoiId) handles,
//!   checked against the receiver's table but not copied out of it — so
//!   a warm exchange allocates nothing.
//!   [`gather_peer_data_checked`] is its single-hop, untraced short
//!   form, with the replies copied out as owned [`PeerReply`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod protocol;

pub use grid::NeighborGrid;
pub use protocol::{
    gather_peer_data_checked, share_exchange, PeerCaches, PeerReply, QuarantineGuard, ReplyArena,
    ShareFaults,
};
