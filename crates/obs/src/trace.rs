//! Distributed trace identity: 128-bit trace ids and cross-boundary
//! span links.
//!
//! A *trace* groups every span produced on behalf of one logical
//! operation, no matter which thread or process closed it. Trace ids
//! are 128 bits rendered as exactly 32 lowercase hex characters on the
//! wire (`"ab54a98ceb1f0ad2..."`), the width W3C `traceparent` uses, so
//! merged JSONL from a client and a daemon can be grouped by a single
//! string key. The all-zero id is reserved as "no trace".
//!
//! A [`TraceContext`] is the shippable handle to an open span: its
//! trace id (if any) plus its span id. Serialize it onto a wire frame
//! (or stash it on a queued job) and reopen the other side with
//! [`crate::Span::open_in_context`]; the remote span records the
//! handle's span id as its `remote_parent`, stitching the two halves
//! into one forest when the trace files are merged.
//!
//! Uniqueness across processes is probabilistic, not coordinated: each
//! process derives a random salt ([`process_salt`]) from its pid and
//! the wall clock, trace ids mix that salt through SplitMix64, and span
//! ids are allocated as `salt + counter` in a 63-bit space (see
//! `crate::span`). Two cooperating processes colliding would need their
//! salts to land within one span-count of each other — vanishingly
//! unlikely, and the failure mode is a mis-parented trace line, never a
//! wrong result.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// SplitMix64: a tiny, well-mixed 64-bit permutation. Good enough to
/// spread (pid, clock, counter) tuples across the id space; not a CSPRNG
/// and not meant to be one.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// This process's random identity salt (cached on first use): a mix of
/// the pid and the wall clock at first call. Seeds both trace-id
/// generation and the span-id base so ids from different processes
/// occupy disjoint ranges with overwhelming probability.
pub(crate) fn process_salt() -> u64 {
    static SALT: OnceLock<u64> = OnceLock::new();
    *SALT.get_or_init(|| {
        let pid = u64::from(std::process::id());
        let clock = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0))
            .unwrap_or(0);
        splitmix64(splitmix64(pid ^ 0xd1b5_4a32_d192_ed03) ^ clock)
    })
}

/// A 128-bit, nonzero trace identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u128);

impl TraceId {
    /// Hex width of the wire form: exactly 32 lowercase hex characters.
    pub(crate) const HEX_LEN: usize = 32;

    /// Allocates a fresh trace id, unique within this process and
    /// probabilistically unique across processes (salted).
    pub(crate) fn generate() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let hi = splitmix64(process_salt() ^ n);
        let lo = splitmix64(hi ^ n.rotate_left(32) ^ 0x2545_f491_4f6c_dd1d);
        let value = (u128::from(hi) << 64) | u128::from(lo);
        TraceId(if value == 0 { 1 } else { value })
    }

    /// Wraps a raw value; `None` for the reserved all-zero id.
    pub fn from_u128(value: u128) -> Option<TraceId> {
        (value != 0).then_some(TraceId(value))
    }

    /// The raw 128-bit value (never zero).
    pub(crate) fn as_u128(self) -> u128 {
        self.0
    }

    /// The wire form: exactly 32 lowercase hex characters.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the wire form. Strict: exactly 32 hex characters (case
    /// accepted, emitted lowercase) and nonzero — anything else is
    /// `None`, which callers treat as "start a fresh root", never as an
    /// error.
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.len() != Self::HEX_LEN || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(s, 16)
            .ok()
            .and_then(TraceId::from_u128)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceId({:032x})", self.0)
    }
}

/// A shippable handle to an open span: enough to reopen the trace on
/// another thread, process, or machine. Obtained from
/// [`crate::Span::ctx`]; consumed by [`crate::Span::open_in_context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The trace this span belongs to (`None` for an untraced span —
    /// the link still parents, it just doesn't tag a trace id).
    pub trace: Option<TraceId>,
    /// The span id the remote side should record as `remote_parent`.
    pub parent: u64,
}

impl TraceContext {
    /// A context rooted at `parent` within `trace`.
    pub fn new(trace: Option<TraceId>, parent: u64) -> TraceContext {
        TraceContext { trace, parent }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip_is_exact() {
        let id = TraceId::from_u128(0x00ab_54a9_8ceb_1f0a_d200_0000_0000_0001).unwrap();
        let hex = id.to_hex();
        assert_eq!(hex.len(), TraceId::HEX_LEN);
        assert_eq!(TraceId::parse(&hex), Some(id));
        // Case-insensitive parse, lowercase render.
        assert_eq!(TraceId::parse(&hex.to_uppercase()), Some(id));
    }

    #[test]
    fn junk_and_oversized_ids_parse_to_none() {
        for junk in [
            "",
            "0",
            "zz",
            "not-a-trace-id",
            "abcd",
            // 31 chars (one short).
            "0123456789abcdef0123456789abcde",
            // 33 chars (one long).
            "0123456789abcdef0123456789abcdef0",
            // Right width, non-hex payload.
            "0123456789abcdef0123456789abcdeg",
            // The reserved all-zero id.
            "00000000000000000000000000000000",
        ] {
            assert_eq!(TraceId::parse(junk), None, "{junk:?} must not parse");
        }
    }

    #[test]
    fn generated_ids_are_distinct_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = TraceId::generate();
            assert_ne!(id.as_u128(), 0);
            assert!(seen.insert(id), "duplicate generated trace id");
        }
    }

    #[test]
    fn splitmix_spreads_consecutive_inputs() {
        // Not a statistical test — just pin that nearby inputs do not
        // produce nearby outputs (the property salting relies on).
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert!(a.abs_diff(b) > 1 << 32);
    }
}
