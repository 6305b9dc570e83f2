//! [`crate::family::VersionFamily`] implementations for the four case
//! studies, plus the experiment-grid helpers the standalone binaries
//! share with them.

pub mod batch;
pub mod grid;
pub mod mpi;
pub mod wf;

use simcal::{fnv1a, fnv1a_words};

/// Fingerprint helper: hash a canonical textual description of a family's
/// datasets. Float observations contribute their exact bit patterns, so
/// two fingerprints agree only when the data is identical.
pub(crate) fn fingerprint_of(parts: impl IntoIterator<Item = String>) -> u64 {
    fnv1a_words(parts.into_iter().map(|p| fnv1a(p.as_bytes())))
}

#[cfg(test)]
mod tests {
    use simcal::cache::CacheFingerprint;
    use simcal::fidelity::subset_tag;

    /// Every persistent key is an FNV-1a digest: these values were taken
    /// from the hand-rolled loops the shared `fnv1a` replaced, so existing
    /// ledgers and cache shards keep resolving.
    #[test]
    fn persistent_key_hashes_are_pinned() {
        assert_eq!(crate::ledger::fnv1a(b"lodsel"), 0x967d_01a9_1a1f_3010);
        assert_eq!(
            super::fingerprint_of(["wf".to_string(), "1.5".to_string()]),
            0xd5b4_1260_0cd1_09c2
        );
        assert_eq!(
            CacheFingerprint::of("obj", "v1", 42).shard_id(7),
            0xc0ab_9777_6874_faeb
        );
        assert_eq!(subset_tag(&[1, 3, 4], 6), 0xe525_4eec_1eaa_90a6);
    }
}
