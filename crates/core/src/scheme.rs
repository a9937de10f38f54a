//! Resilience schemes: replication baselines and the four Era-* designs.

use core::fmt;

use eckv_erasure::CodecKind;

/// Where erasure-coding computation runs (Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// At the key-value store client (ARPE in the client library).
    Client,
    /// At the Memcached server (server-embedded ARPE).
    Server,
}

/// A fault-tolerance scheme for the key-value store.
///
/// # Example
///
/// ```
/// use eckv_core::Scheme;
///
/// let era = Scheme::era_ce_cd(3, 2);
/// assert_eq!(era.label(), "Era-CE-CD");
/// assert_eq!(era.fault_tolerance(), 2);
/// assert_eq!(Scheme::AsyncRep { replicas: 3 }.fault_tolerance(), 2);
/// // RS(3,2) stores 5/3 of the data; 3-way replication stores 3x.
/// assert!(era.storage_factor() < Scheme::AsyncRep { replicas: 3 }.storage_factor());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Single copy, no resilience.
    NoRep,
    /// Blocking synchronous replication: each replica write completes
    /// before the next is issued (`memcached_set`).
    SyncRep {
        /// Total copies stored (`F`); tolerates `F - 1` failures.
        replicas: usize,
    },
    /// Non-blocking asynchronous replication: all replica writes are
    /// issued concurrently (`memcached_iset` + `memcached_wait`).
    AsyncRep {
        /// Total copies stored (`F`).
        replicas: usize,
    },
    /// Online erasure coding `RS(k, m)` over `k + m` servers.
    Erasure {
        /// Data shards per value.
        k: usize,
        /// Parity shards per value; tolerates `m` failures.
        m: usize,
        /// Where encoding happens on the Set path.
        encode_at: Side,
        /// Where decoding/aggregation happens on the Get path.
        decode_at: Side,
        /// Codec family (the paper selects `RS_Van`).
        codec: CodecKind,
    },
    /// Hybrid replication/erasure coding (the paper's future work): values
    /// at or below `threshold` bytes are replicated (erasure coding's
    /// per-chunk overheads dominate for tiny values), larger values are
    /// erasure-coded with client-side encode/decode.
    ///
    /// Reads probe the plain key first; a miss falls through to the chunk
    /// path, so no extra metadata service is needed.
    Hybrid {
        /// Values of at most this many bytes are replicated.
        threshold: u64,
        /// Copies stored for small values.
        replicas: usize,
        /// Data shards for large values.
        k: usize,
        /// Parity shards for large values.
        m: usize,
    },
}

impl Scheme {
    /// `Era-CE-CD`: client-side encode, client-side decode.
    pub fn era_ce_cd(k: usize, m: usize) -> Scheme {
        Scheme::Erasure {
            k,
            m,
            encode_at: Side::Client,
            decode_at: Side::Client,
            codec: CodecKind::RsVan,
        }
    }

    /// `Era-SE-SD`: server-side encode, server-side decode.
    pub fn era_se_sd(k: usize, m: usize) -> Scheme {
        Scheme::Erasure {
            k,
            m,
            encode_at: Side::Server,
            decode_at: Side::Server,
            codec: CodecKind::RsVan,
        }
    }

    /// `Era-SE-CD`: server-side encode, client-side decode.
    pub fn era_se_cd(k: usize, m: usize) -> Scheme {
        Scheme::Erasure {
            k,
            m,
            encode_at: Side::Server,
            decode_at: Side::Client,
            codec: CodecKind::RsVan,
        }
    }

    /// `Era-CE-SD`: client-side encode, server-side decode (described but
    /// not favoured by the paper; kept for ablations).
    pub fn era_ce_sd(k: usize, m: usize) -> Scheme {
        Scheme::Erasure {
            k,
            m,
            encode_at: Side::Client,
            decode_at: Side::Server,
            codec: CodecKind::RsVan,
        }
    }

    /// A hybrid scheme tolerating two failures everywhere: 3-way
    /// replication at or below `threshold` bytes, `RS(k, m)` above.
    pub fn hybrid(threshold: u64, k: usize, m: usize) -> Scheme {
        Scheme::Hybrid {
            threshold,
            replicas: m + 1,
            k,
            m,
        }
    }

    /// The figure label the paper uses for this scheme.
    pub fn label(&self) -> String {
        match self {
            Scheme::NoRep => "NoRep".to_owned(),
            Scheme::SyncRep { replicas } => format!("Sync-Rep={replicas}"),
            Scheme::AsyncRep { replicas } => format!("Async-Rep={replicas}"),
            Scheme::Erasure {
                encode_at,
                decode_at,
                ..
            } => {
                let e = match encode_at {
                    Side::Client => "CE",
                    Side::Server => "SE",
                };
                let d = match decode_at {
                    Side::Client => "CD",
                    Side::Server => "SD",
                };
                format!("Era-{e}-{d}")
            }
            Scheme::Hybrid {
                threshold,
                replicas,
                k,
                m,
            } => format!("Hybrid(rep={replicas}<={threshold}B,RS({k},{m}))"),
        }
    }

    /// Number of simultaneous server failures tolerated.
    pub fn fault_tolerance(&self) -> usize {
        match self {
            Scheme::NoRep => 0,
            Scheme::SyncRep { replicas } | Scheme::AsyncRep { replicas } => replicas - 1,
            Scheme::Erasure { m, .. } => *m,
            Scheme::Hybrid { replicas, m, .. } => (*replicas - 1).min(*m),
        }
    }

    /// Bytes stored per byte of user data. For [`Scheme::Hybrid`] this is
    /// value-size dependent; use [`Scheme::storage_factor_for`] — this
    /// method reports the large-value (erasure) factor.
    pub fn storage_factor(&self) -> f64 {
        match self {
            Scheme::NoRep => 1.0,
            Scheme::SyncRep { replicas } | Scheme::AsyncRep { replicas } => *replicas as f64,
            Scheme::Erasure { k, m, .. } => (k + m) as f64 / *k as f64,
            Scheme::Hybrid { k, m, .. } => (k + m) as f64 / *k as f64,
        }
    }

    /// Bytes stored per byte of user data for a value of `len` bytes.
    pub fn storage_factor_for(&self, len: u64) -> f64 {
        match self {
            Scheme::Hybrid {
                threshold,
                replicas,
                ..
            } if len <= *threshold => *replicas as f64,
            _ => self.storage_factor(),
        }
    }

    /// How many servers one key's data touches (upper bound for hybrid).
    pub fn servers_per_key(&self) -> usize {
        match self {
            Scheme::NoRep => 1,
            Scheme::SyncRep { replicas } | Scheme::AsyncRep { replicas } => *replicas,
            Scheme::Erasure { k, m, .. } => k + m,
            Scheme::Hybrid { replicas, k, m, .. } => (*replicas).max(k + m),
        }
    }

    /// Whether the scheme uses blocking (synchronous) request semantics.
    pub fn is_blocking(&self) -> bool {
        matches!(self, Scheme::SyncRep { .. })
    }

    /// The erasure parameters, if this is an erasure scheme. Hybrid
    /// schemes report their large-value parameters with client-side
    /// placement.
    pub fn erasure_params(&self) -> Option<(usize, usize, Side, Side, CodecKind)> {
        match *self {
            Scheme::Erasure {
                k,
                m,
                encode_at,
                decode_at,
                codec,
            } => Some((k, m, encode_at, decode_at, codec)),
            Scheme::Hybrid { k, m, .. } => {
                Some((k, m, Side::Client, Side::Client, CodecKind::RsVan))
            }
            _ => None,
        }
    }

    /// Whether chunk slot `slot` is also a replica slot: under the hybrid
    /// scheme its holder may keep a plain copy of an earlier, small value
    /// of the same key, which a chunk write there must retire.
    pub(crate) fn is_replica_slot(&self, slot: usize) -> bool {
        matches!(*self, Scheme::Hybrid { replicas, .. } if slot < replicas)
    }

    /// The hybrid parameters, if this is a hybrid scheme.
    pub fn hybrid_params(&self) -> Option<(u64, usize, usize, usize)> {
        match *self {
            Scheme::Hybrid {
                threshold,
                replicas,
                k,
                m,
            } => Some((threshold, replicas, k, m)),
            _ => None,
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(Scheme::era_ce_cd(3, 2).label(), "Era-CE-CD");
        assert_eq!(Scheme::era_se_sd(3, 2).label(), "Era-SE-SD");
        assert_eq!(Scheme::era_se_cd(3, 2).label(), "Era-SE-CD");
        assert_eq!(Scheme::era_ce_sd(3, 2).label(), "Era-CE-SD");
        assert_eq!(Scheme::SyncRep { replicas: 3 }.label(), "Sync-Rep=3");
        assert_eq!(Scheme::AsyncRep { replicas: 3 }.label(), "Async-Rep=3");
        assert_eq!(Scheme::NoRep.to_string(), "NoRep");
    }

    #[test]
    fn equivalent_fault_tolerance_cheaper_storage() {
        // The paper's headline: RS(3,2) and 3-way replication both tolerate
        // two failures, but EC stores 1.67x instead of 3x.
        let era = Scheme::era_ce_cd(3, 2);
        let rep = Scheme::AsyncRep { replicas: 3 };
        assert_eq!(era.fault_tolerance(), rep.fault_tolerance());
        assert!((era.storage_factor() - 5.0 / 3.0).abs() < 1e-9);
        assert!((rep.storage_factor() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn servers_per_key() {
        assert_eq!(Scheme::NoRep.servers_per_key(), 1);
        assert_eq!(Scheme::SyncRep { replicas: 3 }.servers_per_key(), 3);
        assert_eq!(Scheme::era_ce_cd(3, 2).servers_per_key(), 5);
    }

    #[test]
    fn only_sync_rep_blocks() {
        assert!(Scheme::SyncRep { replicas: 2 }.is_blocking());
        assert!(!Scheme::AsyncRep { replicas: 2 }.is_blocking());
        assert!(!Scheme::era_ce_cd(3, 2).is_blocking());
        assert!(!Scheme::NoRep.is_blocking());
    }

    #[test]
    fn hybrid_threshold_is_inclusive() {
        let s = Scheme::hybrid(4096, 3, 2);
        assert_eq!(
            s.storage_factor_for(4096),
            3.0,
            "at the threshold: replicate"
        );
        assert!(s.storage_factor_for(4097) < 2.0, "above: erasure-code");
    }

    #[test]
    fn erasure_params_roundtrip() {
        let (k, m, e, d, c) = Scheme::era_se_cd(4, 2).erasure_params().unwrap();
        assert_eq!((k, m), (4, 2));
        assert_eq!(e, Side::Server);
        assert_eq!(d, Side::Client);
        assert_eq!(c, CodecKind::RsVan);
        assert!(Scheme::NoRep.erasure_params().is_none());
    }
}
