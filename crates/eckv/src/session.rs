//! A blocking, single-caller convenience facade over the engine.
//!
//! Examples and tests drive the engine through explicit workload streams;
//! a downstream user who just wants "a resilient KV store to poke at"
//! gets [`KvSession`]: each call runs the simulation to quiescence and
//! returns the result directly.

use std::rc::Rc;
use std::sync::Arc;

use eckv_core::{driver, ops::Op, repair, EngineConfig, RepairReport, Scheme, World};
use eckv_simnet::{SimDuration, Simulation};
use eckv_store::{Bytes, ClusterConfig, Payload, StoreKey};

/// Errors surfaced by [`KvSession`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// The operation could not complete (servers unreachable, value
    /// missing, or beyond the failure budget).
    OperationFailed {
        /// The key involved.
        key: String,
    },
    /// The returned data failed integrity validation.
    IntegrityViolation {
        /// The key involved.
        key: String,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::OperationFailed { key } => write!(f, "operation on '{key}' failed"),
            SessionError::IntegrityViolation { key } => {
                write!(f, "data returned for '{key}' failed integrity validation")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// A synchronous session against a simulated resilient KV cluster.
///
/// # Example
///
/// ```
/// use eckv::session::KvSession;
/// use eckv::prelude::*;
///
/// let mut kv = KvSession::new(ClusterProfile::RiQdr, Scheme::era_ce_cd(3, 2), 5);
/// kv.set("motd", b"erasure coding is cheaper than replication")?;
///
/// kv.kill_server(1);
/// kv.kill_server(3);
/// let value = kv.get("motd")?.expect("still readable after 2 failures");
/// assert_eq!(&value[..7], b"erasure");
/// # Ok::<(), eckv::session::SessionError>(())
/// ```
#[derive(Debug)]
pub struct KvSession {
    world: Rc<World>,
    sim: Simulation,
}

impl KvSession {
    /// Opens a session against a fresh `servers`-node cluster.
    pub fn new(profile: eckv_simnet::ClusterProfile, scheme: Scheme, servers: usize) -> KvSession {
        let world = World::new(EngineConfig::new(
            ClusterConfig::new(profile, servers, 1),
            scheme,
        ));
        KvSession {
            world,
            sim: Simulation::new(),
        }
    }

    /// Runs one operation to quiescence; returns `(errors, integrity)`.
    fn run_one(&mut self, op: Op) -> (u64, u64) {
        self.world.reset_metrics();
        driver::run_workload(&self.world, &mut self.sim, vec![vec![op]]);
        let m = self.world.metrics.borrow();
        (m.errors, m.integrity_errors)
    }

    /// Stores `value` under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::OperationFailed`] if the write could not be
    /// made durable.
    pub fn set(&mut self, key: &str, value: impl Into<Vec<u8>>) -> Result<(), SessionError> {
        let (errors, _) = self.run_one(Op::set_inline(key.to_owned(), value.into()));
        if errors == 0 {
            Ok(())
        } else {
            Err(SessionError::OperationFailed {
                key: key.to_owned(),
            })
        }
    }

    /// Fetches `key`; `Ok(None)` is a clean miss.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::IntegrityViolation`] if the stored data was
    /// corrupted (never observed unless the store itself misbehaves).
    pub fn get(&mut self, key: &str) -> Result<Option<Vec<u8>>, SessionError> {
        // Fetch through the engine (this also validates against the write
        // record), then reassemble the plain bytes from the stores.
        let (errors, integrity) = self.run_one(Op::get(key.to_owned()));
        if integrity > 0 {
            return Err(SessionError::IntegrityViolation {
                key: key.to_owned(),
            });
        }
        if errors > 0 {
            // Distinguish "missing" from "unreachable": a key we never
            // wrote is a miss, otherwise the failure budget was exceeded.
            return if self.world.expected.borrow().contains_key(key) {
                Err(SessionError::OperationFailed {
                    key: key.to_owned(),
                })
            } else {
                Ok(None)
            };
        }
        Ok(Some(self.reassemble(key)))
    }

    /// Rebuilds the plain bytes of `key` from its live placement holders
    /// (a replica, or chunk `i` from holder `i`). A dead server may still
    /// hold a copy the writes since its death never reached, so it is
    /// never read.
    fn reassemble(&self, key: &str) -> Vec<u8> {
        let w = *self
            .world
            .expected
            .borrow()
            .get(key)
            .expect("validated read implies a write record");
        let cluster = &self.world.cluster;
        // Each value found is a shared view (a reference-count bump, not a
        // copy); the decode reads chunks in place.
        let peek = |srv: usize, store_key: &StoreKey| -> Option<Bytes> {
            if !cluster.is_server_alive(srv) {
                return None;
            }
            match cluster.servers[srv].borrow().store().peek(store_key) {
                Some(Payload::Inline(b)) => Some(b.clone()),
                _ => None,
            }
        };
        let targets = self.world.targets(key);
        let key: Arc<str> = key.into();
        let plain = StoreKey::from(&key);
        if let Some(copy) = targets.iter().find_map(|&srv| peek(srv, &plain)) {
            return copy.to_vec();
        }
        let striper = self
            .world
            .striper
            .as_ref()
            .expect("no replica implies an erasure scheme");
        let shards: Vec<Option<Bytes>> = (0..striper.codec().total_shards())
            .map(|i| {
                targets
                    .get(i)
                    .and_then(|&srv| peek(srv, &StoreKey::chunk(key.clone(), i)))
            })
            .collect();
        striper
            .decode_value(&shards, w.len as usize)
            .expect("validated read implies decodability")
    }

    /// Marks `server` failed at the transport level.
    pub fn kill_server(&mut self, server: usize) {
        self.world.cluster.kill_server(server);
    }

    /// Replaces a failed server with an empty node and re-protects all
    /// affected keys.
    pub fn repair_server(&mut self, server: usize) -> RepairReport {
        repair::repair_server(&self.world, &mut self.sim, server)
    }

    /// Virtual time consumed so far.
    pub fn elapsed(&self) -> SimDuration {
        self.sim.now().since(eckv_simnet::SimTime::ZERO)
    }

    /// The underlying world, for advanced inspection.
    pub fn world(&self) -> &Rc<World> {
        &self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eckv_simnet::ClusterProfile;

    #[test]
    fn set_get_roundtrip() {
        let mut kv = KvSession::new(ClusterProfile::RiQdr, Scheme::era_ce_cd(3, 2), 5);
        kv.set("a", b"hello".to_vec()).unwrap();
        assert_eq!(kv.get("a").unwrap().unwrap(), b"hello");
        assert_eq!(kv.get("missing").unwrap(), None);
        assert!(kv.elapsed() > SimDuration::ZERO);
    }

    #[test]
    fn survives_failures_and_repair() {
        let mut kv = KvSession::new(ClusterProfile::RiQdr, Scheme::era_ce_cd(3, 2), 5);
        for i in 0..10 {
            kv.set(&format!("k{i}"), vec![i as u8; 1000]).unwrap();
        }
        kv.kill_server(0);
        kv.kill_server(2);
        for i in 0..10 {
            assert_eq!(
                kv.get(&format!("k{i}")).unwrap().unwrap(),
                vec![i as u8; 1000]
            );
        }
        let report = kv.repair_server(0);
        assert_eq!(report.keys_lost, 0);
        // A different pair of failures is now tolerable.
        kv.kill_server(4);
        for i in 0..10 {
            assert!(kv.get(&format!("k{i}")).unwrap().is_some());
        }
    }

    #[test]
    fn beyond_budget_reports_failure_not_corruption() {
        let mut kv = KvSession::new(ClusterProfile::RiQdr, Scheme::era_ce_cd(3, 2), 5);
        kv.set("x", b"data".to_vec()).unwrap();
        kv.kill_server(0);
        kv.kill_server(1);
        kv.kill_server(2);
        match kv.get("x") {
            Err(SessionError::OperationFailed { .. }) => {}
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn session_errors_display() {
        let e = SessionError::OperationFailed { key: "abc".into() };
        assert!(e.to_string().contains("abc"));
        let e = SessionError::IntegrityViolation { key: "xyz".into() };
        assert!(e.to_string().contains("xyz"));
    }

    #[test]
    fn replicated_sessions_work_too() {
        let mut kv = KvSession::new(
            ClusterProfile::SdscComet,
            Scheme::AsyncRep { replicas: 3 },
            5,
        );
        kv.set("r", b"copy".to_vec()).unwrap();
        kv.kill_server(kv.world().cluster.ring.primary_for(b"r"));
        assert_eq!(kv.get("r").unwrap().unwrap(), b"copy");
    }

    #[test]
    fn get_never_returns_a_dead_servers_stale_copy() {
        let mut kv = KvSession::new(ClusterProfile::RiQdr, Scheme::AsyncRep { replicas: 3 }, 5);
        assert_eq!(kv.world().targets("k0"), vec![2, 3, 4]);
        kv.set("k0", b"old".to_vec()).unwrap();
        kv.kill_server(2);
        kv.set("k0", b"new".to_vec()).unwrap();
        assert_eq!(kv.get("k0").unwrap().unwrap(), b"new");
    }
}
