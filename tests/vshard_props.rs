//! Property tests for vshard rebalance quality:
//!
//! 1. at fixed membership the vshard indirection composes to exactly the
//!    ring lookup it replaced, for arbitrary keys and group widths;
//! 2. one join to an N-member map reassigns at most ~2/(N+1) of the
//!    vshards, every move lands on the joiner, and only primary slots
//!    move;
//! 3. after ANY join/drain sequence, no vshard group ever names a
//!    drained (or never-joined) server, and every group stays a
//!    permutation of the active membership.

use eckv::simnet::check::{check_seq, vec_of};
use eckv::store::{HashRing, VShardMap};

/// One membership step chosen by the driver value: high bit picks
/// join/drain, the rest picks the drain victim.
fn apply_step(map: &mut VShardMap, next_id: &mut usize, step: u64) {
    let members = map.members();
    // Drain only while more than one member remains, join only while the
    // id space is sane; biased 50/50 otherwise.
    if step.is_multiple_of(2) || members.len() <= 1 {
        map.add_server(*next_id);
        *next_id += 1;
    } else {
        let victim = members[(step / 2) as usize % members.len()];
        map.drain_server(victim);
    }
}

fn assert_groups_are_member_permutations(map: &VShardMap) {
    let members = map.members();
    for v in 0..map.vshards() {
        let mut g = map.group(v).to_vec();
        g.sort_unstable();
        assert_eq!(
            g, members,
            "vshard {v} group must be a permutation of the active members"
        );
    }
}

#[test]
fn fixed_membership_matches_the_ring() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789:._-";
    check_seq(
        64,
        |rng| {
            let shape = (2 + rng.index(8), 4 + rng.index(4) as u32);
            let key = |r: &mut eckv::simnet::SimRng| -> String {
                vec_of(r, 1..33, |r| ALPHABET[r.index(ALPHABET.len())] as char)
                    .into_iter()
                    .collect()
            };
            (shape, vec_of(rng, 1..40, key))
        },
        |((servers, vnodes_pow), keys)| {
            let ring = HashRing::new(*servers, 1 << vnodes_pow);
            let map = VShardMap::from_ring(&ring);
            for key in keys {
                for n in 1..=*servers {
                    assert_eq!(
                        map.group_for(key.as_bytes(), n),
                        ring.servers_for(key.as_bytes(), n),
                        "key {key:?} n {n}"
                    );
                }
            }
        },
    );
}

#[test]
fn one_join_reassigns_a_bounded_fraction() {
    // Every (servers, vnodes) shape the property covers.
    for servers in 2usize..10 {
        for vnodes_pow in 4u32..8 {
            let ring = HashRing::new(servers, 1 << vnodes_pow);
            let mut map = VShardMap::from_ring(&ring);
            let moves = map.add_server(servers);
            assert!(!moves.is_empty(), "a joiner must take some load");
            // The joiner claims `vnodes` of the `servers * vnodes` arcs:
            // at most 1/(N) of the vshards move, comfortably within the
            // 2/(N+1) budget the paper-style rebalance bound allows.
            assert!(
                moves.len() * (servers + 1) <= 2 * map.vshards(),
                "{} moves of {} vshards breaks the 2/(N+1) bound",
                moves.len(),
                map.vshards()
            );
            for m in &moves {
                assert_eq!(m.slot, 0, "a join steals only primary slots");
                assert_eq!(m.to, servers, "every move lands on the joiner");
            }
            assert_groups_are_member_permutations(&map);
        }
    }
}

#[test]
fn churn_never_maps_a_vshard_to_a_dead_server() {
    check_seq(
        64,
        |rng| {
            let shape = (2 + rng.index(6), 4 + rng.index(3) as u32);
            (shape, vec_of(rng, 1..16, |r| r.next_u64()))
        },
        |((servers, vnodes_pow), steps)| {
            let ring = HashRing::new(*servers, 1 << vnodes_pow);
            let mut map = VShardMap::from_ring(&ring);
            let mut next_id = *servers;
            let mut epoch = map.epoch();
            for &step in steps {
                apply_step(&mut map, &mut next_id, step);
                assert!(map.epoch() > epoch, "every change must bump the epoch");
                epoch = map.epoch();
                // The invariant: groups only ever name active members, and
                // cover all of them.
                assert_groups_are_member_permutations(&map);
            }
        },
    );
}
