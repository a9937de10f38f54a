//! Property tests: encode -> erase (<= m) -> reconstruct == identity.

use std::sync::{Arc, Mutex, OnceLock};

use eckv_erasure::{CodecKind, ErasureCodec, Lrc, Striper};
use eckv_gf::kernels::{active_backend, force_backend, ALL_BACKENDS};
use eckv_simnet::check::{check, vec_of};
use eckv_simnet::SimRng;

const CASES: u64 = 64;

fn bytes(rng: &mut SimRng, len: std::ops::Range<usize>) -> Vec<u8> {
    vec_of(rng, len, |r| r.next_u64() as u8)
}

/// A roundtrip case: value, shape and up to `m` distinct erased shards.
#[derive(Debug)]
struct Case {
    value: Vec<u8>,
    k: usize,
    m: usize,
    erased: Vec<usize>,
}

fn gen_case(rng: &mut SimRng, max_k: usize, m: Option<usize>) -> Case {
    let value = bytes(rng, 0..4096);
    let k = 1 + rng.index(max_k);
    let m = m.unwrap_or_else(|| 1 + rng.index(4));
    let mut erased: Vec<usize> = (0..k + m).collect();
    rng.shuffle(&mut erased);
    erased.truncate(rng.index(m + 1));
    Case {
        value,
        k,
        m,
        erased,
    }
}

fn roundtrip(kind: CodecKind, c: &Case) {
    let striper = Striper::from(kind.build(c.k, c.m).expect("valid shape"));
    let stripe = striper.encode_value(&c.value);
    let mut shards: Vec<Option<Vec<u8>>> = stripe.shards.iter().cloned().map(Some).collect();
    for &e in &c.erased {
        shards[e] = None;
    }
    let got = striper
        .decode_value(&mut shards, stripe.original_len)
        .expect("within tolerance");
    assert_eq!(got, c.value);
    // Repair must regenerate parity identical to the original encode.
    for (i, s) in shards.iter().enumerate() {
        assert_eq!(s.as_ref().unwrap(), &stripe.shards[i], "shard {i}");
    }
}

#[test]
fn rs_van_roundtrips() {
    check(
        CASES,
        |rng| gen_case(rng, 7, None),
        |c| roundtrip(CodecKind::RsVan, c),
    );
}

#[test]
fn cauchy_roundtrips() {
    check(
        CASES,
        |rng| gen_case(rng, 7, None),
        |c| roundtrip(CodecKind::CauchyRs, c),
    );
}

#[test]
fn liberation_roundtrips() {
    check(
        CASES,
        |rng| gen_case(rng, 11, Some(2)),
        |c| roundtrip(CodecKind::Liberation, c),
    );
}

#[test]
fn lrc_roundtrips_exactly_when_the_oracle_says_recoverable() {
    // Every one of the 2^8 loss patterns of LRC(4, 2, 2), each with its
    // own random value.
    let mut rng = SimRng::seed_from_u64(0x1c);
    for mask in 0u32..1 << 8 {
        let value = bytes(&mut rng, 1..2048);
        let lrc = Lrc::new(4, 2, 2).expect("valid");
        let lost: Vec<usize> = (0..8).filter(|&i| mask >> i & 1 == 1).collect();
        let recoverable = lrc.is_recoverable(&lost);
        let striper = Striper::new(Arc::new(lrc) as Arc<dyn ErasureCodec>);
        let stripe = striper.encode_value(&value);
        let mut shards: Vec<Option<Vec<u8>>> = stripe.shards.iter().cloned().map(Some).collect();
        for &i in &lost {
            shards[i] = None;
        }
        match striper.decode_value(&mut shards, stripe.original_len) {
            Ok(got) => {
                assert!(recoverable, "decode succeeded on unrecoverable {lost:?}");
                assert_eq!(got, value, "lost {lost:?}");
            }
            // The trait-level shape check also rejects < k survivors.
            Err(_) => assert!(!recoverable || 8 - lost.len() < 4, "lost {lost:?}"),
        }
    }
}

#[test]
fn stripes_are_backend_invariant() {
    // GF arithmetic is exact, so a stripe encoded under any kernel
    // backend must be byte-identical — this is what keeps golden traces
    // stable whatever hardware runs the suite.
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let _guard = LOCK
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let prev = active_backend();
    check(
        CASES,
        |rng| bytes(rng, 0..4096),
        |value| {
            for kind in CodecKind::ALL {
                let striper = Striper::from(kind.build(3, 2).unwrap());
                let mut want = None;
                for backend in ALL_BACKENDS {
                    if !backend.is_supported() {
                        continue;
                    }
                    force_backend(backend);
                    let stripe = striper.encode_value(value);
                    match &want {
                        None => want = Some(stripe),
                        Some(w) => assert_eq!(&stripe, w, "{kind} stripe diverges on {backend:?}"),
                    }
                }
            }
        },
    );
    force_backend(prev);
}

#[test]
fn codecs_agree_on_data_shards() {
    // All systematic codes must lay out the data shards identically
    // modulo alignment padding: concatenated data shards start with the
    // original value.
    check(
        CASES,
        |rng| bytes(rng, 1..2048),
        |value| {
            for kind in CodecKind::ALL {
                let striper = Striper::from(kind.build(3, 2).unwrap());
                let stripe = striper.encode_value(value);
                let joined: Vec<u8> = stripe.shards[..3].concat();
                assert_eq!(&joined[..value.len()], &value[..], "{kind}");
            }
        },
    );
}
