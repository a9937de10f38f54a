//! Property tests: encode -> erase (<= m) -> reconstruct == identity.

use std::sync::{Arc, Mutex, OnceLock};

use eckv_erasure::{CodecKind, ErasureCodec, ErasureError, Striper};
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
    let mut shards: Vec<Option<&[u8]>> = stripe.shards.iter().map(|s| Some(&s[..])).collect();
    for &e in &c.erased {
        shards[e] = None;
    }
    let got = striper
        .decode_value(&shards, stripe.original_len)
        .expect("within tolerance");
    assert_eq!(got, c.value);
    // Repair must regenerate parity identical to the original encode.
    let rebuilt = striper
        .codec()
        .reconstruct(&shards, &c.erased)
        .expect("within tolerance");
    for (&i, s) in c.erased.iter().zip(&rebuilt) {
        assert_eq!(s, &stripe.shards[i], "shard {i}");
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

/// Every kind at (3,2) and at a wider k = 6: (6,3), or (6,2) for R6-Lib,
/// which has two parities only.
fn every_codec() -> Vec<Arc<dyn ErasureCodec>> {
    let shapes = |kind| match kind {
        CodecKind::Liberation => [(3, 2), (6, 2)],
        _ => [(3, 2), (6, 3)],
    };
    CodecKind::ALL
        .into_iter()
        .flat_map(|kind| shapes(kind).map(|(k, m)| kind.build(k, m).expect("valid shape")))
        .map(Arc::from)
        .collect()
}

#[test]
fn every_codec_rebuilds_every_erasure_set_from_borrowed_survivors() {
    let mut rng = SimRng::seed_from_u64(0xb0e);
    for codec in every_codec() {
        let (k, n) = (codec.data_shards(), codec.total_shards());
        let name = codec.name();
        let striper = Striper::new(Arc::clone(&codec));
        let unit = k * codec.shard_alignment();
        // Values whose shards need no padding, and values one byte either
        // side of that.
        for len in [0, 1, unit - 1, unit, unit + 1, 7 * unit, 7 * unit + 3, 4096] {
            let value = bytes(&mut rng, len..len + 1);
            let stripe = striper.encode_value(&value);
            assert_eq!(stripe.shard_len % codec.shard_alignment(), 0);
            for mask in 0u32..1 << n {
                let lost: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
                if lost.len() > codec.parity_shards() {
                    continue;
                }
                let mut shards: Vec<Option<&[u8]>> =
                    stripe.shards.iter().map(|s| Some(&s[..])).collect();
                for &i in &lost {
                    shards[i] = None;
                }
                let rebuilt = codec
                    .reconstruct(&shards, &lost)
                    .unwrap_or_else(|e| panic!("{name} len {len} lost {lost:?}: {e}"));
                let want: Vec<Vec<u8>> = lost.iter().map(|&i| stripe.shards[i].clone()).collect();
                assert_eq!(rebuilt, want, "{name} len {len} lost {lost:?}");
                let all: Vec<usize> = (0..n).collect();
                assert_eq!(
                    codec.reconstruct(&shards, &all).expect("decodable"),
                    stripe.shards,
                    "{name} len {len} lost {lost:?}, every shard"
                );
                assert_eq!(
                    striper.decode_value(&shards, len).expect("decodable"),
                    value,
                    "{name} len {len} lost {lost:?}"
                );
            }
        }
    }
}

#[test]
fn malformed_survivors_are_errors_not_panics() {
    for codec in every_codec() {
        let (k, n, align) = (
            codec.data_shards(),
            codec.total_shards(),
            codec.shard_alignment(),
        );
        let name = codec.name();
        let stripe = Striper::new(Arc::clone(&codec)).encode_value(&[0x5a; 1000]);
        let whole: Vec<Option<&[u8]>> = stripe.shards.iter().map(|s| Some(&s[..])).collect();

        // Fewer than k survivors.
        let mut few = whole.clone();
        for slot in few.iter_mut().skip(k - 1) {
            *slot = None;
        }
        assert_eq!(
            codec.reconstruct(&few, &[n - 1]),
            Err(ErasureError::TooManyErasures {
                present: k - 1,
                required: k
            }),
            "{name}"
        );

        // One survivor shorter than the rest, by a whole alignment unit.
        let short = &stripe.shards[1][..stripe.shard_len - align];
        let mut uneven = whole.clone();
        uneven[0] = None;
        uneven[1] = Some(short);
        for wanted in [&[][..], &[0], &[n - 1]] {
            assert!(
                matches!(
                    codec.reconstruct(&uneven, wanted),
                    Err(ErasureError::ShapeMismatch { .. })
                ),
                "{name} wanted {wanted:?}"
            );
        }

        // A wanted index outside the stripe.
        assert!(matches!(
            codec.reconstruct(&whole, &[n]),
            Err(ErasureError::ShapeMismatch { .. })
        ));

        // Equal survivors whose length is off the codec's alignment.
        if align > 1 {
            let cut: Vec<Option<&[u8]>> = stripe
                .shards
                .iter()
                .map(|s| Some(&s[..stripe.shard_len - 1]))
                .collect();
            assert!(
                matches!(
                    codec.reconstruct(&cut, &[0]),
                    Err(ErasureError::BadAlignment { .. })
                ),
                "{name}"
            );
        }
    }
}
