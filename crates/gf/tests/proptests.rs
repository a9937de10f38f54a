//! Property tests for the GF(2^8) algebra. Small domains (element pairs,
//! row subsets) are enumerated outright; the rest are sampled.

use eckv_gf::{BitMatrix, Gf256, Matrix};
use eckv_simnet::check::check;
use eckv_simnet::SimRng;

#[test]
fn field_axioms() {
    // Every pair (a, b); the third operand of the three-element laws is
    // drawn per pair.
    let mut rng = SimRng::seed_from_u64(0x6f);
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            let c = Gf256::new(rng.next_u64() as u8);
            let (a, b) = (Gf256::new(a), Gf256::new(b));
            // Commutativity
            assert_eq!(a + b, b + a);
            assert_eq!(a * b, b * a);
            // Associativity
            assert_eq!((a + b) + c, a + (b + c));
            assert_eq!((a * b) * c, a * (b * c));
            // Distributivity
            assert_eq!(a * (b + c), a * b + a * c);
            // Identities
            assert_eq!(a + Gf256::ZERO, a);
            assert_eq!(a * Gf256::ONE, a);
            // Characteristic 2
            assert_eq!(a + a, Gf256::ZERO);
        }
    }
}

#[test]
fn division_inverts_multiplication() {
    for a in 0..=255u8 {
        for b in 1..=255u8 {
            let (a, b) = (Gf256::new(a), Gf256::new(b));
            assert_eq!((a * b) / b, a);
        }
    }
}

#[test]
fn pow_is_homomorphic() {
    check(
        256,
        |rng| {
            (
                rng.range_u64(1, 256) as u8,
                rng.index(1000),
                rng.index(1000),
            )
        },
        |&(a, e1, e2)| {
            let a = Gf256::new(a);
            assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
        },
    );
}

#[test]
fn random_invertible_matrix_roundtrips() {
    check(
        256,
        |rng| {
            let n = 1 + rng.index(7);
            let mut m = Matrix::zero(n, n);
            for r in 0..n {
                for c in 0..n {
                    m.set(r, c, rng.next_u64() as u8);
                }
            }
            m
        },
        |m| {
            // Singular draws are rare and carry no claim.
            if let Ok(inv) = m.invert() {
                assert!(m.mul(&inv).is_identity());
                assert!(inv.mul(m).is_identity());
            }
        },
    );
}

#[test]
fn bitmatrix_inverse_roundtrips() {
    check(
        256,
        |rng| {
            let n = 1 + rng.index(23);
            let mut m = BitMatrix::zero(n, n);
            for r in 0..n {
                for c in 0..n {
                    m.set(r, c, rng.next_u64() & 1 == 1);
                }
            }
            m
        },
        |m| {
            if let Ok(inv) = m.invert() {
                assert!(m.mul(&inv).is_identity());
                assert!(inv.mul(m).is_identity());
            }
        },
    );
}

#[test]
fn gf256_bitmatrix_expansion_respects_products() {
    let expand = |x: u8| {
        let mut m = Matrix::zero(1, 1);
        m.set(0, 0, x);
        BitMatrix::from_gf256_matrix(&m)
    };
    let table: Vec<BitMatrix> = (0..=255u8).map(expand).collect();
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            assert_eq!(
                table[a as usize].mul(&table[b as usize]),
                table[Gf256::mul_bytes(a, b) as usize],
                "a={a} b={b}"
            );
        }
    }
}

#[test]
fn vandermonde_any_k_rows_invertible() {
    // Every k-subset of the rows, for every shape the sampled version
    // drew from (k < 6, up to 3 extra rows).
    fn subsets(rows: usize, k: usize) -> Vec<Vec<usize>> {
        (0u32..1 << rows)
            .filter(|mask| mask.count_ones() as usize == k)
            .map(|mask| (0..rows).filter(|&r| mask >> r & 1 == 1).collect())
            .collect()
    }
    for k in 1..6 {
        for extra in 0..4 {
            let m = Matrix::vandermonde(k + extra, k);
            for chosen in subsets(k + extra, k) {
                let sub = m.select_rows(&chosen);
                assert!(sub.invert().is_ok(), "rows {chosen:?} must be independent");
            }
        }
    }
}
