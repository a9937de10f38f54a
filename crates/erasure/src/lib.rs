//! Erasure codes for resilient key-value storage.
//!
//! Implements the three codec families the paper studies with Jerasure
//! (Section III-B, Figure 4):
//!
//! * [`RsVandermonde`] — classic Reed-Solomon with a systematized
//!   Vandermonde generator matrix (`RS_Van`, the codec the paper selects
//!   for its 1 KB–1 MB key-value range).
//! * [`CauchyRs`] — Cauchy Reed-Solomon over a GF(2^8) bit-matrix with a
//!   density-reduced ("good") Cauchy matrix, encoding with pure XORs (`CRS`).
//! * [`Liberation`] — Plank's minimum-density RAID-6 Liberation codes
//!   (`R6-Lib`, two parities only).
//!
//! All codecs implement [`ErasureCodec`]: split a value into `k` data
//! shards, compute `m` parity shards, and reconstruct the original from any
//! `k` of the `k + m` shards. [`Striper`] handles value padding/framing so
//! arbitrary-length values round-trip exactly.
//!
//! # Example
//!
//! ```
//! use eckv_erasure::{CodecKind, Striper};
//!
//! // RS(3,2) as in the paper's 5-node cluster: tolerates 2 failures.
//! let striper = Striper::new(CodecKind::RsVan.build(3, 2)?);
//! let value = b"the quick brown fox jumps over the lazy dog".to_vec();
//! let stripe = striper.encode_value(&value);
//!
//! // Lose any two shards...
//! let mut shards: Vec<Option<&[u8]>> = stripe.shards.iter().map(|s| Some(&s[..])).collect();
//! shards[0] = None;
//! shards[3] = None;
//!
//! // ...and recover the value bit-exactly from the borrowed survivors.
//! let recovered = striper.decode_value(&shards, stripe.original_len)?;
//! assert_eq!(recovered, value);
//! # Ok::<(), eckv_erasure::ErasureError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmatrix_codec;
mod codec;
mod crs;
mod error;
mod liberation;
mod rs_van;
pub mod schedule;
mod stripe;

pub use codec::{CodecKind, CostProfile, ErasureCodec};
pub use crs::CauchyRs;
pub use error::ErasureError;
pub use liberation::Liberation;
pub use rs_van::RsVandermonde;
pub use stripe::{EncodedStripe, Striper};
