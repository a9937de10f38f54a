//! A small, dependency-free property checker for the workspace's tests.
//!
//! A property is a closure that panics on a bad input. [`check`] runs it
//! over `cases` generated inputs; [`check_seq`] also shrinks a failing
//! input's sequence part by greedily dropping one element at a time. Case
//! `i` always draws from `SimRng::seed_from_u64(case_seed(i))`, so a rerun
//! replays the same inputs; a failure reports the case index, the seed
//! and the `Debug` form of the (shrunk) input.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::SimRng;

/// The generator seed of case `case` (fixed, so failures reproduce).
pub fn case_seed(case: u64) -> u64 {
    (case + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A vector of `len` (uniform in the range) elements drawn by `elem`.
pub fn vec_of<T>(
    rng: &mut SimRng,
    len: Range<usize>,
    mut elem: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    let n = len.start + rng.index(len.end - len.start);
    (0..n).map(|_| elem(rng)).collect()
}

/// Runs `prop` on `cases` inputs drawn by `gen`; panics on the first
/// failing case with its index, seed and input.
pub fn check<T: Debug>(
    cases: u64,
    mut gen: impl FnMut(&mut SimRng) -> T,
    mut prop: impl FnMut(&T),
) {
    for case in 0..cases {
        let seed = case_seed(case);
        let input = gen(&mut SimRng::seed_from_u64(seed));
        if let Err(cause) = outcome(&mut prop, &input) {
            report(case, seed, 0, &input, &cause);
        }
    }
}

/// [`check`] for inputs of the form `(context, sequence)`: a failing
/// case is shrunk to a minimal non-empty sequence (no single element can
/// be dropped without the property passing) before it is reported.
pub fn check_seq<C: Clone + Debug, T: Clone + Debug>(
    cases: u64,
    mut gen: impl FnMut(&mut SimRng) -> (C, Vec<T>),
    mut prop: impl FnMut(&(C, Vec<T>)),
) {
    for case in 0..cases {
        let seed = case_seed(case);
        let input = gen(&mut SimRng::seed_from_u64(seed));
        if let Err(cause) = outcome(&mut prop, &input) {
            let original = input.1.len();
            let (minimal, cause) = shrink(&mut prop, input, cause);
            report(case, seed, original - minimal.1.len(), &minimal, &cause);
        }
    }
}

/// Greedy one-element-drop shrinking: sweep the sequence, keeping every
/// removal under which the property still fails, until a sweep removes
/// nothing. The sequence keeps at least one element, so properties may
/// rely on the non-empty inputs their generators promise.
fn shrink<C: Clone, T: Clone>(
    prop: &mut impl FnMut(&(C, Vec<T>)),
    (ctx, mut seq): (C, Vec<T>),
    mut cause: String,
) -> ((C, Vec<T>), String) {
    loop {
        let before = seq.len();
        let mut i = 0;
        while i < seq.len() && seq.len() > 1 {
            let mut candidate = (ctx.clone(), seq.clone());
            candidate.1.remove(i);
            match outcome(prop, &candidate) {
                Err(c) => (seq, cause) = (candidate.1, c),
                Ok(()) => i += 1,
            }
        }
        if seq.len() == before {
            return ((ctx, seq), cause);
        }
    }
}

/// Runs the property once, turning a panic into its message.
fn outcome<T>(prop: &mut impl FnMut(&T), input: &T) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| prop(input))).map_err(|payload| {
        let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
        payload
            .downcast_ref::<String>()
            .cloned()
            .or(text)
            .unwrap_or_default()
    })
}

fn report(case: u64, seed: u64, dropped: usize, input: &impl Debug, cause: &str) -> ! {
    panic!(
        "property failed on case {case} (seed {seed:#x}; {dropped} sequence \
         elements shrunk away)\ninput: {input:?}\ncause: {cause}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digits(rng: &mut SimRng) -> ((), Vec<u64>) {
        ((), (0..20).map(|_| rng.next_below(10)).collect())
    }

    #[test]
    fn every_case_draws_a_fixed_input() {
        let (mut first, mut second) = (Vec::new(), Vec::new());
        check(40, |rng| rng.next_u64(), |&x| first.push(x));
        check(40, |rng| rng.next_u64(), |&x| second.push(x));
        assert_eq!(first.len(), 40);
        assert_eq!(first, second);
        assert_eq!(first[7], SimRng::seed_from_u64(case_seed(7)).next_u64());
    }

    #[test]
    fn a_failure_reports_its_case_seed_and_shrunk_input() {
        let err = catch_unwind(|| {
            check_seq(50, digits, |(_, xs)| {
                assert!(!xs.contains(&4), "saw a four")
            })
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        let case = (0..).find(|&c| {
            digits(&mut SimRng::seed_from_u64(case_seed(c)))
                .1
                .contains(&4)
        });
        let case = case.expect("some case draws a four");
        let head = format!("case {case} (seed {:#x}; 19 sequence", case_seed(case));
        assert!(msg.contains(&head), "{msg}");
        assert!(msg.contains("input: ((), [4])\ncause: saw a four"), "{msg}");
    }

    #[test]
    fn shrinking_keeps_only_the_elements_the_failure_needs() {
        // Fails whenever both 3 and 5 are present, in any order.
        let mut prop = |(_, xs): &((), Vec<u32>)| assert!(!(xs.contains(&3) && xs.contains(&5)));
        let input = ((), vec![9, 5, 1, 3, 3, 7, 5, 2]);
        let cause = outcome(&mut prop, &input).unwrap_err();
        assert_eq!(shrink(&mut prop, input, cause).0 .1, vec![3, 5]);
    }
}
