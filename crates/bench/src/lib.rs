//! Experiment harness: one module per figure of the paper's evaluation.
//!
//! Each module builds the deployment the paper describes, runs it on the
//! simulator (or, for Figure 4, measures the real codecs), and returns
//! [`Table`]s whose rows mirror the paper's plotted series. The
//! `paper-figures` binary prints them; integration tests assert the
//! *shape* findings (who wins, by roughly what factor, where crossovers
//! fall) hold.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod fig10;
pub mod fig11_12;
pub mod fig13;
pub mod fig4;
pub mod fig8;
pub mod fig9;
pub mod gf_kernels;
pub mod model_check;
pub mod overload;
pub mod repair_interference;
pub mod scale_out;
mod table;
pub mod tail_latency;

pub use table::Table;

use std::cell::RefCell;
use std::rc::Rc;

use eckv_core::{EngineConfig, World};
use eckv_simnet::{SimDuration, Trace, TraceBus, TraceEvent, TraceRecord};

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`; zero when
/// empty.
pub(crate) fn percentile(sorted: &[SimDuration], p: f64) -> SimDuration {
    if sorted.is_empty() {
        return SimDuration::ZERO;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The `op_completed` records a run keeps, in completion order.
pub(crate) type Completions = Rc<RefCell<Vec<TraceRecord>>>;

/// Builds `cfg`'s world traced into one sink that keeps every
/// `op_completed` record. Clearing the records alongside
/// [`World::reset_metrics`] starts a new measured phase.
pub(crate) fn world_keeping_completions(cfg: EngineConfig) -> (Rc<World>, Completions) {
    let done = Rc::new(RefCell::new(Vec::new()));
    let keep = done.clone();
    let mut bus = TraceBus::new();
    bus.add_sink(Rc::new(RefCell::new(move |r: &TraceRecord| {
        if matches!(r.event, TraceEvent::OpCompleted { .. }) {
            keep.borrow_mut().push(*r);
        }
    })));
    (World::new_traced(cfg, Trace::from_bus(bus)), done)
}

/// Human-readable size label (the paper's axis ticks).
pub fn size_label(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_labels() {
        assert_eq!(size_label(512), "512B");
        assert_eq!(size_label(16 << 10), "16K");
        assert_eq!(size_label(1 << 20), "1M");
    }
}
