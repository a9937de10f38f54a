//! Regenerates the paper's tables and figures on the simulated clusters.
//!
//! ```text
//! paper-figures [gf|fig4|fig8|fig9|fig10|fig11|fig12|fig13|tail|repair|scale-out|overload|all] [--quick]
//! ```
//!
//! `--quick` shrinks client counts/op counts for a fast smoke run; omit it
//! to reproduce the paper-scale sweeps (minutes of wall time; build with
//! `--release`).

use eckv_bench::{
    ablations, fig10, fig11_12, fig13, fig4, fig8, fig9, gf_kernels, model_check, overload,
    repair_interference, scale_out, tail_latency,
};
use eckv_simnet::ClusterProfile;
use eckv_ycsb::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_owned());

    let all = which == "all";
    let mut ran = false;

    if all || which == "gf" {
        ran = true;
        let (table, speedup) = gf_kernels::kernel_table_with_speedup(quick);
        println!("{table}");
        println!("{}\n", gf_kernels::speedup_verdict(speedup));
    }
    if all || which == "fig4" {
        ran = true;
        println!("{}", fig4::encode_table(quick));
        println!("{}", fig4::decode_table(quick));
        println!("{}", fig4::tuned_packet_table(quick));
    }
    if all || which == "fig8" {
        ran = true;
        println!("{}", fig8::set_table(quick));
        println!("{}", fig8::get_table(quick, 0));
        println!("{}", fig8::get_table(quick, 2));
    }
    if all || which == "fig9" {
        ran = true;
        println!("{}", fig9::set_breakdown(quick));
        println!("{}", fig9::get_breakdown(quick));
    }
    if all || which == "fig10" {
        ran = true;
        println!("{}", fig10::memory_table(quick));
    }
    if all || which == "fig11" || which == "fig12" {
        ran = true;
        let scale = if quick {
            fig11_12::Scale::quick()
        } else {
            fig11_12::Scale::paper()
        };
        for profile in [ClusterProfile::SdscComet, ClusterProfile::Ri2Edr] {
            for workload in [Workload::A, Workload::B] {
                let sweep = fig11_12::Sweep::run(profile, workload, &scale);
                if all || which == "fig11" {
                    println!("{}", sweep.latency_table());
                }
                if all || which == "fig12" {
                    println!("{}", sweep.throughput_table());
                }
            }
        }
    }
    if all || which == "fig13" {
        ran = true;
        println!("{}", fig13::dfsio_table(quick));
    }
    if all || which == "tail" {
        ran = true;
        println!("{}", tail_latency::tail_latency_table(quick));
    }
    if all || which == "repair" {
        ran = true;
        println!("{}", repair_interference::interference_table(quick));
    }
    if all || which == "scale-out" {
        ran = true;
        println!("{}", scale_out::scale_out_table(quick));
    }
    if all || which == "overload" {
        ran = true;
        println!("{}", overload::goodput_table(quick));
    }
    if all || which == "model" {
        ran = true;
        println!("{}", model_check::table());
    }
    if all || which == "ablations" {
        ran = true;
        println!("{}", ablations::window_sweep(quick));
        println!("{}", ablations::km_sweep(quick));
        println!("{}", ablations::hybrid_sweep(quick));
        println!("{}", ablations::recovery_table(quick));
        println!("{}", ablations::load_balance_table(quick));
        println!("{}", ablations::iterative_table(quick));
        println!("{}", ablations::availability_timeline(quick));
        println!("{}", ablations::schedule_table());
        println!("{}", ablations::ssd_table(quick));
    }

    if !ran {
        eprintln!(
            "unknown figure '{which}'; expected gf, fig4, fig8, fig9, fig10, fig11, fig12, fig13, tail, repair, scale-out, overload, model, ablations or all"
        );
        std::process::exit(2);
    }
}
