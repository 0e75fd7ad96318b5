//! Live-streaming scenario: a random swarm of DSL-like peers, a fraction of which sit behind
//! NATs, receives a live video stream. The overlay computed by the paper's algorithms is fed
//! to the chunk-level simulator in *live* mode to measure the lag of the slowest peer.
//!
//! Run with `cargo run --release --example live_streaming`.

use bmp::core::acyclic_guarded::AcyclicGuardedSolver;
use bmp::core::bounds::cyclic_upper_bound;
use bmp::platform::distribution::NamedDistribution;
use bmp::platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp::sim::{run_adaptive, ChurnSchedule, Overlay, SimConfig, SourceMode, StaticPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let peers = 60;
    let open_probability = 0.6; // 40% of the peers are behind NATs
    let mut rng = StdRng::seed_from_u64(2024);

    let config = GeneratorConfig::new(peers, open_probability).expect("valid configuration");
    let generator = InstanceGenerator::new(config, NamedDistribution::PLab.build());
    let instance = generator.generate(&mut rng);
    println!(
        "swarm of {} peers ({} open, {} guarded), source upload {:.2}",
        peers,
        instance.n(),
        instance.m(),
        instance.source_bandwidth()
    );

    let solver = AcyclicGuardedSolver::default();
    let solution = solver.solve(&instance);
    let cyclic = cyclic_upper_bound(&instance);
    println!(
        "stream rate: {:.2} (acyclic overlay) vs {:.2} (cyclic upper bound), ratio {:.3}",
        solution.throughput,
        cyclic,
        solution.throughput / cyclic
    );
    println!(
        "largest outdegree in the overlay: {} connections",
        solution.scheme.outdegrees().into_iter().max().unwrap_or(0)
    );

    // Stream 500 chunks produced live at the overlay's nominal rate.
    let overlay = Overlay::from_scheme(&solution.scheme);
    let sim_config = SimConfig {
        num_chunks: 500,
        source_mode: SourceMode::Live {
            rate: solution.throughput,
        },
        jitter: 0.1,
        ..SimConfig::default()
    }
    .scaled_to(solution.throughput, 2.0);
    let report = run_adaptive(
        overlay,
        sim_config,
        &ChurnSchedule::empty(),
        &mut StaticPolicy,
        solution.throughput,
    )
    .report;

    let source_done = report.completion_time[0].unwrap_or(f64::NAN);
    match report.makespan() {
        Some(makespan) => {
            println!(
                "live stream of {:.0} data units: source finished producing at t = {:.1}, \
                 slowest peer finished at t = {:.1} (lag {:.1})",
                report.message_size(),
                source_done,
                makespan,
                makespan - source_done
            );
            println!(
                "worst peer delivery rate: {:.2} ({}% of the nominal stream rate)",
                report.min_achieved_rate().unwrap_or(0.0),
                (100.0 * report.min_achieved_rate().unwrap_or(0.0) / solution.throughput).round()
            );
        }
        None => println!(
            "some peers did not finish within the horizon (worst progress {:.0}%)",
            100.0 * report.worst_progress()
        ),
    }
}
