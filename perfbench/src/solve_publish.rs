//! `solve-publish`: a seeded stream of 2000-receiver platforms, each solved with
//! `solve --out` and then checked with `verify` on the written scheme document.
//!
//! The end-to-end run times both CLI calls through `bmp_cli::run`. The traced run
//! alternates bare operations with traced ones; after each traced operation it replays
//! the work of both calls layer by layer (instance decode, `Solver::solve`, report
//! checks, scheme encode and write, scheme read and decode, `validate`, max-flow
//! certification) and times single-sink max-flows on sampled receivers.

use crate::trace::Trace;
use crate::util::{
    cli, field, fnv1a, has_line, mean, median, ms_since, peak_rss_mb, read_output, splitmix, tail,
    WorkDir,
};
use crate::{Args, Outcome};
use bmp_cli::files;
use bmp_core::bounds::cyclic_upper_bound;
use bmp_core::scheme::BroadcastScheme;
use bmp_core::solver::{AcyclicGuardedAlgorithm, EvalCtx, Solver};
use bmp_platform::distribution::NamedDistribution;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp_platform::Instance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const RECEIVERS: usize = 2000;
const OPEN_PROBABILITY: f64 = 0.7;
/// Distinct platforms per run; the stream cycles through them, so every platform is
/// solved more than once in a full-length run and its outputs must repeat exactly.
const POOL: usize = 12;
/// The paper's six bandwidth distributions, by CLI name.
const DISTRIBUTIONS: [(&str, NamedDistribution); 6] = [
    ("unif100", NamedDistribution::Unif100),
    ("power1", NamedDistribution::Power1),
    ("power2", NamedDistribution::Power2),
    ("ln1", NamedDistribution::Ln1),
    ("ln2", NamedDistribution::Ln2),
    ("plab", NamedDistribution::PLab),
];
/// Set-ups per end-to-end run; the median is reported.
const SETUPS: usize = 3;
/// Relative slack between the claimed and the verified throughput (both are printed
/// with six decimals).
const TOLERANCE: f64 = 1e-6;
/// Sampled receivers per traced instance for the single-sink max-flow timing.
const MAX_FLOW_SAMPLES: usize = 8;
/// Dichotomic precision `solve` uses by default.
const SOLVE_TOLERANCE: f64 = 1e-9;

/// One generated platform of the stream.
struct Platform {
    path: String,
    seed: u64,
    distribution: usize,
    instance: Instance,
    cyclic_bound: f64,
}

/// What the checks of one operation established.
struct Checked {
    quality: f64,
    bytes: usize,
    digest: u64,
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|arg| (*arg).to_string()).collect()
}

/// Generates the run's platforms through `generate --out` and reads them back.
fn generate_pool(work: &WorkDir, seed: u64) -> Result<Vec<Platform>, String> {
    (0..POOL)
        .map(|index| {
            let path = work.path(&format!("platform-{index}.json"));
            let platform_seed = splitmix(seed, index as u64);
            let distribution = index % DISTRIBUTIONS.len();
            cli(&strings(&[
                "generate",
                "--receivers",
                &RECEIVERS.to_string(),
                "--open-prob",
                &OPEN_PROBABILITY.to_string(),
                "--dist",
                DISTRIBUTIONS[distribution].0,
                "--seed",
                &platform_seed.to_string(),
                "--out",
                &path,
            ]))?;
            let instance = files::read_instance(&path).map_err(|e| e.to_string())?;
            let cyclic_bound = cyclic_upper_bound(&instance);
            Ok(Platform {
                path,
                seed: platform_seed,
                distribution,
                instance,
                cyclic_bound,
            })
        })
        .collect()
}

/// Runs one CLI call and times it, inside a span named `name` when tracing.
fn call(
    trace: Option<&mut Trace>,
    name: &'static str,
    id: u64,
    args: &[String],
) -> (f64, Result<String, String>) {
    let start = Instant::now();
    let output = match trace {
        Some(trace) => trace.span(name, id, || cli(args)),
        None => cli(args),
    };
    (ms_since(start), output)
}

/// One operation on platform `index`: `solve --out` then `verify`. Returns both wall
/// times in ms and both outputs.
fn operation(
    platform: &Platform,
    index: usize,
    scheme_path: &str,
    mut trace: Option<&mut Trace>,
) -> Result<(f64, f64, String, String), String> {
    let solve = strings(&["solve", "--instance", &platform.path, "--out", scheme_path]);
    let (solve_ms, solved) = call(trace.as_deref_mut(), "cli.solve", index as u64, &solve);
    let solved = solved?;
    let verify = strings(&["verify", "--scheme", scheme_path]);
    let (verify_ms, verified) = call(trace, "cli.verify", index as u64, &verify);
    Ok((solve_ms, verify_ms, solved, verified?))
}

/// Checks one operation's outputs: a feasible acyclic scheme whose verified
/// throughput matches the claim and reaches 5/7 of the cyclic upper bound.
fn check(
    platform: &Platform,
    solved: &str,
    verified: &str,
    scheme: &[u8],
) -> Result<Checked, String> {
    let claimed = field(solved, "throughput :").ok_or("solve printed no throughput")?;
    let measured = field(verified, "throughput  :").ok_or("verify printed no throughput")?;
    for (output, line) in [
        (solved, "feasible   : true"),
        (solved, "acyclic    : true"),
        (verified, "constraints : satisfied"),
        (verified, "acyclic     : true"),
    ] {
        if !has_line(output, line) {
            return Err(format!("missing `{line}`"));
        }
    }
    if measured < claimed * (1.0 - TOLERANCE) - TOLERANCE {
        return Err(format!("verified {measured} below claimed {claimed}"));
    }
    let quality = measured / platform.cyclic_bound;
    if quality < bmp_core::bounds::five_sevenths() - TOLERANCE {
        return Err(format!("quality {quality} below 5/7 of the cyclic bound"));
    }
    Ok(Checked {
        quality,
        bytes: scheme.len(),
        digest: fnv1a(scheme),
    })
}

/// Remembers each platform's first scheme digest and flags any repetition that differs.
struct Digests(Vec<Option<u64>>);

impl Digests {
    fn new() -> Self {
        Digests(vec![None; POOL])
    }

    /// Records `digest` for `index`; `false` when it differs from an earlier one.
    fn agrees(&mut self, index: usize, digest: u64) -> bool {
        *self.0[index].get_or_insert(digest) == digest
    }

    fn render(&self) -> String {
        self.0
            .iter()
            .map(|digest| digest.map_or("-".to_string(), |d| format!("{d:016x}")))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Runs one operation on platform `index` and checks it, folding failures into
/// `outcome`.
fn checked_operation(
    outcome: &mut Outcome,
    digests: &mut Digests,
    index: usize,
    platform: &Platform,
    scheme_path: &str,
    trace: Option<&mut Trace>,
) -> Result<Option<(f64, f64, Checked)>, String> {
    outcome.attempted += 1;
    let (solve_ms, verify_ms, solved, verified) =
        match operation(platform, index, scheme_path, trace) {
            Ok(result) => result,
            Err(message) => {
                outcome.fail(1, format!("platform {index}: {message}"));
                return Ok(None);
            }
        };
    let scheme = read_output(scheme_path)?;
    match check(platform, &solved, &verified, &scheme) {
        Ok(checked) => {
            if !digests.agrees(index, checked.digest) {
                outcome.fail(
                    1,
                    format!("platform {index}: scheme digest changed between repetitions"),
                );
            }
            Ok(Some((solve_ms, verify_ms, checked)))
        }
        Err(message) => {
            outcome.fail(1, format!("platform {index}: {message}"));
            Ok(None)
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return traced(args);
    }
    let work = WorkDir::create("solve-publish")?;
    let scheme_path = work.path("scheme.json");
    let mut outcome = Outcome::default();
    let mut digests = Digests::new();

    // Set-up: generate and write the platforms, then one warm-up operation.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut pool = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        pool = generate_pool(&work, args.seed)?;
        operation(&pool[0], 0, &scheme_path, None)?;
        setups.push(start.elapsed().as_secs_f64());
    }

    let mut solve_ms = Vec::new();
    let mut verify_ms = Vec::new();
    let mut op_ms = Vec::new();
    let mut quality = vec![None; POOL];
    let mut bytes = vec![None; POOL];
    let start = Instant::now();
    let mut op = 0usize;
    while op == 0 || start.elapsed() < args.seconds {
        let index = op % POOL;
        if let Some((solve, verify, checked)) = checked_operation(
            &mut outcome,
            &mut digests,
            index,
            &pool[index],
            &scheme_path,
            None,
        )? {
            solve_ms.push(solve);
            verify_ms.push(verify);
            op_ms.push(solve + verify);
            quality[index] = Some(checked.quality);
            bytes[index] = Some(checked.bytes as f64);
        }
        op += 1;
    }

    let op_tail = tail(&op_ms);
    let quality: Vec<f64> = quality.into_iter().flatten().collect();
    let bytes: Vec<f64> = bytes.into_iter().flatten().collect();
    outcome.set("setup_s", median(&setups));
    outcome.set("op_ms_p50", median(&op_ms));
    outcome.set("op_ms_tail", op_tail.value);
    outcome.set(
        "platforms_per_s",
        op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3),
    );
    outcome.set("quality_ratio", mean(&quality));
    outcome.set("output_mb", mean(&bytes) / 1e6);
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome.note(format!(
        "solve-publish: {} operations ({} platforms of {RECEIVERS} receivers), op_ms_tail is p{:.1} of {} samples",
        op_ms.len(),
        POOL,
        op_tail.percentile,
        op_tail.samples
    ));
    outcome.note(format!(
        "solve_ms_p50 {:.3} ms, verify_ms_p50 {:.3} ms, failed_share {}",
        median(&solve_ms),
        median(&verify_ms),
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    ));
    outcome.note(format!("scheme digests: {}", digests.render()));
    Ok(outcome)
}

/// Attributed layer spans on the path of the two CLI calls.
const OP_PATH: &[&str] = &[
    "io.instance_decode",
    "core.solve",
    "core.scheme_checks",
    "io.scheme_encode",
    "io.scheme_decode",
    "core.validate",
    "flow.certify",
];

/// Per-instance counters the replay collects.
#[derive(Default)]
struct Counters {
    flow_solves: Vec<f64>,
    probes: Vec<f64>,
    edges: Vec<f64>,
}

/// Replays the two CLI calls on `platform` layer by layer, inside the open span.
fn replay(
    trace: &mut Trace,
    counters: &mut Counters,
    id: u64,
    platform: &Platform,
    scheme_path: &str,
) -> Result<(), String> {
    let (_, distribution) = DISTRIBUTIONS[platform.distribution];
    let generator = InstanceGenerator::new(
        GeneratorConfig::new(RECEIVERS, OPEN_PROBABILITY).map_err(|e| e.to_string())?,
        distribution.build(),
    );
    let generated = trace.span("platform.generate", id, || {
        generator.generate(&mut StdRng::seed_from_u64(platform.seed))
    });
    if generated != platform.instance {
        return Err("the generator does not reproduce the written platform".into());
    }

    // `solve --instance FILE --out FILE`, as `cmd_solve` runs it.
    let instance = trace.span("io.instance_decode", id, || {
        files::read_instance(&platform.path)
    });
    let instance = instance.map_err(|e| e.to_string())?;
    let mut ctx = EvalCtx::with_tolerance(SOLVE_TOLERANCE);
    ctx.set_parallelism(1);
    let solution = trace.span("core.solve", id, || {
        AcyclicGuardedAlgorithm.solve(&instance, &mut ctx)
    });
    let solution = solution.map_err(|e| e.to_string())?;
    counters
        .flow_solves
        .push(solution.telemetry.flow_solves as f64);
    counters
        .probes
        .push(solution.telemetry.bisection_iters as f64);
    trace.span("core.scheme_checks", id, || {
        let scheme = &solution.scheme;
        black_box((
            scheme.is_feasible(),
            scheme.is_acyclic(),
            scheme.edges().len(),
            scheme.outdegrees(),
            scheme.max_degree_excess(solution.throughput),
        ));
    });
    let written = trace.span("io.scheme_encode", id, || {
        files::write_scheme(scheme_path, &solution.scheme)
    });
    written.map_err(|e| e.to_string())?;
    counters.edges.push(solution.scheme.edges().len() as f64);

    // `verify --scheme FILE`, as `cmd_verify` runs it.
    let scheme = trace.span("io.scheme_decode", id, || files::read_scheme(scheme_path));
    let scheme: BroadcastScheme = scheme.map_err(|e| e.to_string())?;
    let violations = trace.span("core.validate", id, || scheme.validate());
    if !violations.is_empty() {
        return Err(format!(
            "replayed scheme has {} violations",
            violations.len()
        ));
    }
    let mut certify = EvalCtx::with_tolerance(SOLVE_TOLERANCE);
    certify.set_parallelism(1);
    let throughput = trace.span("flow.certify", id, || certify.throughput(&scheme));
    trace.span("core.scheme_checks", id, || {
        let degrees: Vec<usize> = (0..scheme.instance().num_nodes())
            .map(|node| scheme.outdegree(node))
            .collect();
        black_box((
            scheme.is_acyclic(),
            degrees,
            scheme.max_degree_excess(throughput),
        ));
    });

    // L0: single-sink max-flows on sampled receivers, off the CLI path.
    let mut rng = StdRng::seed_from_u64(platform.seed ^ 0x5A4B);
    for _ in 0..MAX_FLOW_SAMPLES {
        let sink = rng.gen_range(1..scheme.instance().num_nodes());
        black_box(trace.span("flow.max_flow", id, || certify.max_flow_to(&scheme, sink)));
    }
    Ok(())
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create("solve-publish-trace")?;
    let scheme_path = work.path("scheme.json");
    let replay_path = work.path("replay.json");
    let mut outcome = Outcome::default();
    let mut digests = Digests::new();
    let pool = generate_pool(&work, args.seed)?;
    operation(&pool[0], 0, &scheme_path, None)?;

    let mut trace = Trace::new();
    let mut counters = Counters::default();
    let mut bare_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let start = Instant::now();
    let mut op = 0usize;
    // Operations alternate: even ones run bare (no spans), odd ones run inside
    // spans and are then replayed layer by layer.
    while op < 2 || start.elapsed() < args.seconds {
        let index = (op / 2) % POOL;
        let platform = &pool[index];
        if op.is_multiple_of(2) {
            if let Some((solve, verify, _)) = checked_operation(
                &mut outcome,
                &mut digests,
                index,
                platform,
                &scheme_path,
                None,
            )? {
                bare_ms.push(solve + verify);
            }
        } else if let Some((solve, verify, checked)) = checked_operation(
            &mut outcome,
            &mut digests,
            index,
            platform,
            &scheme_path,
            Some(&mut trace),
        )? {
            traced_ms.push(solve + verify);
            trace.begin("replay", index as u64);
            let replayed = replay(
                &mut trace,
                &mut counters,
                index as u64,
                platform,
                &replay_path,
            );
            trace.end();
            match replayed.and_then(|()| read_output(&replay_path)) {
                Ok(bytes) if fnv1a(&bytes) == checked.digest => {}
                Ok(_) => outcome.fail(
                    1,
                    format!("platform {index}: replayed scheme differs from the CLI's"),
                ),
                Err(message) => outcome.fail(1, format!("platform {index}: replay: {message}")),
            }
        }
        op += 1;
    }

    let cli_ms = trace.total_ms(&["cli.solve", "cli.verify"]);
    let attributed_ms = trace.total_ms(OP_PATH);
    let bare = median(&bare_ms);
    outcome.set(
        "platform.generate_ms",
        median(&trace.durations_ms("platform.generate")),
    );
    outcome.set(
        "flow.max_flow_us",
        median(&trace.durations_ms("flow.max_flow")) * 1e3,
    );
    outcome.set(
        "flow.certify_ms",
        median(&trace.durations_ms("flow.certify")),
    );
    outcome.set("flow.solves", mean(&counters.flow_solves));
    outcome.set("core.solve_ms", median(&trace.durations_ms("core.solve")));
    outcome.set("search.probes", mean(&counters.probes));
    outcome.set(
        "core.validate_ms",
        median(&trace.durations_ms("core.validate")),
    );
    outcome.set(
        "io.scheme_encode_ms",
        median(&trace.durations_ms("io.scheme_encode")),
    );
    outcome.set(
        "io.scheme_decode_ms",
        median(&trace.durations_ms("io.scheme_decode")),
    );
    outcome.set("io.scheme_edges", mean(&counters.edges));
    outcome.set("cli.solve_ms", median(&trace.durations_ms("cli.solve")));
    outcome.set("cli.verify_ms", median(&trace.durations_ms("cli.verify")));
    outcome.set("unattributed_share", 1.0 - attributed_ms / cli_ms);
    outcome.set("trace.overhead_share", (median(&traced_ms) - bare) / bare);
    outcome.note(format!(
        "solve-publish traced: {} bare and {} traced operations; CLI {:.1} ms, attributed {:.1} ms",
        bare_ms.len(),
        traced_ms.len(),
        cli_ms,
        attributed_ms
    ));
    outcome.note(format!("scheme digests: {}", digests.render()));
    outcome.trace = Some(trace);
    Ok(outcome)
}
