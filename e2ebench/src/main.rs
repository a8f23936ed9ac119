//! End-to-end benchmark of qmkp.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload ladder|serve|anneal [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run sets the workload up several times (the median is
//! `setup_s`), then repeats whole passes over the workload's fixed
//! instances for `--seconds`, in an order drawn from `--seed`. Every
//! answer is checked by [`reference`], which shares no code with the
//! program. The last line of standard output is one JSON object with
//! the operations attempted and failed and the metrics: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of the traced run
//! with `--trace 1`. See README.md for the workloads and metrics.

mod anneal;
mod ladder;
mod reference;
mod serve;
mod trace;

use qmkp::graph::{Graph, VertexSet};
use reference::RefGraph;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Trace;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The seed a run uses when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// Every per-layer metric with its unit, in the order of BENCHMARK.json.
/// A traced run reports all of them; a layer its workload never calls
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.probes", "count"),
    ("core.oracle_calls", "count"),
    ("core.compiles", "count"),
    ("core.compile_ms", "ms/op"),
    ("core.census_ms", "ms/op"),
    ("core.grover_ms", "ms/op"),
    ("qsim.width", "qubits"),
    ("qsim.ucheck_gates", "count"),
    ("qsim.ucheck_ops", "count"),
    ("qsim.section_ms.graph_encoding", "ms/op"),
    ("qsim.section_ms.degree_count", "ms/op"),
    ("qsim.section_ms.degree_compare", "ms/op"),
    ("qsim.section_ms.size_check", "ms/op"),
    ("qsim.section_ms.flip", "ms/op"),
    ("qsim.section_ms.diffusion", "ms/op"),
    ("arith.gates.graph_encoding", "count"),
    ("arith.gates.degree_count", "count"),
    ("arith.gates.degree_compare", "count"),
    ("arith.gates.size_check", "count"),
    ("race.count", "count"),
    ("race.wins.sparse", "count"),
    ("race.wins.sqa", "count"),
    ("race.wins.classical", "count"),
    ("race.win_ms", "ms/race"),
    ("race.cancel_lag_ms", "ms/race"),
    ("solve.preflight_us", "us/call"),
    ("classical.bnb_ms", "ms/call"),
    ("classical.bnb_nodes", "count"),
    ("classical.grasp_ms", "ms/call"),
    ("serve.queue_wait_ms", "ms/op"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_compiles", "count"),
    ("serve.cache_bytes", "bytes"),
    ("serve.rejected", "count"),
    ("qubo.vars", "count"),
    ("qubo.build_ms", "ms/op"),
    ("anneal.sqa_ms", "ms/op"),
    ("anneal.spin_updates_s", "1/s"),
    ("anneal.decode_ms", "ms/op"),
    ("anneal.best_energy", "energy"),
    ("unattributed_ms", "ms/op"),
    ("trace.overhead_p50_pct", "%"),
    ("trace.overhead_throughput_pct", "%"),
];

/// One fixed input of a workload with what the checker knows about it.
pub struct Instance {
    /// Where the graph comes from, e.g. `grid n=8 seed=11`.
    pub label: String,
    /// The input handed to the program.
    pub graph: Graph,
    /// The plex slack.
    pub k: usize,
    /// The benchmark's own copy of the graph.
    pub reference: RefGraph,
    /// Maximum k-plex size by brute force, when `n` allows it.
    pub optimum: Option<usize>,
    /// Whether the answer must be a maximum k-plex (exact solvers) or
    /// only a valid, maximal one (heuristics).
    pub exact: bool,
    /// Whether a non-maximum answer here is the known qTKP
    /// false-negative fault, counted as failed but expected.
    pub known_fault: bool,
}

impl Instance {
    /// Builds an instance, computing the brute-force optimum for
    /// `n ≤ 20`. `exact` instances must have one.
    pub fn new(label: String, graph: Graph, k: usize, exact: bool) -> Self {
        let reference = RefGraph::from_edges(graph.n(), graph.edges());
        let optimum =
            (graph.n() <= reference::BRUTE_FORCE_MAX_N).then(|| reference.max_kplex_size(k));
        assert!(
            !exact || optimum.is_some(),
            "{label}: exact check needs n ≤ 20"
        );
        Instance {
            label,
            graph,
            k,
            reference,
            optimum,
            exact,
            known_fault: false,
        }
    }

    /// Checks one answer (or the error the program returned).
    pub fn check(&self, answer: Result<VertexSet, String>) -> OpCheck {
        let optimum = self.optimum.map_or("?".to_string(), |o| o.to_string());
        let (size, why, known) = match answer {
            Err(e) => (0, Some(format!("error: {e}")), false),
            Ok(set) if !self.reference.is_kplex(set.0, self.k) => {
                let why = format!(
                    "returned an invalid set of {}, optimum {optimum}",
                    set.len()
                );
                (0, Some(why), false)
            }
            Ok(set) if self.exact && self.optimum != Some(set.len()) => {
                let why = format!("returned {}, optimum {optimum}", set.len());
                (set.len(), Some(why), self.known_fault)
            }
            Ok(set) if !self.exact && !self.reference.is_maximal_kplex(set.0, self.k) => {
                let why = format!(
                    "returned a non-maximal set of {}, optimum {optimum}",
                    set.len()
                );
                (set.len(), Some(why), false)
            }
            Ok(set) => (set.len(), None, false),
        };
        OpCheck {
            size,
            failure: why.map(|why| Failure {
                what: format!("{} k={}: {why}", self.label, self.k),
                known,
            }),
        }
    }
}

/// A failed operation.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Instance, k, size returned and optimum.
    pub what: String,
    /// Whether it is the documented, seed-independent fault.
    pub known: bool,
}

/// The checked result of one operation.
#[derive(Debug, Clone)]
pub struct OpCheck {
    /// Size of the k-plex returned (0 on error or invalid answer).
    pub size: usize,
    /// Why the operation failed, if it did.
    pub failure: Option<Failure>,
}

/// One completed operation.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Wall time from sending the operation to its answer.
    pub latency: Duration,
    /// The checked answer.
    pub check: OpCheck,
}

/// A workload: fixed instances, a set-up, and passes over them.
pub trait Workload {
    /// Operations in one pass.
    fn ops(&self) -> usize;

    /// Builds the program state from nothing and runs the cold first
    /// pass; returns the wall time of both and the pass's results.
    fn setup(&mut self) -> (Duration, Vec<OpResult>);

    /// Runs one pass in `order` (a permutation of `0..ops()`). With a
    /// trace, records spans around the calls into each layer and the
    /// totals the program reports.
    fn pass(&mut self, order: &[usize], trace: Option<&mut Trace>) -> Vec<OpResult>;

    /// Folds the trace of `passes` traced passes of `ops` operations
    /// into per-layer metrics, after any direct layer calls the workload
    /// makes outside its passes.
    fn layer_metrics(
        &mut self,
        trace: &mut Trace,
        passes: usize,
        ops: usize,
    ) -> BTreeMap<&'static str, f64>;
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!(
            "--seconds must be in (0, 120], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// splitmix64: the benchmark's only source of randomness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The order in which pass `pass` sends its operations: a seeded
/// Fisher–Yates shuffle.
fn pass_order(ops: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut state = seed ^ (pass as u64).wrapping_mul(0xd1b5_4a32_d192_ed03);
    let mut order: Vec<usize> = (0..ops).collect();
    for i in (1..ops).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// What the timed passes of one phase produced.
#[derive(Default)]
struct Phase {
    passes: usize,
    pass_seconds: Vec<f64>,
    latencies_ms: Vec<f64>,
    pass_sizes: Vec<usize>,
    attempted: usize,
    failed: usize,
    unexpected: usize,
    failures: BTreeMap<String, usize>,
}

impl Phase {
    fn record(&mut self, results: &[OpResult]) {
        self.pass_sizes
            .push(results.iter().map(|r| r.check.size).sum());
        for r in results {
            self.attempted += 1;
            self.latencies_ms.push(r.latency.as_secs_f64() * 1e3);
            if let Some(f) = &r.check.failure {
                self.failed += 1;
                self.unexpected += usize::from(!f.known);
                let tag = if f.known { "known fault" } else { "UNEXPECTED" };
                *self
                    .failures
                    .entry(format!("{} [{tag}]", f.what))
                    .or_default() += 1;
            }
        }
    }

    /// Median over passes of operations per second, so that a pass
    /// slowed by a burst of load elsewhere on the machine does not move
    /// the figure.
    fn throughput(&self) -> f64 {
        let ops_per_pass = self.attempted as f64 / self.passes as f64;
        let rates: Vec<f64> = self.pass_seconds.iter().map(|s| ops_per_pass / s).collect();
        quantile(&rates, 0.5)
    }

    fn latency(&self, q: f64) -> f64 {
        quantile(&self.latencies_ms, q)
    }
}

/// Linear-interpolated quantile of unsorted samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Runs whole passes until `seconds` have passed.
fn measure(
    w: &mut dyn Workload,
    seed: u64,
    first_pass: usize,
    seconds: f64,
    mut trace: Option<&mut Trace>,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    while phase.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let order = pass_order(w.ops(), seed, first_pass + phase.passes);
        let t0 = Instant::now();
        let results = w.pass(&order, trace.as_deref_mut());
        phase.pass_seconds.push(t0.elapsed().as_secs_f64());
        phase.passes += 1;
        phase.record(&results);
    }
    phase
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Prints the metrics as a table and then as the result line. A value
/// that is not a finite number is an error: the run prints no result.
fn print_result(correct: bool, phase: &Phase, metrics: &[(&str, &str, f64)]) -> Result<(), String> {
    if let Some((name, _, value)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not a number ({value})"));
    }
    for (name, unit, value) in metrics {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    let body = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        phase.attempted, phase.failed
    );
    Ok(())
}

fn report_phase(label: &str, phase: &Phase) {
    println!(
        "{label}: {} passes, {} operations attempted, {} failed ({} unexpected)",
        phase.passes, phase.attempted, phase.failed, phase.unexpected
    );
    let secs: Vec<String> = phase
        .pass_seconds
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect();
    println!("  pass wall times (s): {}", secs.join(" "));
    for (what, count) in &phase.failures {
        println!("  failed ×{count}: {what}");
    }
    let (lo, hi) = (
        phase.pass_sizes.iter().min().copied().unwrap_or(0),
        phase.pass_sizes.iter().max().copied().unwrap_or(0),
    );
    if lo != hi {
        println!("  warning: found_size differs between passes ({lo}..{hi})");
    }
}

fn workload(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "ladder" => Some(Box::new(ladder::Ladder::new())),
        "serve" => Some(Box::new(serve::Serve::new())),
        "anneal" => Some(Box::new(anneal::Anneal::new())),
        _ => None,
    }
}

fn run(args: &Args) -> Result<bool, String> {
    // The program reads these; the benchmark runs it with its defaults.
    for (key, _) in std::env::vars() {
        if key.starts_with("QMKP_") {
            std::env::remove_var(key);
        }
    }
    let mut w = workload(&args.workload).ok_or(format!(
        "unknown workload {:?} (expected ladder, serve or anneal)",
        args.workload
    ))?;
    println!(
        "workload {} seed {} seconds {} trace {}: {} operations per pass",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.ops()
    );

    let mut setups = Vec::new();
    let mut setup_phase = Phase::default();
    for _ in 0..SETUP_REPS {
        let (elapsed, results) = w.setup();
        setups.push(elapsed.as_secs_f64());
        setup_phase.record(&results);
    }
    if setup_phase.unexpected > 0 {
        report_phase("set-up passes", &setup_phase);
    }

    if !args.trace {
        let phase = measure(w.as_mut(), args.seed, 0, args.seconds, None);
        report_phase("timed passes", &phase);
        let found = phase.pass_sizes.iter().min().copied().unwrap_or(0);
        let metrics = [
            ("throughput_ops_s", "1/s", phase.throughput()),
            ("latency_p50_ms", "ms", phase.latency(0.5)),
            ("latency_p90_ms", "ms", phase.latency(0.9)),
            ("setup_s", "s", quantile(&setups, 0.5)),
            ("peak_rss_mb", "MiB", peak_rss_mib()),
            ("found_size", "vertices", found as f64),
        ];
        let correct = phase.unexpected == 0 && setup_phase.unexpected == 0;
        print_result(correct, &phase, &metrics)?;
        return Ok(correct);
    }

    // Traced run: an untraced half for reference, then a traced half
    // whose spans give the per-layer metrics.
    let plain = measure(w.as_mut(), args.seed, 0, args.seconds / 2.0, None);
    let mut trace = Trace::new(Instant::now());
    let traced = measure(
        w.as_mut(),
        args.seed,
        plain.passes,
        args.seconds / 2.0,
        Some(&mut trace),
    );
    report_phase("untraced passes", &plain);
    report_phase("traced passes", &traced);
    let p50_overhead = (traced.latency(0.5) / plain.latency(0.5) - 1.0) * 100.0;
    let tput_overhead = (plain.throughput() / traced.throughput() - 1.0) * 100.0;
    println!(
        "tracing overhead: latency p50 {:.4} ms traced vs {:.4} ms untraced ({p50_overhead:+.2}%), \
         throughput {:.3}/s traced vs {:.3}/s untraced ({tput_overhead:+.2}%)",
        traced.latency(0.5),
        plain.latency(0.5),
        traced.throughput(),
        plain.throughput()
    );
    let mut layers = w.layer_metrics(&mut trace, traced.passes, traced.attempted);
    if let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
    {
        let path = dir.join(format!("trace-{}.jsonl", args.workload));
        match trace.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
    }
    layers.insert("trace.overhead_p50_pct", p50_overhead);
    layers.insert("trace.overhead_throughput_pct", tput_overhead);
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
        .collect();
    let unknown: Vec<_> = layers
        .keys()
        .filter(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
        .collect();
    assert!(
        unknown.is_empty(),
        "per-layer metrics missing from PER_LAYER: {unknown:?}"
    );
    let correct = plain.unexpected == 0 && traced.unexpected == 0 && setup_phase.unexpected == 0;
    // `attempted`/`failed` count both halves: whole passes of the same
    // operations, so the failed share is the same as untraced.
    let both = Phase {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        ..Phase::default()
    };
    print_result(correct, &both, &metrics)?;
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        // Incorrect answers are reported in the result line; the run
        // itself still completed.
        Ok(false) => eprintln!("some operations failed unexpectedly; see the lines above"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let a = pass_order(50, 1, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, pass_order(50, 1, 0));
        assert_ne!(a, pass_order(50, 2, 0));
        assert_ne!(a, pass_order(50, 1, 1));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
    }

    /// The per-layer list here and the one in BENCHMARK.json must agree.
    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        let names: Vec<&str> = per_layer
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let ours: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ours);
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&entry), "{entry} not in BENCHMARK.json");
        }
    }
}
