//! The repository benchmark. See `perfbench/README.md` for the
//! workloads, the metrics and the layer each metric belongs to.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <get_closed|armed_mixed_open|cluster_rw|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: a warm-up repetition, then fresh
//! repetitions (each its own testbed, set up and torn down) until
//! `--seconds` have passed. Simulated figures must be identical on every
//! repetition of a seed; host-time figures are medians over the timed
//! repetitions. The end-to-end host times are on-CPU times restated at a
//! reference speed, which a speedometer thread sharing the process's one
//! CPU measures (`speedometer.rs`). `--trace 1` alternates untraced and
//! traced repetitions, without the speedometer, and reports the
//! per-layer metrics instead of the end-to-end ones.
//! The last line of standard output is the JSON result.

mod alloc;
mod cluster;
mod common;
mod fleet;
mod speedometer;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use common::{Metric, Rep};
use speedometer::Speedometer;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["get_closed", "armed_mixed_open", "cluster_rw"];

/// End-to-end metrics: name, unit. Reported with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("host_ns_per_op", "ns"),
    ("peak_rss_mib", "MiB"),
    ("sim_ops_per_s", "ops/sim_s"),
    ("sim_read_p50_us", "sim_us"),
    ("sim_read_p99_us", "sim_us"),
    ("sim_op_p50_us", "sim_us"),
    ("sim_op_p99_us", "sim_us"),
];

/// Per-layer metrics: name, unit. Reported with `--trace 1`; a layer
/// with no work in a workload (or one the benchmark cannot observe from
/// outside there) reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("engine.events_per_op", "events/op"),
    ("engine.ns_per_event", "ns"),
    ("engine.allocs_per_event", "allocs/event"),
    ("engine.step_share", "share"),
    ("engine.steps_per_op", "steps/op"),
    ("nic.verbs_per_op", "verbs/op"),
    ("nic.util.pu", "share"),
    ("nic.util.fetch", "share"),
    ("nic.util.atomic", "share"),
    ("nic.util.link", "share"),
    ("nic.util.pcie", "share"),
    ("nic.server_doorbells_per_op", "1/op"),
    ("nic.server_posts_per_op", "1/op"),
    ("nic.client_doorbells_per_op", "1/op"),
    ("ir.get.verbs_per_op_before", "verbs/op"),
    ("ir.get.verbs_per_op_after", "verbs/op"),
    ("ir.put.verbs_per_op_before", "verbs/op"),
    ("ir.put.verbs_per_op_after", "verbs/op"),
    ("ir.deploy_s", "s"),
    ("ir.arm_calls_per_op", "1/op"),
    ("ir.pool_bytes_per_op", "B/op"),
    ("ir.pool_leases_per_op", "1/op"),
    ("kv.populate_s", "s"),
    ("serving.run_ns_per_op", "ns"),
    ("serving.timeouts", "count"),
    ("serving.queue_p99_us", "sim_us"),
    ("session.post_ns_per_op", "ns"),
    ("session.reap_ns_per_call", "ns"),
    ("session.useful_reap_share", "share"),
    ("cluster.connect_s", "s"),
    ("cluster.put_post_ns_per_op", "ns"),
    ("cluster.put_reap_ns_per_call", "ns"),
    ("cluster.useful_put_reap_share", "share"),
    ("cluster.put_failures", "count"),
    ("cluster.put_p50_us", "sim_us"),
    ("cluster.put_p99_us", "sim_us"),
    ("loadgen.read_samples", "count"),
    ("loadgen.write_samples", "count"),
    ("loadgen.self_share", "share"),
    ("failed_op_share", "share"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| format!("bad seconds {val}"))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One event-wheel lane: the lane count must stay at its default so
    // host times compare across runs.
    let lanes = std::env::var("REDN_SIM_THREADS").ok();
    if lanes.as_deref().is_some_and(|v| v.trim() != "1") {
        eprintln!(
            "perfbench: REDN_SIM_THREADS={} — unset it or set it to 1",
            lanes.unwrap_or_default()
        );
        return ExitCode::from(2);
    }
    let cpu = pin_to_one_cpu();
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_one(&args, lanes.as_deref().unwrap_or("unset"), &cpu) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Pin this process, and every thread and child it starts later, to the
/// last CPU it may run on, with `taskset`. The workload and the
/// speedometer then take turns on one CPU (see `speedometer.rs`).
/// Returns the CPU, or why the process runs unpinned.
fn pin_to_one_cpu() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(cpu) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|l| l.trim().rsplit([',', '-']).next())
        .map(str::to_string)
    else {
        return "unpinned (no Cpus_allowed_list)".into();
    };
    let out = Command::new("taskset")
        .args(["-c", "-p", &cpu, &std::process::id().to_string()])
        .output();
    match out {
        Ok(o) if o.status.success() => cpu,
        Ok(o) => format!(
            "unpinned (taskset: {})",
            String::from_utf8_lossy(&o.stderr).trim()
        ),
        Err(e) => format!("unpinned (taskset: {e})"),
    }
}

/// Run environment, recorded with every result.
fn environment(args: &Args, lanes: &str, cpu: &str) -> Vec<(&'static str, String)> {
    let root = repo_root();
    let commit = if root.join(".git").exists() {
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    } else {
        None
    };
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        (
            "input_seeds",
            (0..INPUT_SETS)
                .map(|i| input_seed(args.seed, i).to_string())
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "commit",
            commit.unwrap_or_else(|| "unknown (not a git checkout)".into()),
        ),
        ("source_digest", format!("{:016x}", source_digest(&root))),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("REDN_SIM_THREADS", lanes.to_string()),
        ("cpu", cpu.to_string()),
    ]
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds from, so a result names the code it measured even where the
/// checkout carries no commit.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() && name != "target" && name != "results" {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Simulated Fig 7 verb latencies against the paper's: the model's
/// cheapest deterministic accuracy check, printed before every run.
fn model_header() -> Result<(), String> {
    let rows = redn_bench::micro::fig7().map_err(|e| e.to_string())?;
    println!("# model accuracy: simulated vs paper Fig 7 (remote verb latency, 64 B)");
    for r in rows {
        println!(
            "#   {:<22} simulated {:>8}   paper {:>8}",
            r.label, r.measured, r.paper
        );
    }
    println!(
        "# The simulator is calibrated to the paper's rows it reproduces; it is not \
         validated against hardware beyond them."
    );
    Ok(())
}

fn one_rep(workload: &str, seed: u64, tr: &mut Tracer) -> Result<Rep, String> {
    let r = match workload {
        "get_closed" => fleet::rep(&fleet::GET_CLOSED, seed, tr),
        "armed_mixed_open" => fleet::rep(&fleet::ARMED_MIXED_OPEN, seed, tr),
        "cluster_rw" => cluster::rep(seed, tr),
        _ => unreachable!("workload names are checked when parsed"),
    };
    r.map_err(|e| format!("{workload}: {e}"))
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Input sets a run cycles through: repetition i runs on the inputs of
/// [`input_seed`]`(seed, i)`. The simulated figures of one input set
/// depend on its keys (`cluster_rw`'s read p50 moves by 10 % from one set
/// to another), so a run reports their median over the sets. Odd, so
/// that traced and untraced repetitions both cover every set.
const INPUT_SETS: usize = 5;

/// Repetitions every run makes after its warm-up, at least: every input
/// set once.
const MIN_REPS: usize = INPUT_SETS;

/// The seed of repetition `i`'s inputs in a run given `seed`; runs with
/// different seeds share no input set.
fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(INPUT_SETS as u64)
        .wrapping_add((i % INPUT_SETS) as u64)
}

fn run_one(args: &Args, lanes: &str, cpu: &str) -> Result<bool, String> {
    let env = environment(args, lanes, cpu);
    for (k, v) in &env {
        println!("# env {k} = {v}");
    }
    model_header()?;

    // The speedometer runs beside every untraced run, from before the
    // warm-up to the end of the last repetition.
    if !args.trace && common::thread_cpu_ns().is_none() {
        return Err("on-CPU times need /proc/thread-self/schedstat".into());
    }
    let meter = (!args.trace).then(Speedometer::start);

    // Warm-up repetition, on the first input set; its host times are not
    // used. The first repetition of each input set gives the simulated
    // figures every later repetition of that set must reproduce.
    let mut warm_tr = Tracer::new(false);
    let warm = one_rep(&args.workload, input_seed(args.seed, 0), &mut warm_tr)?;
    let mut errors: Vec<String> = warm.errors.clone();
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    let mut sim_of_set: Vec<Option<Vec<Metric>>> = vec![None; INPUT_SETS];
    sim_of_set[0] = Some(warm.sim.clone());

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let min_reps = if args.trace { 2 * MIN_REPS } else { MIN_REPS };
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut last_tracer: Option<Tracer> = None;
    let mut i = 0;
    while i < min_reps || Instant::now() < deadline {
        let on = args.trace && i % 2 == 1;
        let mut tr = Tracer::new(on);
        let m0 = meter.as_ref().map(Speedometer::read);
        let mut rep = one_rep(&args.workload, input_seed(args.seed, i), &mut tr)?;
        rep.host_speed = match (&meter, m0) {
            (Some(m), Some(r0)) => r0.speed_until(&m.read()),
            _ => f64::NAN,
        };
        attempted += rep.attempted;
        failed += rep.failed;
        errors.extend(rep.errors.iter().map(|e| format!("rep {i}: {e}")));
        match &sim_of_set[i % INPUT_SETS] {
            Some(first) if *first != rep.sim => errors.push(format!(
                "rep {i}: simulated figures differ from an earlier repetition of the same inputs"
            )),
            Some(_) => {}
            None => sim_of_set[i % INPUT_SETS] = Some(rep.sim.clone()),
        }
        println!(
            "# rep {i}{} (seed {}): setup {:.4} s, run {:.4} s (on-CPU {:.4} s), {} ops, \
             {:.1} ns/op, host speed {:.4}",
            if on { " (traced)" } else { "" },
            input_seed(args.seed, i),
            rep.setup_ns as f64 / 1e9,
            rep.run_ns as f64 / 1e9,
            rep.run_cpu_ns as f64 / 1e9,
            rep.ops,
            rep.run_ns as f64 / rep.ops.max(1) as f64,
            rep.host_speed
        );
        if on {
            traced.push(rep);
            last_tracer = Some(tr);
        } else {
            plain.push(rep);
        }
        i += 1;
    }
    if let Some(m) = meter {
        m.stop()?;
    }
    for n in &warm.notes {
        println!("# {n}");
    }

    // A workload may only report declared metrics: a misspelt name
    // would otherwise read 0.
    let declared = |n: &str| END_TO_END.iter().chain(&PER_LAYER).any(|(d, _)| *d == n);
    for (n, _, _) in warm.sim.iter().chain(traced.iter().flat_map(|r| &r.host)) {
        if !declared(n) {
            errors.push(format!("workload reported undeclared metric {n}"));
        }
    }
    let mut sim_values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(n, v, _) in sim_of_set.iter().flatten().flatten() {
        sim_values.entry(n).or_default().push(v);
    }
    let sim: BTreeMap<&str, f64> = sim_values
        .into_iter()
        .map(|(n, vs)| (n, median(vs)))
        .collect();
    let wall = |reps: &[Rep]| {
        median(
            reps.iter()
                .map(|r| r.run_ns as f64 / r.ops.max(1) as f64)
                .collect(),
        )
    };
    let mut metrics: Vec<Metric> = Vec::new();
    if !args.trace {
        // On-CPU time of each repetition restated at the reference speed,
        // from the speed the CPU had meanwhile.
        let at_ref = |f: fn(&Rep) -> f64| -> f64 {
            median(
                plain
                    .iter()
                    .map(|r| speedometer::at_reference(f(r), r.host_speed))
                    .collect(),
            )
        };
        let setup = at_ref(|r| r.setup_cpu_ns as f64 / 1e9);
        let per_op = at_ref(|r| r.run_cpu_ns as f64 / r.ops.max(1) as f64);
        println!(
            "# host speed: median {:.4} of the reference; as measured: setup on-CPU {:.6} s, \
             run on-CPU {:.1} ns/op, wall {:.1} ns/op",
            median(plain.iter().map(|r| r.host_speed).collect()),
            median(plain.iter().map(|r| r.setup_cpu_ns as f64 / 1e9).collect()),
            median(
                plain
                    .iter()
                    .map(|r| r.run_cpu_ns as f64 / r.ops.max(1) as f64)
                    .collect()
            ),
            wall(&plain)
        );
        for (name, unit) in END_TO_END {
            let v = match name {
                "setup_s" => setup,
                "host_ns_per_op" => per_op,
                "peak_rss_mib" => peak_rss_mib(),
                _ => *sim
                    .get(name)
                    .ok_or(format!("workload did not report {name}"))?,
            };
            metrics.push((name, v, unit));
        }
    } else {
        let mut host: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in &traced {
            for &(n, v, _) in &r.host {
                host.entry(n).or_default().push(v);
            }
        }
        let tr = last_tracer.as_ref().expect("traced repetitions ran");
        for (name, unit) in PER_LAYER {
            let v = match name {
                "trace.overhead" => wall(&traced) / wall(&plain),
                "failed_op_share" => failed as f64 / attempted.max(1) as f64,
                _ => match (sim.get(name), host.remove(name)) {
                    (Some(&v), _) => v,
                    (None, Some(vs)) => median(vs),
                    (None, None) => 0.0,
                },
            };
            metrics.push((name, v, unit));
        }
        for (name, a) in tr.aggs() {
            println!(
                "# span {name:<22} count {:>9}  total {:>12.3} ms  self {:>12.3} ms  allocs {}",
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6,
                a.allocs
            );
        }
    }
    for &(n, v, u) in &metrics {
        if !v.is_finite() {
            errors.push(format!("metric {n} is not a finite number"));
        }
        println!("metric {n} = {v} {u}");
    }
    println!(
        "# failed_op_share = {failed}/{attempted}; timed repetitions: {} untraced, {} traced",
        plain.len(),
        traced.len()
    );
    for e in errors.iter().take(32) {
        eprintln!("perfbench: correctness: {e}");
    }
    let correct = errors.is_empty() && failed == 0;
    write_results(
        args,
        &env,
        &metrics,
        &plain,
        &traced,
        last_tracer.as_ref(),
        &errors,
    )?;
    println!("result: correct={correct} attempted={attempted} failed={failed}");
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn result_json<N: AsRef<str>, U: AsRef<str>>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(N, f64, U)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// `{"<name>": {"value": v, "unit": "<unit>"}, ...}`; a value that is
/// not finite is written as 0 (the run has already failed on it).
fn metrics_json<N: AsRef<str>, U: AsRef<str>>(metrics: &[(N, f64, U)]) -> String {
    let mut out = String::from("{");
    for (i, (n, v, u)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            n.as_ref(),
            u.as_ref()
        );
    }
    out.push('}');
    out
}

/// Write the run's record (environment, metrics, per-repetition host
/// times as measured and host speeds, errors) and, for a traced run, its
/// kept spans, under `perfbench/results/`.
fn write_results(
    args: &Args,
    env: &[(&str, String)],
    metrics: &[Metric],
    plain: &[Rep],
    traced: &[Rep],
    tr: Option<&Tracer>,
    errors: &[String],
) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut out = String::from("{\n  \"env\": {");
    for (i, (k, v)) in env.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{sep}\"{k}\": \"{v}\"");
    }
    let _ = write!(out, "}},\n  \"metrics\": {}", metrics_json(metrics));
    let reps = |rs: &[Rep]| {
        rs.iter()
            .map(|r| {
                format!(
                    "[{}, {}, {}, {}, {}]",
                    r.setup_ns, r.setup_cpu_ns, r.run_ns, r.run_cpu_ns, r.ops
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let speeds: Vec<String> = plain
        .iter()
        .map(|r| match r.host_speed {
            s if s.is_finite() => s.to_string(),
            _ => "null".into(),
        })
        .collect();
    let _ = write!(
        out,
        ",\n  \"reps_setup_ns_setup_cpu_ns_run_ns_run_cpu_ns_ops\": \
         {{\"untraced\": [{}], \"traced\": [{}]}},\n  \"host_speed_untraced\": [{}],\n  \"errors\": [{}]",
        reps(plain),
        reps(traced),
        speeds.join(", "),
        errors
            .iter()
            .map(|e| format!("\"{}\"", e.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Some(tr) = tr {
        let _ = write!(
            out,
            ",\n  \"spans_dropped\": {},\n  \"spans\": {}",
            tr.dropped(),
            tr.spans_json()
        );
    }
    out.push_str("\n}\n");
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--workload all`: every workload in its own process, one after the
/// other; prints each child's output and then one combined result whose
/// metric names carry the workload as a prefix.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                return ExitCode::from(1);
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let mut saw_result = false;
        for line in text.lines() {
            if let Some(m) = line.strip_prefix("metric ") {
                // "<name> = <value> <unit>"
                let mut parts = m.split_whitespace();
                if let (Some(n), Some("="), Some(v), Some(u)) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                {
                    if let Ok(v) = v.parse::<f64>() {
                        metrics.push((format!("{w}.{n}"), v, u.to_string()));
                    }
                }
            }
            if let Some(r) = line.strip_prefix("result: ") {
                saw_result = true;
                for kv in r.split_whitespace() {
                    match kv.split_once('=') {
                        Some(("correct", v)) => correct &= v == "true",
                        Some(("attempted", v)) => attempted += v.parse::<u64>().unwrap_or(0),
                        Some(("failed", v)) => failed += v.parse::<u64>().unwrap_or(0),
                        _ => {}
                    }
                }
            }
            if !line.starts_with('{') {
                println!("[{w}] {line}");
            }
        }
        correct &= saw_result && out.status.success();
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quoted")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layer);
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w} listed");
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let j = result_json(true, 3, 0, &[("setup_s", 0.5, "s")]);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
