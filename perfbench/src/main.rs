//! `perfbench`: the repository's end-to-end benchmark. See `README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --golden          # print the per-op table of the default seed
//! ```
//!
//! Untraced (`--trace 0`) runs time each op through its workload's public
//! entry point and print the end-to-end metrics; traced (`--trace 1`) runs
//! spend half the time on untraced ops and half on the traced replay, and
//! print the per-layer metrics. The last line of standard output is the
//! JSON result; results and span files go to `perfbench/out/`.

mod heap;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use experiments::scale::levels_digest;
use graphs::mis::is_maximal_independent_set;
use graphs::Graph;
use telemetry::Stopwatch;

use trace::{Span, Tracer};
use workload::{Done, Driver, Instance, Scratch, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// The seed the committed per-op table (`golden.tsv`) was recorded with.
const DEFAULT_SEED: u64 = 1;
const GOLDEN: &str = include_str!("../golden.tsv");
/// Set-up samples behind `setup_s`; ops that run too few are topped up
/// with set-ups that run nothing.
const MIN_SETUP_SAMPLES: usize = 31;
/// Ops a run needs before its 90th percentile has ten samples beyond it.
const P90_MIN_OPS: usize = 100;

const USAGE: &str = "usage: perfbench --workload <cold-start|point-fault|mobile|long-haul> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --golden";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args.iter().any(|a| a == "--golden") {
        return Ok(None);
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad value for {flag}: {value}"))?
            }
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args { workload, seed, seconds, trace }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&args) {
        Ok(Some(args)) => run(&args),
        Ok(None) => print_golden(),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// An op's identity for the output check: rounds and FNV-1a level digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    rounds: u64,
    digest: u64,
}

impl Fingerprint {
    fn of(done: &Done) -> Fingerprint {
        Fingerprint { rounds: done.rounds, digest: levels_digest(&done.levels) }
    }
}

/// The untimed reference execution of one instance (the replay) and the
/// exact counts it yields.
#[derive(Debug, Clone, Copy)]
struct Reference {
    seed: u64,
    fp: Fingerprint,
    node_execs: u64,
    edge_visits: u64,
    check_calls: u64,
    edge_events: u64,
}

/// `(rounds, digest)` per instance from `golden.tsv`, for one workload.
fn golden_rows(workload: Workload) -> Result<Vec<Option<Fingerprint>>, String> {
    let mut rows = vec![None; workload.instances()];
    for line in GOLDEN.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let cols: Vec<&str> = line.split('\t').collect();
        let [name, k, rounds, digest] = cols[..] else {
            return Err(format!("golden.tsv: malformed line {line:?}"));
        };
        if name != workload.name() {
            continue;
        }
        let bad = |_| format!("golden.tsv: malformed line {line:?}");
        let k: usize = k.parse().map_err(bad)?;
        let fp = Fingerprint {
            rounds: rounds.parse().map_err(bad)?,
            digest: u64::from_str_radix(digest, 16).map_err(bad)?,
        };
        *rows.get_mut(k).ok_or_else(|| format!("golden.tsv: no instance {k}"))? = Some(fp);
    }
    Ok(rows)
}

/// One op's timings, untraced.
struct OpSample {
    instance: usize,
    setup_s: f64,
    op_s: f64,
    rounds: u64,
    ok: bool,
}

/// One traced op's per-layer figures (seconds unless named otherwise).
#[derive(Default, Clone)]
struct LayerSample {
    op_s: f64,
    graphs_build_s: f64,
    sim_step_s: f64,
    check_s: f64,
    dynamic_s: f64,
    telemetry_s: f64,
    harness_s: f64,
    encode_s: f64,
    write_s: f64,
    snapshot_mb: f64,
    unattributed_s: f64,
    rounds: f64,
    node_execs: f64,
    edge_visits: f64,
    check_calls: f64,
    edge_events: f64,
}

struct Bench {
    workload: Workload,
    seed: u64,
    scratch_dir: PathBuf,
    scratch: Scratch,
    golden: Vec<Option<Fingerprint>>,
    references: Vec<Option<Reference>>,
    drivers: Vec<Option<Fingerprint>>,
    attempted: u64,
    failures: Vec<String>,
}

impl Bench {
    fn new(workload: Workload, seed: u64, out: &Path) -> Result<Bench, String> {
        let scratch_dir = out.join(format!("scratch-{}", std::process::id()));
        let scratch = Scratch::new(&scratch_dir);
        std::fs::create_dir_all(&scratch.checkpoint_dir)
            .map_err(|e| format!("{}: {e}", scratch.checkpoint_dir.display()))?;
        let golden = if seed == DEFAULT_SEED {
            golden_rows(workload)?
        } else {
            vec![None; workload.instances()]
        };
        Ok(Bench {
            workload,
            seed,
            scratch_dir,
            scratch,
            golden,
            references: vec![None; workload.instances()],
            drivers: vec![None; workload.instances()],
            attempted: 0,
            failures: Vec::new(),
        })
    }

    fn instance_seed(&self, k: usize) -> u64 {
        self.workload.instance_seed(self.seed, k)
    }

    fn set_up(&self, k: usize, tr: &mut Tracer) -> Result<(Instance, Driver), String> {
        workload::set_up(self.workload, self.instance_seed(k), &self.scratch, tr)
    }

    /// The replay's fingerprint and counts for instance `k`, computed once.
    fn reference(&mut self, k: usize) -> Result<Reference, String> {
        if let Some(r) = self.references[k] {
            return Ok(r);
        }
        let (instance, _) = self.set_up(k, &mut Tracer::off())?;
        let rep = workload::replay(&instance, &mut Tracer::off(), "op")?;
        let r = Reference {
            seed: instance.seed,
            fp: Fingerprint::of(&rep.done),
            node_execs: rep.work.node_execs,
            edge_visits: rep.work.edge_visits,
            check_calls: rep.check_calls,
            edge_events: rep.edge_events,
        };
        self.references[k] = Some(r);
        Ok(r)
    }

    /// The driver's fingerprint for instance `k`; runs the driver, untimed,
    /// if no untraced op has yet.
    fn driver_fingerprint(&mut self, k: usize) -> Result<Fingerprint, String> {
        if let Some(fp) = self.drivers[k] {
            return Ok(fp);
        }
        let (instance, mut driver) = self.set_up(k, &mut Tracer::off())?;
        let done = workload::execute(&instance, &mut driver)?;
        let fp = Fingerprint::of(&done);
        self.drivers[k] = Some(fp);
        Ok(fp)
    }

    /// Counts one op and checks its output: the stopping rule, a valid MIS
    /// of the final graph once stabilized, the fingerprint `expect`
    /// of the other execution path, and the committed table on the default
    /// seed. Returns whether it passed.
    fn check(
        &mut self,
        k: usize,
        what: &str,
        done: Result<&Done, &String>,
        graph: &Graph,
        expect: Fingerprint,
    ) -> bool {
        self.attempted += 1;
        let problem = match done {
            Err(e) => Some(format!("error: {e}")),
            Ok(done) => {
                let fp = Fingerprint::of(done);
                if !done.met_stopping_rule(self.workload) {
                    Some(format!("missed its stopping rule after {} rounds", done.rounds))
                } else if done.stabilized && !is_maximal_independent_set(graph, &done.mis) {
                    Some("final configuration is not an MIS of the final graph".into())
                } else if fp != expect {
                    Some(format!("{fp:?} differs from the other execution path's {expect:?}"))
                } else if self.golden[k].is_some_and(|g| g != fp) {
                    Some(format!("{fp:?} differs from golden.tsv's {:?}", self.golden[k]))
                } else {
                    None
                }
            }
        };
        match problem {
            None => true,
            Some(p) => {
                self.failures.push(format!("instance {k} ({what}): {p}"));
                false
            }
        }
    }

    /// One untraced op of instance `k`: set-up and the entry-point call are
    /// timed; the output check is not.
    fn untraced_op(&mut self, k: usize) -> Result<OpSample, String> {
        let watch = Stopwatch::start();
        let (instance, mut driver) = self.set_up(k, &mut Tracer::off())?;
        let setup_s = watch.elapsed_secs();
        let watch = Stopwatch::start();
        let result = workload::execute(&instance, &mut driver);
        let op_s = watch.elapsed_secs();
        let expect = self.reference(k)?.fp;
        let graph = driver.final_graph(&instance);
        let ok = self.check(k, "entry point", result.as_ref(), graph, expect);
        if ok {
            self.drivers[k] = result.as_ref().ok().map(Fingerprint::of);
        }
        let rounds = result.map_or(0, |d| d.rounds);
        Ok(OpSample { instance: k, setup_s, op_s, rounds, ok })
    }

    /// One traced op of instance `k` (op id `op`), checked against the
    /// driver's own result for the instance.
    fn traced_op(&mut self, k: usize, op: u64, tr: &mut Tracer) -> Result<LayerSample, String> {
        tr.set_op(op);
        let first = tr.spans().len();
        // The driver is built only to trace its construction; the replay
        // drives its own simulator.
        let (instance, _) = self.set_up(k, tr)?;
        let expect = self.driver_fingerprint(k)?;
        let (rep, sizes) = if self.workload == Workload::LongHaul {
            let rep = workload::replay(&instance, tr, "calib.replay")?;
            let plain = workload::traced_plain_ticks(&instance, tr);
            let (done, sizes) = match workload::traced_supervision(&instance, &self.scratch, tr) {
                Ok((done, sizes)) => (Ok(done), sizes),
                Err(e) => (Err(e), Vec::new()),
            };
            // Telemetry must not change the execution: all three legs agree.
            self.check(k, "ticks, telemetry off", plain.as_ref(), &instance.graph, expect);
            self.check(k, "ticks, telemetry on", done.as_ref(), &instance.graph, expect);
            (rep, sizes)
        } else {
            (workload::replay(&instance, tr, "op")?, Vec::new())
        };
        let graph = rep.final_graph.as_ref().unwrap_or(&instance.graph);
        self.check(k, "traced replay", Ok(&rep.done), graph, expect);
        let mut sample = layer_sample(&tr.spans()[first..], first);
        sample.snapshot_mb = median(sizes.iter().map(|&b| b as f64 / MB).collect());
        sample.rounds = rep.done.rounds as f64;
        sample.node_execs = rep.work.node_execs as f64;
        sample.edge_visits = rep.work.edge_visits as f64;
        sample.check_calls = rep.check_calls as f64;
        sample.edge_events = rep.edge_events as f64;
        Ok(sample)
    }
}

const MB: f64 = 1024.0 * 1024.0;

/// Per-layer figures of one traced op from its spans (`first` is the index
/// of `spans[0]` in the tracer).
fn layer_sample(spans: &[Span], first: usize) -> LayerSample {
    let total =
        |name: &str| -> f64 { spans.iter().filter(|s| s.name == name).map(Span::secs).sum() };
    let mut s = LayerSample::default();
    if let Some((i, op)) = spans.iter().enumerate().find(|(_, s)| s.name == "op") {
        let children: f64 =
            spans.iter().filter(|c| c.parent == Some(first + i)).map(Span::secs).sum();
        let probe = total("probe.encode");
        s.op_s = op.secs() - probe;
        s.unattributed_s = op.secs() - children;
    }
    s.graphs_build_s = total("graphs.build");
    s.sim_step_s = total("sim.step");
    s.check_s = total("check.stabilized") + total("check.final_mis");
    s.dynamic_s = total("dynamic.advance");
    s.encode_s = total("probe.encode");
    let write_file = total("harness.write_file");
    s.write_s = (write_file - s.encode_s).max(0.0);
    s.harness_s = total("harness.checkpoint") + write_file;
    if spans.iter().any(|s| s.name == "calib.tick") {
        s.telemetry_s = (total("run.tick") - total("calib.tick")).max(0.0);
    }
    s
}

fn median(mut xs: Vec<f64>) -> f64 {
    quantile(&mut xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(xs.len() - 1);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Runs untraced ops, cycling through the instances, for `seconds`.
fn untraced_window(bench: &mut Bench, seconds: f64) -> Result<Vec<OpSample>, String> {
    let mut samples = Vec::new();
    let watch = Stopwatch::start();
    while samples.is_empty() || watch.elapsed_secs() < seconds {
        let k = samples.len() % bench.workload.instances();
        samples.push(bench.untraced_op(k)?);
    }
    Ok(samples)
}

fn run(args: &Args) -> Result<(), String> {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut bench = Bench::new(args.workload, args.seed, &out)?;
    let result = measure(&mut bench, args, &out);
    // Scratch files are per-process; remove them whatever happened.
    let _ = std::fs::remove_dir_all(&bench.scratch_dir);
    let json = result?;
    println!("{json}");
    Ok(())
}

/// The run proper; returns the result line.
fn measure(bench: &mut Bench, args: &Args, out: &Path) -> Result<String, String> {
    // Warm-up: one op, checked and counted, whose timings are discarded.
    bench.untraced_op(0)?;
    heap::reset_peak();
    let untraced_secs = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let ops = untraced_window(bench, untraced_secs)?;
    let peak_heap_mb = heap::peak_bytes() as f64 / MB;

    let mut setup: Vec<f64> = ops.iter().map(|o| o.setup_s).collect();
    while setup.len() < MIN_SETUP_SAMPLES {
        let k = setup.len() % bench.workload.instances();
        let watch = Stopwatch::start();
        let prepared = bench.set_up(k, &mut Tracer::off())?;
        setup.push(watch.elapsed_secs());
        drop(prepared);
    }
    let mut op_times: Vec<f64> = ops.iter().map(|o| o.op_s).collect();
    let op_p50 = quantile(&mut op_times, 0.5);
    let op_p90 = (ops.len() >= P90_MIN_OPS).then(|| quantile(&mut op_times, 0.9));
    let total_op_s: f64 = ops.iter().map(|o| o.op_s).sum();
    let total_rounds: u64 = ops.iter().map(|o| o.rounds).sum();

    let mut tracer = Tracer::on();
    let metrics = if args.trace {
        let mut traced = Vec::new();
        let watch = Stopwatch::start();
        while traced.is_empty() || watch.elapsed_secs() < args.seconds / 2.0 {
            let k = traced.len() % bench.workload.instances();
            let op = traced.len() as u64;
            traced.push(bench.traced_op(k, op, &mut tracer)?);
        }
        per_layer_metrics(&traced, op_p50)
    } else {
        let attempted = bench.attempted as f64;
        let passed = attempted - bench.failures.len() as f64;
        vec![
            ("setup_s", median(setup.clone()), "s"),
            ("op_s.p50", op_p50, "s"),
            ("rounds_per_s", total_rounds as f64 / total_op_s, "1/s"),
            ("peak_heap_mb", peak_heap_mb, "MB"),
            ("pass_ratio", passed / attempted, "ratio"),
        ]
    };

    // The results file lists every instance's exact counts, including
    // instances a short run never reached.
    for k in 0..bench.workload.instances() {
        bench.reference(k)?;
    }
    let failed = bench.failures.len() as u64;
    let summary = Summary {
        args,
        bench,
        ops: &ops,
        setup: &setup,
        op_p90,
        peak_heap_mb,
        metrics: &metrics,
        tracer: args.trace.then_some(&tracer),
    };
    summary.write_files(out)?;
    summary.print_table();
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0,
        bench.attempted
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    json.push_str("}}");
    Ok(json)
}

/// The `--trace 1` metrics: per-op medians of each layer's time and
/// counts, and each layer's share of the summed traced op time.
fn per_layer_metrics(
    traced: &[LayerSample],
    untraced_p50: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: fn(&LayerSample) -> f64| median(traced.iter().map(f).collect());
    let total_op: f64 = traced.iter().map(|s| s.op_s).sum();
    // `+ 0.0` turns the empty sum's `-0.0` into `0.0`.
    let share = |f: fn(&LayerSample) -> f64| traced.iter().map(f).sum::<f64>() / total_op + 0.0;
    vec![
        ("sim.step_s", med(|s| s.sim_step_s), "s"),
        ("sim.step_share", share(|s| s.sim_step_s), "ratio"),
        ("sim.node_execs", med(|s| s.node_execs), "count"),
        ("sim.edge_visits", med(|s| s.edge_visits), "count"),
        ("check.s", med(|s| s.check_s), "s"),
        ("check.calls", med(|s| s.check_calls), "count"),
        ("check.share", share(|s| s.check_s), "ratio"),
        ("dynamic.advance_s", med(|s| s.dynamic_s), "s"),
        ("dynamic.edge_events", med(|s| s.edge_events), "count"),
        ("dynamic.share", share(|s| s.dynamic_s), "ratio"),
        ("telemetry.emit_s", med(|s| s.telemetry_s), "s"),
        ("telemetry.share", share(|s| s.telemetry_s), "ratio"),
        ("harness.encode_s", med(|s| s.encode_s), "s"),
        ("harness.write_s", med(|s| s.write_s), "s"),
        ("harness.snapshot_mb", med(|s| s.snapshot_mb), "MB"),
        ("harness.share", share(|s| s.harness_s), "ratio"),
        ("graphs.build_s", med(|s| s.graphs_build_s), "s"),
        ("op.rounds", med(|s| s.rounds), "count"),
        ("unattributed_frac", share(|s| s.unattributed_s), "ratio"),
        ("trace_overhead", med(|s| s.op_s) / untraced_p50, "ratio"),
    ]
}

/// Everything the results file and the human-readable table report.
struct Summary<'a> {
    args: &'a Args,
    bench: &'a Bench,
    ops: &'a [OpSample],
    setup: &'a [f64],
    op_p90: Option<f64>,
    peak_heap_mb: f64,
    metrics: &'a [(&'a str, f64, &'a str)],
    tracer: Option<&'a Tracer>,
}

impl Summary<'_> {
    fn stem(&self) -> String {
        let trace = u8::from(self.args.trace);
        format!("{}-seed{}-trace{trace}", self.bench.workload.name(), self.args.seed)
    }

    /// Writes `<stem>.json` and, traced, `<stem>.spans.jsonl` and
    /// `<stem>.layers.txt`.
    fn write_files(&self, out: &Path) -> Result<(), String> {
        let stem = self.stem();
        let write = |name: String, body: &str| {
            let path = out.join(name);
            std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
        };
        write(format!("{stem}.json"), &self.results_json())?;
        if let Some(tr) = self.tracer {
            write(format!("{stem}.spans.jsonl"), &tr.to_jsonl())?;
            write(format!("{stem}.layers.txt"), &self.layer_report(tr))?;
        }
        Ok(())
    }

    fn results_json(&self) -> String {
        let b = self.bench;
        let mut j = String::from("{\n");
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let _ = writeln!(j, "  \"workload\": \"{}\",", b.workload.name());
        let _ = writeln!(j, "  \"seed\": {},", self.args.seed);
        let _ = writeln!(j, "  \"trace\": {},", self.args.trace);
        let _ = writeln!(j, "  \"seconds\": {},", self.args.seconds);
        let _ = writeln!(j, "  \"host_cores\": {cores},");
        let _ = writeln!(j, "  \"git_revision\": \"{}\",", git_revision());
        let _ = writeln!(j, "  \"attempted\": {},", b.attempted);
        let _ = writeln!(j, "  \"failed\": {},", b.failures.len());
        let fail_ratio = b.failures.len() as f64 / b.attempted.max(1) as f64;
        let _ = writeln!(j, "  \"fail_ratio\": {fail_ratio},");
        let failures: Vec<String> = b.failures.iter().map(|f| format!("{f:?}")).collect();
        let _ = writeln!(j, "  \"failures\": [{}],", failures.join(", "));
        let _ = writeln!(j, "  \"untraced_ops\": {},", self.ops.len());
        let _ = writeln!(j, "  \"setup_samples\": {},", self.setup.len());
        let p90 = self.op_p90.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(j, "  \"op_s.p90\": {p90},");
        let _ = writeln!(j, "  \"peak_heap_mb\": {},", self.peak_heap_mb);
        j.push_str("  \"metrics\": {");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(j, "{sep}    \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        j.push_str("\n  },\n  \"instances\": [");
        for (k, r) in b.references.iter().enumerate() {
            let Some(r) = r else { continue };
            let sep = if k == 0 { "\n" } else { ",\n" };
            let _ = write!(
                j,
                "{sep}    {{\"instance\": {k}, \"seed\": {}, \"rounds\": {}, \"digest\": \"{:016x}\", \
                 \"node_execs\": {}, \"edge_visits\": {}, \"check_calls\": {}, \"edge_events\": {}}}",
                r.seed,
                r.fp.rounds,
                r.fp.digest,
                r.node_execs,
                r.edge_visits,
                r.check_calls,
                r.edge_events
            );
        }
        j.push_str("\n  ],\n  \"ops\": [");
        for (i, o) in self.ops.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                j,
                "{sep}    {{\"instance\": {}, \"setup_s\": {}, \"op_s\": {}, \"rounds\": {}, \"ok\": {}}}",
                o.instance, o.setup_s, o.op_s, o.rounds, o.ok
            );
        }
        j.push_str("\n  ]");
        if let Some(tr) = self.tracer {
            j.push_str(",\n  \"layers\": [");
            let rows = tr.layer_table();
            let total: f64 = rows.iter().map(|r| r.1).sum();
            for (i, (layer, secs)) in rows.iter().enumerate() {
                let sep = if i == 0 { "\n" } else { ",\n" };
                let share = secs / total;
                let _ = write!(
                    j,
                    "{sep}    {{\"layer\": \"{layer}\", \"self_s\": {secs}, \"share\": {share}}}"
                );
            }
            j.push_str("\n  ]");
        }
        j.push_str("\n}\n");
        j
    }

    fn untraced_p50(&self) -> f64 {
        median(self.ops.iter().map(|o| o.op_s).collect())
    }

    /// The per-layer self-time table beside the untraced `op_s.p50`, then
    /// the per-layer metrics.
    fn layer_report(&self, tr: &Tracer) -> String {
        let rows = tr.layer_table();
        let total: f64 = rows.iter().map(|r| r.1).sum();
        let mut out = format!(
            "{} seed {}: layer self time over all traced spans; untraced op_s.p50 {:.6} s\n",
            self.bench.workload.name(),
            self.args.seed,
            self.untraced_p50()
        );
        for (layer, secs) in rows {
            let _ = writeln!(out, "  {:>6.2}%  {secs:>10.6} s  {layer}", 100.0 * secs / total);
        }
        for (name, value, unit) in self.metrics {
            let _ = writeln!(out, "  {name:<22} {value:>16.6} {unit}");
        }
        out
    }

    /// The human-readable report, on standard error.
    fn print_table(&self) {
        let b = self.bench;
        eprintln!(
            "{} seed {}: {} untraced ops, op_s.p50 {:.6} s, {} attempted, {} failed",
            b.workload.name(),
            self.args.seed,
            self.ops.len(),
            self.untraced_p50(),
            b.attempted,
            b.failures.len()
        );
        for f in &b.failures {
            eprintln!("  FAILED {f}");
        }
        match self.tracer {
            Some(tr) => eprint!("{}", self.layer_report(tr)),
            None => {
                for (name, value, unit) in self.metrics {
                    eprintln!("  {name:<22} {value:>16.6} {unit}");
                }
            }
        }
    }
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a repository.
fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(rev) = read(git.join(reference)) {
        return rev;
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Prints the per-op table of the default seed in `golden.tsv` format.
fn print_golden() -> Result<(), String> {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    println!("# workload\tinstance\trounds\tlevel digest (FNV-1a), default seed {DEFAULT_SEED}");
    for workload in Workload::ALL {
        let mut bench = Bench::new(workload, DEFAULT_SEED, &out)?;
        for k in 0..workload.instances() {
            let fp = bench.reference(k)?.fp;
            println!("{}\t{k}\t{}\t{:016x}", workload.name(), fp.rounds, fp.digest);
        }
        let _ = std::fs::remove_dir_all(&bench.scratch_dir);
    }
    Ok(())
}
