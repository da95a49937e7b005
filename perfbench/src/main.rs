//! The repo benchmark: seven host-sized workloads, their end-to-end metrics
//! and a per-layer ledger, all measured from outside the program — by timing
//! calls into public functions and by reading the public `RunReport`.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (BENCHMARK.json's command)
//! bench suite [--seed <n>] [--seconds <s>] [--out <file>] [--smoke]  every workload, both passes
//! bench compare <A.json> <B.json>                                    apply each metric's bound
//! bench manifest                                                     print BENCHMARK.json
//! ```
//!
//! See README.md in this directory for the catalogue and the sizing rules.

mod catalogue;
mod ledger;
mod measure;
mod probes;
mod results;
mod rusage;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dsm_trace::json::Json;

use catalogue::{END_TO_END, PER_LAYER};
use measure::{Args, Outcome};
use workloads::Workload;

/// `run_seconds` of BENCHMARK.json.
pub const RUN_SECONDS: u64 = 12;

/// Where result and span files go unless `--out` says otherwise: inside the
/// benchmark's own directory, ignored by git.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The sizing rule: as many nodes as the host has cores, between 2 and 4,
/// and never more than the host has — waits must not absorb run-queue delay.
fn cluster_size() -> Result<usize, String> {
    let nodes = nproc().clamp(2, 4);
    if nodes > nproc() {
        return Err(format!(
            "a {nodes}-node cluster needs {nodes} cores; this host has {}",
            nproc()
        ));
    }
    Ok(nodes)
}

struct Flags(Vec<String>);

impl Flags {
    /// Remove `--name <value>` and return the value.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: bad value {v:?}")),
        }
    }

    /// Remove `--name` and say whether it was there.
    fn switch(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

/// The last line of a run's standard output, as BENCHMARK.json's contract
/// asks: `--trace 0` carries every end-to-end metric of the manifest,
/// `--trace 1` every per-layer one.
fn contract_line(out: &Outcome, trace: bool) -> String {
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    for m in END_TO_END.iter().filter(|m| m.in_manifest() != trace) {
        // A metric the workload does not define reads 0 among the layers.
        let value = out.end_to_end[m.name].map_or(0.0, |s| s.median);
        metrics.push((m.name, m.unit, value));
    }
    if trace {
        for l in PER_LAYER {
            metrics.push((l.name, l.unit, out.per_layer[l.name].median));
        }
    }
    let cells: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        cells.join(", ")
    )
}

/// One run of one workload. Writes `<dir>/<workload>-seed<n>-trace<t>.json`
/// (and `.spans.json` beside it after a traced pass), checks the file by
/// parsing it back, and prints the contract line last.
fn run_one(mut flags: Flags) -> Result<(), String> {
    let name = flags.value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::from_name(&name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", known.join(", "))
    })?;
    let trace = match flags.value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace is 0 or 1, not {other:?}")),
    };
    let args = Args {
        workload,
        seed: flags.parsed("--seed")?.unwrap_or(1),
        seconds: flags.parsed("--seconds")?.unwrap_or(RUN_SECONDS as f64),
        trace,
        smoke: flags.switch("--smoke"),
        nodes: cluster_size()?,
    };
    let dir = flags.value("--out")?.map_or_else(out_dir, PathBuf::from);
    flags.done()?;
    if !(0.0..=3600.0).contains(&args.seconds) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }

    let out = measure::run(&args);
    for f in &out.failures {
        eprintln!("failed: {f}");
    }
    if !out.measured() {
        return Err(format!(
            "{name}: nothing measured ({} of {} repetitions failed)",
            out.failed, out.attempted
        ));
    }
    let stem = format!("{name}-seed{}-trace{}", args.seed, trace as u8);
    if trace {
        let path = dir.join(format!("{stem}.spans.json"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        spans::write_chrome(&name, &out.spans, &mut file)
            .and_then(|()| std::io::Write::flush(&mut file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let doc = results::document(
        results::host(&args, nproc()),
        BTreeMap::from([(name.clone(), results::workload_entry(&out))]),
    );
    results::write_checked(&dir.join(format!("{stem}.json")), &doc)?;
    results::print_table(&doc);
    println!("{}", contract_line(&out, trace));
    Ok(())
}

/// Every workload, a process each (so `peak_rss_mb` is the workload's own):
/// the untraced pass for the end-to-end metrics, then the traced pass and
/// the probes for the per-layer ones; one merged results file.
fn suite(mut flags: Flags) -> Result<(), String> {
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = flags.parsed("--seconds")?.unwrap_or(RUN_SECONDS as f64);
    let smoke = flags.switch("--smoke");
    let out_file = flags.value("--out")?.map_or_else(
        || out_dir().join(format!("suite-seed{seed}.json")),
        PathBuf::from,
    );
    flags.done()?;
    let dir = out_file.parent().map_or_else(out_dir, Path::to_path_buf);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    // One pass of one workload in a process of its own; its results file's
    // host section and workload entry.
    let pass = |w: Workload, trace: &str| -> Result<(Json, Json), String> {
        eprintln!("== {} (trace {trace})", w.name());
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name(), "--trace", trace])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .arg("--out")
            .arg(&dir)
            .stdout(std::process::Stdio::null());
        if smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("{} (trace {trace}) exited with {status}", w.name()));
        }
        let path = dir.join(format!("{}-seed{seed}-trace{trace}.json", w.name()));
        let doc = results::load(&path)?;
        let part = |key: &str| doc.get(key).cloned();
        part("host")
            .zip(part("workloads").and_then(|ws| ws.get(w.name()).cloned()))
            .ok_or_else(|| format!("{}: no host or workload entry", path.display()))
    };
    let mut host = Json::Null;
    let mut merged: BTreeMap<String, Json> = BTreeMap::new();
    for w in Workload::ALL {
        let (untraced_host, untraced) = pass(w, "0")?;
        let (_, traced) = pass(w, "1")?;
        host = untraced_host;
        merged.insert(
            w.name().to_string(),
            results::merge_passes(untraced, traced)?,
        );
    }
    let doc = results::document(host, merged);
    results::write_checked(&out_file, &doc)?;
    results::print_table(&doc);
    println!("results: {}", out_file.display());
    Ok(())
}

fn compare(flags: Flags) -> Result<(), String> {
    let [a, b] = flags.0.as_slice() else {
        return Err("usage: bench compare <A.json> <B.json>".into());
    };
    let bad = results::compare(&results::load(Path::new(a))?, &results::load(Path::new(b))?)?;
    if bad > 0 {
        return Err(format!("{bad} metrics regressed or unresolved"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match argv.first().map(String::as_str) {
        Some("suite" | "compare" | "manifest") => argv.remove(0),
        _ => String::new(),
    };
    let flags = Flags(argv);
    let done = match mode.as_str() {
        "suite" => suite(flags),
        "compare" => compare(flags),
        "manifest" => {
            print!("{}", catalogue::manifest(RUN_SECONDS));
            Ok(())
        }
        _ => run_one(flags),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("bench: {why}");
            ExitCode::FAILURE
        }
    }
}
