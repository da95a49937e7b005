//! One measured run of one workload: set-up, repetitions, the correctness
//! gate, and the reduction of the samples to the catalogue's metrics.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::catalogue::{Source, END_TO_END, PER_LAYER};
use crate::ledger::{self, Values, MB};
use crate::probes;
use crate::rusage;
use crate::spans::{Recorder, Span};
use crate::stats::{quantile_or_zero, Summary};
use crate::workloads::{run_rep, Plan, Workload};

/// A repetition that has not come back after this long is a counted
/// failure, not a stuck run (the runtime's own deadlock panic fires at 60 s).
const REP_LIMIT: Duration = Duration::from_secs(75);
/// Traced-pass share of `--seconds` spent on repetitions; probes get the rest.
const TRACED_REP_SHARE: f64 = 0.55;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub nodes: usize,
}

/// The scalars of one verified repetition.
pub struct Sample {
    traced: bool,
    setup_s: f64,
    wall_s: f64,
    /// What the process was charged while the repetition ran.
    cpu_s: f64,
    ctx_switches: f64,
    net_mb: f64,
    net_msgs: f64,
    stable_mb: f64,
    stable_log_peak_mb: f64,
    recovery_s: f64,
    recoveries: u64,
    op_ns: Vec<u64>,
    values: Vec<u64>,
    hash: u64,
    node1_ops: u64,
    /// Per-layer values (traced repetitions only).
    layer: Values,
    spans: Vec<Span>,
}

impl Sample {
    fn take(plan: &Plan, traced: bool, rep_index: u32) -> Sample {
        let before = rusage::now();
        let rep = run_rep(plan, traced);
        let after = rusage::now();
        let report = rep.report;
        let wall_s = report.wall.as_secs_f64();
        let traffic = report.total_traffic();
        let mut layer = Values::new();
        if traced {
            layer = ledger::from_report(&report, rep.elapsed_s);
        }
        let victim = report.nodes.iter().max_by_key(|n| n.ft.recovery_time);
        let mut sample = Sample {
            traced,
            setup_s: rep.elapsed_s - wall_s,
            wall_s,
            cpu_s: after.cpu_s - before.cpu_s,
            ctx_switches: after.voluntary_switches - before.voluntary_switches,
            net_mb: (traffic.base_bytes_sent + traffic.ft_bytes_sent) as f64 / MB,
            net_msgs: traffic.msgs_sent as f64,
            stable_mb: report
                .nodes
                .iter()
                .map(|n| n.ft.store.bytes_written)
                .sum::<u64>() as f64
                / MB,
            stable_log_peak_mb: report
                .nodes
                .iter()
                .map(|n| n.ft.max_stable_log_bytes)
                .max()
                .unwrap_or(0) as f64
                / MB,
            recovery_s: victim.map_or(0.0, |n| n.ft.recovery_time.as_secs_f64()),
            recoveries: report.nodes.iter().map(|n| n.ft.recoveries).sum(),
            op_ns: Vec::new(),
            values: report.results.iter().map(|r| r.value).collect(),
            hash: report.shared_hash,
            node1_ops: report.nodes[1].ops,
            layer,
            spans: Vec::new(),
        };
        for (node, out) in report.results.into_iter().enumerate() {
            sample.op_ns.extend_from_slice(&out.rec.op_ns);
            sample
                .spans
                .extend(out.rec.into_spans(rep_index, node as u32));
        }
        if traced {
            let from_spans = ledger::from_spans(plan.workload, &sample.spans, &sample.layer);
            sample.layer.extend(from_spans);
        }
        sample
    }

    /// Run one repetition on a thread of its own and wait for it with a
    /// deadline, so a panic or a hang inside the cluster comes back as an
    /// error. Nothing else runs meanwhile: this thread is parked.
    fn guarded(plan: Plan, traced: bool, rep_index: u32) -> Result<Sample, String> {
        let (tx, rx) = mpsc::channel();
        std::thread::Builder::new()
            .name("bench-rep".into())
            .spawn(move || {
                let _ = tx.send(Sample::take(&plan, traced, rep_index));
            })
            .map_err(|e| format!("cannot spawn the repetition thread: {e}"))?;
        rx.recv_timeout(REP_LIMIT).map_err(|e| match e {
            mpsc::RecvTimeoutError::Timeout => format!("watchdog: no result after {REP_LIMIT:?}"),
            mpsc::RecvTimeoutError::Disconnected => "the repetition panicked".to_string(),
        })
    }
}

/// What every repetition's result must be.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expected {
    /// The value every node returns: a closed form for the kernels, the
    /// reference workload's result where there is one, else the warm-up's.
    pub value: Option<u64>,
    /// Hash of the final shared memory: the reference's or the warm-up's.
    pub hash: Option<u64>,
}

impl Expected {
    /// Check a repetition, adopting its value and hash where nothing was
    /// expected yet (the first repetition defines them for the rest). A
    /// crashed run must have recovered exactly once, a clean one never.
    fn check(&mut self, s: &Sample, recoveries: u64) -> Result<(), String> {
        let first = s.values[0];
        if s.values.iter().any(|&v| v != first) {
            return Err(format!("nodes disagree: {:?}", s.values));
        }
        let value = *self.value.get_or_insert(first);
        if first != value {
            return Err(format!("result {first} != expected {value}"));
        }
        let hash = *self.hash.get_or_insert(s.hash);
        if s.hash != hash {
            return Err(format!("shared_hash {:#x} != expected {hash:#x}", s.hash));
        }
        if s.recoveries != recoveries {
            return Err(format!(
                "{} recoveries, expected {recoveries}",
                s.recoveries
            ));
        }
        Ok(())
    }
}

/// The result of one invocation.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// By catalogue name; `None` where the metric is not defined on the
    /// workload. Measured with tracing off.
    pub end_to_end: BTreeMap<&'static str, Option<Summary>>,
    /// By catalogue name; empty unless the traced pass ran.
    pub per_layer: BTreeMap<&'static str, Summary>,
    pub spans: Vec<Span>,
    pub spent_s: f64,
}

/// Counts repetitions and keeps the ones that passed the gate.
pub struct Gate {
    pub expected: Expected,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// What set-up hands to the timed repetitions.
pub struct Ready {
    /// The plan the repetitions run (with the crash point, if any).
    pub plan: Plan,
    pub gate: Gate,
    /// `VmHWM` once set-up is over: the peak of one or two repetitions in a
    /// fresh process. Read any later it grows with the number of repetitions
    /// the host's speed allowed, and by a different amount every time.
    pub peak_rss_mb: f64,
}

impl Gate {
    /// Run one repetition of `plan` and check it. `Ok(None)` is a wrong
    /// result (counted, measuring goes on); `Err` is a panic or a hang
    /// (counted, and the process is no longer fit to measure in).
    fn rep(
        &mut self,
        plan: Plan,
        traced: bool,
        rep_index: u32,
        rec: &mut Recorder,
    ) -> Result<Option<Sample>, ()> {
        self.attempted += 1;
        let span = rec.begin("rep");
        let sample = Sample::guarded(plan, traced, rep_index);
        rec.end(span);
        let label = format!("{} rep {rep_index}", plan.workload.name());
        match sample {
            Err(why) => {
                self.failures.push(format!("{label}: {why}"));
                Err(())
            }
            Ok(s) => {
                let span = rec.begin("verify");
                let verdict = self.expected.check(&s, plan.crash_at.is_some() as u64);
                rec.end(span);
                match verdict {
                    Ok(()) => Ok(Some(s)),
                    Err(why) => {
                        self.failures.push(format!("{label}: {why}"));
                        Ok(None)
                    }
                }
            }
        }
    }
}

/// Set-up: the reference workload's clean result where there is one (and
/// from it the crash point), the closed form, then one warm-up repetition.
pub fn set_up(args: &Args, rec: &mut Recorder) -> Result<Ready, Gate> {
    let span = rec.begin("setup");
    let mut plan = Plan {
        workload: args.workload,
        seed: args.seed,
        nodes: args.nodes,
        smoke: args.smoke,
        crash_at: None,
    };
    let mut gate = Gate {
        expected: Expected {
            value: plan.closed_form(),
            ..Default::default()
        },
        attempted: 0,
        failures: Vec::new(),
    };
    let mut rep_index = 0;
    let mut ok = true;
    if let Some(reference) = args.workload.reference() {
        // Nothing is expected yet, so what the clean reference returns is
        // what this workload must return.
        match gate.rep(plan.for_reference(reference), false, rep_index, rec) {
            Ok(Some(s)) if args.workload == Workload::WaterSpCrash => {
                plan.crash_at = Some(s.node1_ops * 2 / 3);
            }
            Ok(Some(_)) => {}
            _ => ok = false,
        }
        rep_index += 1;
    }
    ok = ok && matches!(gate.rep(plan, false, rep_index, rec), Ok(Some(_)));
    rec.end(span);
    if ok {
        Ok(Ready {
            plan,
            gate,
            peak_rss_mb: rusage::peak_rss_mb(),
        })
    } else {
        Err(gate)
    }
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    quantile_or_zero(values.collect(), 0.5)
}

/// Measure one workload for about `args.seconds`.
pub fn run(args: &Args) -> Outcome {
    let started = Instant::now();
    let mut rec = Recorder::new(args.trace);
    let Ready {
        plan,
        mut gate,
        peak_rss_mb,
    } = match set_up(args, &mut rec) {
        Ok(ready) => ready,
        Err(gate) => return Outcome::unmeasured(gate, started),
    };

    // Repetitions: untraced only, or in the traced pass untraced, traced and
    // (where there is one) reference repetitions in turn, so that the three
    // see the same host conditions. A smoke run is one round.
    let (budget, min_rounds) = match (args.smoke, args.trace) {
        (true, _) => (0.0, 1),
        (false, true) => (args.seconds * TRACED_REP_SHARE, 3),
        (false, false) => (args.seconds, 3),
    };
    let mut turn = vec![(plan, false)];
    if args.trace {
        turn.push((plan, true));
        if let Some(r) = args.workload.reference() {
            turn.push((plan.for_reference(r), false));
        }
    }
    let mut own: Vec<Sample> = Vec::new();
    let mut reference_wall: Vec<f64> = Vec::new();
    let mut rep_index = gate.attempted as u32;
    let mut rounds = 0;
    let measuring = Instant::now();
    'measure: while rounds < min_rounds || measuring.elapsed().as_secs_f64() < budget {
        for &(p, traced) in &turn {
            let sample = gate.rep(p, traced, rep_index, &mut rec);
            rep_index += 1;
            match sample {
                Err(()) => break 'measure,
                Ok(None) => {}
                Ok(Some(s)) if p.workload != plan.workload => reference_wall.push(s.wall_s),
                Ok(Some(s)) => own.push(s),
            }
        }
        rounds += 1;
    }

    let (traced, untraced): (Vec<&Sample>, Vec<&Sample>) = own.iter().partition(|s| s.traced);
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        return Outcome::unmeasured(gate, started);
    }
    let end_to_end = end_to_end(args.workload, &untraced, peak_rss_mb);
    let per_layer = if args.trace {
        per_layer(args, &untraced, &traced, &reference_wall, &mut rec)
    } else {
        BTreeMap::new()
    };
    // One traced repetition's spans are kept for the span file, after the
    // harness's own; the other repetitions' only fed the numbers.
    let mut spans = rec.into_spans(0, args.nodes as u32);
    if let Some(i) = own.iter().position(|s| s.traced) {
        spans.append(&mut own[i].spans);
    }

    Outcome {
        end_to_end,
        per_layer,
        spans,
        ..Outcome::unmeasured(gate, started)
    }
}

fn op_us(untraced: &[&Sample]) -> Vec<f64> {
    untraced
        .iter()
        .flat_map(|s| s.op_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect()
}

/// The end-to-end metrics, from the untraced repetitions.
fn end_to_end(
    workload: Workload,
    untraced: &[&Sample],
    peak_rss_mb: f64,
) -> BTreeMap<&'static str, Option<Summary>> {
    let per_rep = |f: fn(&Sample) -> f64| -> Vec<f64> { untraced.iter().map(|s| f(s)).collect() };
    END_TO_END
        .iter()
        .map(|m| {
            let values = match m.name {
                "setup_s" => per_rep(|s| s.setup_s),
                "wall_s" => per_rep(|s| s.wall_s),
                "cpu_s" => per_rep(|s| s.cpu_s),
                "ctx_switches" => per_rep(|s| s.ctx_switches),
                "op_p50_us" => op_us(untraced),
                "recovery_s" => per_rep(|s| s.recovery_s),
                "net_mb" => per_rep(|s| s.net_mb),
                "net_msgs" => per_rep(|s| s.net_msgs),
                "stable_mb" => per_rep(|s| s.stable_mb),
                "stable_log_peak_mb" => per_rep(|s| s.stable_log_peak_mb),
                "peak_rss_mb" => vec![peak_rss_mb],
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            let defined = (m.on)(workload);
            (m.name, Summary::of(&values).filter(|_| defined))
        })
        .collect()
}

/// The per-layer metrics: medians over the traced repetitions, the probes,
/// and what only two passes together can say.
fn per_layer(
    args: &Args,
    untraced: &[&Sample],
    traced: &[&Sample],
    reference_wall: &[f64],
    rec: &mut Recorder,
) -> BTreeMap<&'static str, Summary> {
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in traced {
        for (&name, &x) in &s.layer {
            values.entry(name).or_default().push(x);
        }
    }
    // Every repetition's seven shares add up to 100; their medians need not.
    // So the shares are pooled over the traced repetitions, each weighted by
    // its summed thread time, and the ledger printed adds up as well.
    let totals = values["process.total_s"].clone();
    for name in ledger::SHARES {
        let weighted: f64 = values[name].iter().zip(&totals).map(|(x, t)| x * t).sum();
        values.insert(name, vec![weighted / totals.iter().sum::<f64>()]);
    }

    let batch = if args.smoke {
        Duration::from_millis(1)
    } else {
        let probe_budget = args.seconds * (1.0 - TRACED_REP_SHARE);
        let probes = PER_LAYER.iter().filter(|l| l.source == Source::Probe);
        Duration::from_secs_f64((probe_budget / (5 * probes.count()) as f64).min(0.04))
    };
    for (name, x) in probes::run_all(batch, rec) {
        values.insert(name, vec![x]);
    }

    let wall = median(untraced.iter().map(|s| s.wall_s));
    let over = |base: f64| 100.0 * (wall / base - 1.0);
    let over_reference = if reference_wall.is_empty() {
        0.0
    } else {
        over(median(reference_wall.iter().copied()))
    };
    let only_on = |w: Workload| {
        if args.workload == w {
            over_reference
        } else {
            0.0
        }
    };
    values.insert("ft.overhead_pct", vec![only_on(Workload::WaterSpFt)]);
    values.insert(
        "recovery.wall_delta_pct",
        vec![only_on(Workload::WaterSpCrash)],
    );
    let traced_wall = median(traced.iter().map(|s| s.wall_s));
    values.insert(
        "trace.overhead_pct",
        vec![100.0 * (traced_wall / wall - 1.0)],
    );
    let demand_us = median(values["fetch.demand_p50_us"].iter().copied());
    let floor = if demand_us == 0.0 {
        0.0
    } else {
        100.0 * 2.0 * values["net.oneway_wake_us"][0] / demand_us
    };
    values.insert("fetch.wakeup_floor_pct", vec![floor]);
    values.insert("op_p99_us", vec![quantile_or_zero(op_us(untraced), 0.99)]);

    values
        .into_iter()
        .map(|(name, xs)| (name, Summary::of(&xs).expect("every metric has a sample")))
        .collect()
}

impl Outcome {
    /// The counts and the time spent, with no metrics: all there is to say
    /// when nothing usable was measured.
    fn unmeasured(gate: Gate, started: Instant) -> Outcome {
        Outcome {
            attempted: gate.attempted,
            failed: gate.failures.len() as u64,
            failures: gate.failures,
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            spans: Vec::new(),
            spent_s: started.elapsed().as_secs_f64(),
        }
    }

    /// Did the run measure what it was asked to?
    pub fn measured(&self) -> bool {
        !self.end_to_end.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 11,
            seconds: 0.0,
            trace,
            smoke: true,
            nodes: 2,
        }
    }

    /// The whole suite at smoke size: every workload passes its gate and
    /// yields every catalogue metric, end to end and per layer.
    #[test]
    fn smoke_suite_yields_every_metric() {
        for w in Workload::ALL {
            let out = run(&args(w, true));
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.failures);
            assert!(out.attempted >= 3);
            for m in END_TO_END {
                let got = out.end_to_end[m.name];
                assert_eq!(got.is_some(), (m.on)(w), "{} on {}", m.name, w.name());
                // Tiny sizes may write no checkpoint; the rest is never zero.
                if let (Some(s), false) = (got, m.name.starts_with("stable_")) {
                    assert!(s.median > 0.0, "{} on {} is zero", m.name, w.name());
                }
            }
            for l in PER_LAYER {
                let s = out.per_layer.get(l.name);
                assert!(s.is_some(), "{} missing on {}", l.name, w.name());
                assert!(s.unwrap().median.is_finite(), "{} on {}", l.name, w.name());
            }
            assert_eq!(out.per_layer.len(), PER_LAYER.len());
            let shares: f64 = ledger::SHARES.iter().map(|n| out.per_layer[n].median).sum();
            // The ledger reconciles: 100, or a little over where the
            // service thread's time outgrows the residual compute share.
            assert!(
                (99.99..105.0).contains(&shares),
                "{}: shares sum to {shares}",
                w.name()
            );
            for name in ["setup", "rep", "verify"] {
                assert!(out.spans.iter().any(|s| s.name == name), "no {name} span");
            }
        }
    }

    /// The gate trips: a wrong expected hash turns every repetition into a
    /// counted failure.
    #[test]
    fn wrong_expected_hash_is_a_counted_failure() {
        let a = args(Workload::LockMigratory, false);
        let mut rec = Recorder::new(false);
        let Ready { plan, mut gate, .. } = set_up(&a, &mut rec).ok().expect("set-up passes");
        assert!(gate.failures.is_empty());
        gate.expected.hash = gate.expected.hash.map(|h| h ^ 1);
        let before = gate.attempted;
        assert!(matches!(gate.rep(plan, false, 9, &mut rec), Ok(None)));
        assert_eq!(gate.attempted, before + 1);
        assert_eq!(gate.failures.len(), 1);
        assert!(
            gate.failures[0].contains("shared_hash"),
            "{:?}",
            gate.failures
        );
    }

    /// A panic inside a repetition comes back as a counted failure (here the
    /// runtime refuses a one-node cluster); the harness itself keeps going.
    #[test]
    fn a_panicking_repetition_is_a_counted_failure() {
        let mut a = args(Workload::LockMigratory, false);
        a.nodes = 1;
        let out = run(&a);
        assert!(!out.measured());
        assert_eq!((out.attempted, out.failed), (1, 1));
        assert!(out.failures[0].contains("panicked"), "{:?}", out.failures);
    }

    /// The crashed run must equal the clean one, with exactly one recovery.
    #[test]
    fn crash_workload_recovers_once_and_matches_the_clean_run() {
        let a = args(Workload::WaterSpCrash, false);
        let mut rec = Recorder::new(false);
        let Ready { plan, gate, .. } = set_up(&a, &mut rec).ok().expect("set-up passes");
        assert!(plan.crash_at.is_some());
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
    }
}
