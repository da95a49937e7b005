//! The results file: self-describing JSON written by every run, read back
//! and checked against the catalogue before the run may exit 0, merged by
//! `suite`, and judged by `compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use dsm_trace::json::{self, escape, Json};

use crate::catalogue::{Better, END_TO_END, PER_LAYER};
use crate::measure::{Args, Outcome};
use crate::stats::Summary;
use crate::workloads::Workload;

pub const SCHEMA: &str = "ftdsm-perfbench/1";

fn num(x: f64) -> Json {
    Json::Num(x)
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Serialize a parsed value (the inverse of `dsm_trace::json::parse`).
pub fn render(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => write!(out, "{b}").unwrap(),
        Json::Num(n) => write!(out, "{n}").unwrap(),
        Json::Str(s) => write!(out, "\"{}\"", escape(s)).unwrap(),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "\n\"{}\":", escape(k)).unwrap();
                render(item, out);
            }
            out.push('}');
        }
    }
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of the last-level cache in bytes, if sysfs tells.
fn llc_bytes() -> Option<f64> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .rev()
        .find_map(|i| std::fs::read_to_string(dir.join(format!("index{i}/size"))).ok())
        .and_then(|s| {
            let s = s.trim();
            let (digits, scale) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1024.0),
                b'M' => (&s[..s.len() - 1], 1024.0 * 1024.0),
                _ => (s, 1.0),
            };
            digits.parse::<f64>().ok().map(|n| n * scale)
        })
}

/// The host and the settings every number in the file depends on.
pub fn host(args: &Args, nproc: usize) -> Json {
    obj([
        ("nproc", num(nproc as f64)),
        ("nodes", num(args.nodes as f64)),
        ("llc_bytes", llc_bytes().map_or(Json::Null, num)),
        ("rustc", text(&first_line_of("rustc", &["--version"]))),
        (
            "git_commit",
            text(&first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", text(&args.seed.to_string())),
        ("seconds", num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
    ])
}

fn summary_fields(s: &Summary) -> [(&'static str, Json); 4] {
    [
        ("samples", num(s.samples as f64)),
        ("q1", num(s.q1)),
        ("median", num(s.median)),
        ("q3", num(s.q3)),
    ]
}

/// One workload's entry of the results file.
pub fn workload_entry(out: &Outcome) -> Json {
    let end_to_end = END_TO_END
        .iter()
        .filter_map(|m| {
            let entry = match out.end_to_end.get(m.name)? {
                None => Json::Null,
                Some(s) => obj([
                    ("unit", text(m.unit)),
                    ("better", text(m.better.as_str())),
                    ("bound", num(m.bound)),
                ]
                .into_iter()
                .chain(summary_fields(s))),
            };
            Some((m.name, entry))
        })
        .collect::<Vec<_>>();
    let per_layer = PER_LAYER
        .iter()
        .filter_map(|l| {
            let s = out.per_layer.get(l.name)?;
            let entry = obj([
                ("unit", text(l.unit)),
                ("better", text(l.better.as_str())),
                ("source", text(l.source.letter())),
            ]
            .into_iter()
            .chain(summary_fields(s)));
            Some((l.name, entry))
        })
        .collect::<Vec<_>>();
    obj([
        ("attempted", num(out.attempted as f64)),
        ("failed", num(out.failed as f64)),
        (
            "error_rate",
            num(out.failed as f64 / out.attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Arr(out.failures.iter().map(|f| text(f)).collect()),
        ),
        ("spent_s", num(out.spent_s)),
        ("end_to_end", obj(end_to_end)),
        ("per_layer", obj(per_layer)),
    ])
}

/// Fold the traced run's entry into the untraced run's: repetition counts,
/// failures and time spent add up, and the per-layer section moves over.
pub fn merge_passes(untraced: Json, traced: Json) -> Result<Json, String> {
    let (Json::Obj(mut entry), Json::Obj(mut traced)) = (untraced, traced) else {
        return Err("a workload entry is not an object".into());
    };
    for key in ["attempted", "failed", "spent_s"] {
        let sum = finite(entry.get(key), key)? + finite(traced.get(key), key)?;
        entry.insert(key.to_string(), num(sum));
    }
    let rate =
        finite(entry.get("failed"), "failed")? / finite(entry.get("attempted"), "attempted")?;
    entry.insert("error_rate".to_string(), num(rate));
    if let (Some(Json::Arr(all)), Some(Json::Arr(more))) =
        (entry.get_mut("failures"), traced.remove("failures"))
    {
        all.extend(more);
    }
    let per_layer = traced
        .remove("per_layer")
        .ok_or("the traced run has no per_layer section")?;
    entry.insert("per_layer".to_string(), per_layer);
    Ok(Json::Obj(entry))
}

pub fn document(host: Json, workloads: BTreeMap<String, Json>) -> Json {
    obj([
        ("schema", text(SCHEMA)),
        ("host", host),
        ("workloads", Json::Obj(workloads)),
    ])
}

fn finite(v: Option<&Json>, what: &str) -> Result<f64, String> {
    match v.and_then(Json::as_num) {
        Some(n) if n.is_finite() => Ok(n),
        _ => Err(format!("{what} is missing or not a finite number")),
    }
}

fn summary_of(entry: &Json, what: &str) -> Result<Summary, String> {
    for key in ["unit", "better"] {
        if entry.get(key).and_then(Json::as_str).is_none() {
            return Err(format!("{what}.{key} is missing"));
        }
    }
    Ok(Summary {
        samples: finite(entry.get("samples"), &format!("{what}.samples"))? as usize,
        q1: finite(entry.get("q1"), &format!("{what}.q1"))?,
        median: finite(entry.get("median"), &format!("{what}.median"))?,
        q3: finite(entry.get("q3"), &format!("{what}.q3"))?,
    })
}

/// Check a results document against the catalogue: every end-to-end metric
/// present on every workload in it (null only where it is not defined), and
/// a per-layer section either empty or complete.
pub fn validate(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema is not {SCHEMA}"));
    }
    let host = doc.get("host").ok_or("host is missing")?;
    let nodes = finite(host.get("nodes"), "host.nodes")?;
    if nodes > finite(host.get("nproc"), "host.nproc")? {
        return Err("host.nodes exceeds host.nproc".into());
    }
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err("workloads is missing".into());
    };
    if workloads.is_empty() {
        return Err("no workload in the file".into());
    }
    for (name, entry) in workloads {
        let w = Workload::from_name(name).ok_or(format!("unknown workload {name}"))?;
        if finite(entry.get("attempted"), &format!("{name}.attempted"))? < 1.0 {
            return Err(format!("{name}.attempted is below 1"));
        }
        finite(entry.get("failed"), &format!("{name}.failed"))?;
        finite(entry.get("spent_s"), &format!("{name}.spent_s"))?;
        let e2e = entry
            .get("end_to_end")
            .ok_or(format!("{name}.end_to_end is missing"))?;
        for m in END_TO_END {
            let what = format!("{name}.{}", m.name);
            match e2e.get(m.name) {
                None => return Err(format!("{what} is missing")),
                Some(Json::Null) if !(m.on)(w) => {}
                Some(Json::Null) => {
                    return Err(format!("{what} is null on a workload that defines it"))
                }
                Some(v) => {
                    finite(v.get("bound"), &format!("{what}.bound"))?;
                    summary_of(v, &what)?;
                }
            }
        }
        let Some(Json::Obj(layers)) = entry.get("per_layer") else {
            return Err(format!("{name}.per_layer is missing"));
        };
        if !layers.is_empty() {
            for l in PER_LAYER {
                let what = format!("{name}.{}", l.name);
                summary_of(
                    layers.get(l.name).ok_or(format!("{what} is missing"))?,
                    &what,
                )?;
            }
        }
    }
    Ok(())
}

/// Write `doc` to `path`, then read the file back, parse it and validate it.
pub fn write_checked(path: &Path, doc: &Json) -> Result<(), String> {
    let mut s = String::new();
    render(doc, &mut s);
    s.push('\n');
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, &s).map_err(|e| format!("{}: {e}", path.display()))?;
    validate(&load(path)?)
}

pub fn load(path: &Path) -> Result<Json, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&s).map_err(|e| format!("{}: {e:?}", path.display()))
}

/// Print every end-to-end metric of every workload in `doc`, by name, with
/// unit and sample count; cells a workload does not define read `n/a`.
pub fn print_table(doc: &Json) {
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return;
    };
    for w in Workload::ALL {
        let Some(entry) = workloads.get(w.name()) else {
            continue;
        };
        println!(
            "{} (attempted {}, failed {}, {:.1} s)",
            w.name(),
            entry.get("attempted").and_then(Json::as_num).unwrap_or(0.0),
            entry.get("failed").and_then(Json::as_num).unwrap_or(0.0),
            entry.get("spent_s").and_then(Json::as_num).unwrap_or(0.0),
        );
        for m in END_TO_END {
            let cell = entry.get("end_to_end").and_then(|e| e.get(m.name));
            match cell.and_then(|c| summary_of(c, m.name).ok()) {
                Some(s) => println!(
                    "  {:<20} {:>14.6} {:<6} q1 {:.6} q3 {:.6} n={}",
                    m.name, s.median, m.unit, s.q1, s.q3, s.samples
                ),
                None => println!("  {:<20} {:>14} {:<6}", m.name, "n/a", m.unit),
            }
        }
        println!(
            "  {:<20} {:>14.6} {:<6}",
            "error_rate",
            entry
                .get("error_rate")
                .and_then(Json::as_num)
                .unwrap_or(0.0),
            "fraction"
        );
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    Unresolved,
}

/// Judge one metric of set B against set A. The spread of a median of `n`
/// samples is taken as the interquartile range over `sqrt(n)`; where either
/// set's spread is wider than the bound the metric is unresolved, not
/// unchanged.
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> (f64, Verdict) {
    let worsening = if a.median == 0.0 {
        0.0
    } else {
        let change = (b.median - a.median) / a.median.abs();
        match better {
            Better::Lower => change,
            Better::Higher => -change,
        }
    };
    let spread = |s: &Summary| s.spread() / (s.samples.max(1) as f64).sqrt();
    let verdict = if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Regressed
    } else if worsening < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (worsening, verdict)
}

/// Compare two results documents metric by metric, workload by workload.
/// Returns how many rows are regressed or unresolved.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    validate(a)?;
    validate(b)?;
    let mut bad = 0;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse by"
    );
    for w in Workload::ALL {
        let entry = |doc: &Json| {
            doc.get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .cloned()
        };
        let (Some(ea), Some(eb)) = (entry(a), entry(b)) else {
            continue;
        };
        for m in END_TO_END.iter().filter(|m| (m.on)(w)) {
            let cell = |e: &Json| {
                let found = e.get("end_to_end").and_then(|x| x.get(m.name));
                summary_of(found.unwrap_or(&Json::Null), m.name)
            };
            let (sa, sb) = (cell(&ea)?, cell(&eb)?);
            let (worsening, verdict) = judge(&sa, &sb, m.better, m.bound);
            bad += matches!(verdict, Verdict::Regressed | Verdict::Unresolved) as usize;
            println!(
                "{:<16} {:<20} {:>14.6} {:>14.6} {:>8.2}%  {verdict:?}",
                w.name(),
                m.name,
                sa.median,
                sb.median,
                100.0 * worsening
            );
        }
        // Any increase of the error rate is a regression.
        let rate = |e: &Json| e.get("error_rate").and_then(Json::as_num).unwrap_or(1.0);
        let (ra, rb) = (rate(&ea), rate(&eb));
        let verdict = if rb > ra {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        bad += (verdict == Verdict::Regressed) as usize;
        println!(
            "{:<16} {:<20} {ra:>14.6} {rb:>14.6} {:>9}  {verdict:?}",
            w.name(),
            "error_rate",
            ""
        );
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(samples: usize, q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            samples,
            q1,
            median,
            q3,
        }
    }

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let a = s(25, 0.99, 1.0, 1.01);
        assert_eq!(
            judge(&a, &s(25, 1.04, 1.05, 1.06), Better::Lower, 0.07).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &s(25, 1.09, 1.1, 1.11), Better::Lower, 0.07).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &s(25, 0.89, 0.9, 0.91), Better::Lower, 0.07).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(&a, &s(25, 0.89, 0.9, 0.91), Better::Higher, 0.07).1,
            Verdict::Regressed
        );
        // IQR 0.5 of median 1.0 over sqrt(25) = 0.1 > 0.07.
        assert_eq!(
            judge(&a, &s(25, 0.8, 1.0, 1.3), Better::Lower, 0.07).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        let doc = obj([
            ("a", num(1.5)),
            (
                "b",
                Json::Arr(vec![text("x\"y"), Json::Null, Json::Bool(true)]),
            ),
            ("c", obj([("d", num(-0.000001))])),
        ]);
        let mut out = String::new();
        render(&doc, &mut out);
        assert_eq!(json::parse(&out).unwrap(), doc);
    }

    #[test]
    fn validate_rejects_a_missing_metric() {
        let args = Args {
            workload: Workload::LockMigratory,
            seed: 5,
            seconds: 0.0,
            trace: false,
            smoke: true,
            nodes: 2,
        };
        let out = crate::measure::run(&args);
        let entry = workload_entry(&out);
        let doc = |entry: Json| {
            document(
                host(&args, 2),
                BTreeMap::from([(args.workload.name().to_string(), entry)]),
            )
        };
        assert_eq!(validate(&doc(entry.clone())), Ok(()));
        let Json::Obj(mut fields) = entry else {
            panic!("entry is an object")
        };
        let Some(Json::Obj(e2e)) = fields.get_mut("end_to_end") else {
            panic!("end_to_end is an object")
        };
        e2e.remove("wall_s");
        let err = validate(&doc(Json::Obj(fields))).unwrap_err();
        assert!(err.contains("wall_s"), "{err}");
    }
}
