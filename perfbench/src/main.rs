//! `perfbench`: the OneQ compiler and the `oneqd` service measured end
//! to end and layer by layer, from the outside.
//!
//! ```text
//! perfbench --nominal-ref-ms MS --workload paper|scale|serve [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it through `run.py`, which builds it and pins it to one vCPU. The
//! last line of standard output is the result: a JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics, or with `--trace 1` the per-layer ones, whose spans are also
//! written to `.perfbench/trace-<workload>-<seed>.jsonl`. Exit code 0 with a
//! result line; 1 when the run could not produce one (e.g. a percentile
//! with too few samples beyond it); 2 on usage errors.

mod inputs;
mod norm;
mod report;
mod serve;
mod stages;
mod stats;
mod suite;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::Duration;
use trace::{ItemMeta, Tracer};

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// `paper`, `scale` or `serve`.
    pub workload: String,
    /// Workload seed: chooses the inputs and nothing else.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a JSONL trace.
    pub trace: bool,
    /// Reference-loop time every timing is scaled to. It has no default:
    /// the benchmark's command line in `BENCHMARK.json` sets it.
    pub nominal_ms: f64,
    /// Where traces and the serve spill directory go.
    pub out_dir: PathBuf,
}

impl Opts {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: oneq_bench::SEED,
        seconds: 10.0,
        trace: false,
        nominal_ms: 0.0,
        out_dir: PathBuf::from(".perfbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &str| v.parse::<f64>().ok().filter(|x| x.is_finite() && *x > 0.0);
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = number(v)
                    .ok_or_else(|| format!("--seconds expects a positive number, got `{v}`"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got `{v}`")),
                }
            }
            "--nominal-ref-ms" => {
                let v = value()?;
                opts.nominal_ms = number(v).ok_or_else(|| {
                    format!("--nominal-ref-ms expects a positive number, got `{v}`")
                })?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if opts.nominal_ms == 0.0 {
        return Err("--nominal-ref-ms is required".to_string());
    }
    if !["paper", "scale", "serve"].contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be paper, scale or serve (got `{}`)",
            opts.workload
        ));
    }
    Ok(opts)
}

/// Writes the traced run's spans to `DIR/trace-<workload>-<seed>.jsonl`.
pub fn write_trace(
    opts: &Opts,
    workload: &str,
    tracer: &Tracer,
    items: &[ItemMeta],
    report: &mut Report,
) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let path = opts
        .out_dir
        .join(format!("trace-{workload}-{}.jsonl", opts.seed));
    std::fs::write(&path, tracer.to_jsonl(workload, opts.seed, items))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "trace: {} spans -> {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(())
}

fn run(opts: &Opts) -> Result<Report, String> {
    match opts.workload.as_str() {
        "paper" => suite::run(opts, "paper", inputs::paper),
        "scale" => suite::run(opts, "scale", inputs::scale),
        _ => serve::run(opts, inputs::ServeShape::default()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let table: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    match run(&opts).and_then(|r| r.result_line(table).map(|line| (r, line))) {
        Ok((report, line)) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inputs::{Input, ServeShape};
    use oneq_bench::BenchKind;
    use oneq_service::compile::{CompileConfig, GeometryChoice};

    fn opts(workload: &str, seconds: f64, trace: bool) -> Opts {
        let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.perfbench"))
            .join(format!("test-{workload}-{trace}-{}", std::process::id()));
        Opts {
            workload: workload.to_string(),
            seed: 9,
            seconds,
            trace,
            nominal_ms: 1.0,
            out_dir,
        }
    }

    fn tiny(seed: u64) -> Vec<Input> {
        [
            (BenchKind::Bv, 8),
            (BenchKind::Qft, 4),
            (BenchKind::Qaoa, 5),
        ]
        .into_iter()
        .map(|(kind, n)| Input {
            label: format!("{}-{n}.qasm", kind.name()),
            source: kind.circuit(n, seed).to_qasm(),
            config: CompileConfig {
                geometry: GeometryChoice::Square(8),
                ..CompileConfig::default()
            },
        })
        .collect()
    }

    fn tiny_serve() -> ServeShape {
        ServeShape {
            fill: 24,
            new_every: 8,
            sizes: vec![4, 5],
            lru: 8,
        }
    }

    #[test]
    fn args_parse_with_defaults_and_reject_nonsense() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&a("--nominal-ref-ms 2.5 --workload serve")).unwrap();
        assert_eq!((o.seed, o.trace, o.nominal_ms), (2023, false, 2.5));
        assert!(
            parse_args(&a("--workload serve")).is_err(),
            "the nominal has no default"
        );
        let o = parse_args(&a(
            "--workload paper --seed 7 --seconds 2 --trace 1 --nominal-ref-ms 4",
        ))
        .unwrap();
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.nominal_ms),
            (7, 2.0, true, 4.0)
        );
        for bad in [
            "--workload nope",
            "--workload paper --trace 2",
            "--workload paper --seconds 0",
            "--workload paper --bogus 1",
            "--workload paper --nominal-ref-ms 0",
        ] {
            assert!(
                parse_args(&a(&format!("--nominal-ref-ms 3 {bad}"))).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn smoke_suite_untraced_and_traced() {
        for trace in [false, true] {
            let o = opts("paper", 0.3, trace);
            let report = suite::run(&o, "paper", tiny).expect("suite run");
            assert_eq!(report.failed, 0, "{:?}", report.notes);
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let line = report.result_line(table).expect("every metric measured");
            assert!(line.starts_with("{\"correct\": true"));
            if trace {
                assert!(report.metrics["mapping.ms"] > 0.0);
                assert!(report.metrics["trace.unaccounted_ms"] >= 0.0);
                assert!(o.out_dir.join("trace-paper-9.jsonl").exists());
            } else {
                assert!(report.metrics["depth_total"] > 0.0);
            }
            let _ = std::fs::remove_dir_all(&o.out_dir);
        }
    }

    #[test]
    fn smoke_serve_untraced_and_traced() {
        // The traced run reports p99s, which need 1,000 samples each.
        for (trace, seconds) in [(false, 0.3), (true, 4.0)] {
            let o = opts("serve", seconds, trace);
            let report = serve::run(&o, tiny_serve()).expect("serve run");
            assert_eq!(report.failed, 0, "{:?}", report.notes);
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            report.result_line(table).expect("every metric measured");
            if trace {
                assert!(report.metrics["service.disk_hits"] > 0.0);
                assert!(report.metrics["client.hit_ratio"] > 0.5);
            }
            let _ = std::fs::remove_dir_all(&o.out_dir);
        }
    }
}
