//! Runs every workload on its tiny fixture subset, untraced and traced, and
//! checks that every metric `BENCHMARK.json` names is emitted and that no
//! checked operation fails.

use std::path::PathBuf;

use perfbench::workload::{leaked_spill_dirs, Scale, Workload};
use perfbench::{run, RunConfig, RunReport, END_TO_END, PER_LAYER};

fn names(report: &RunReport) -> Vec<&'static str> {
    report.metrics.iter().map(|(n, _, _)| *n).collect()
}

fn value(report: &RunReport, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, v, _)| *v)
        .expect("metric present")
}

// One test function: the runs share the process environment (`TMPDIR`) and
// the spill-directory check is per process.
#[test]
fn tiny_workloads_emit_every_metric_without_errors() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let spec = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .expect("BENCHMARK.json next to the benchmark directory");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
        for trace in [false, true] {
            let cfg = RunConfig {
                workload: w,
                seed: 7,
                seconds: 0.0,
                trace,
                scale: Scale::Tiny,
                out_dir: out_dir.clone(),
                min_passes: 1,
            };
            let report = run(&cfg).expect("run");
            let ctx = format!("{} trace={trace}: {:?}", w.name(), report.messages);
            assert!(report.attempted > 0, "{ctx}");
            assert_eq!(report.failed, 0, "{ctx}");
            assert_eq!(report.error_rate(), 0.0, "{ctx}");
            let want: Vec<&str> = if trace {
                PER_LAYER.iter().map(|(n, _)| *n).collect()
            } else {
                END_TO_END.iter().map(|(n, _)| *n).collect()
            };
            assert_eq!(names(&report), want, "{ctx}");
            let line = report.result_line();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            if trace {
                assert!(value(&report, "trace.spans") > 0.0, "{ctx}");
                let stem = out_dir.join(format!("trace-{}-7", w.name()));
                assert!(stem.with_extension("jsonl").is_file(), "{ctx}");
                if w == Workload::Statespace {
                    assert!(value(&report, "modelcheck.spill.spilled_bytes") > 0.0);
                }
            } else {
                for (n, _) in END_TO_END {
                    assert!(value(&report, n) > 0.0, "{n} is 0: {ctx}");
                }
            }
        }
    }
    let tmp = out_dir.join("tmp");
    assert!(leaked_spill_dirs(&tmp).is_empty());
}
