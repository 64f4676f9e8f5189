//! Every workload at a tiny size: every named metric is emitted, every
//! output check passes, and the simulated-output digest repeats exactly
//! for each of two seeds.

use perfbench::workloads::{Size, Workload};
use perfbench::{run_benchmark, Config, Report, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    let report = run_benchmark(&Config { workload, seed, seconds: 0.0, trace, size: Size::Tiny });
    assert!(report.correct, "{} seed {seed}: {:?}", workload.name(), report.error);
    report
}

#[test]
fn every_workload_emits_every_metric() {
    for w in Workload::ALL {
        for (trace, want) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let r = tiny(w, 1, trace);
            let got: Vec<(&str, &str)> = r.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
            assert_eq!(got, want, "{} trace {trace}", w.name());
            for (name, value, _) in &r.metrics {
                assert!(value.is_finite(), "{} {name} = {value}", w.name());
                if !trace {
                    assert!(*value > 0.0, "{} {name} = {value}", w.name());
                }
            }
            assert!(r.attempted > 0 && r.failed <= r.attempted);
            let json = r.to_json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
        }
    }
}

#[test]
fn digest_repeats_for_each_of_two_seeds() {
    for w in Workload::ALL {
        let digests: Vec<u64> = [1, 2]
            .into_iter()
            .map(|seed| {
                let a = tiny(w, seed, false);
                let b = tiny(w, seed, true);
                assert_eq!(a.digest, b.digest, "{} seed {seed}: traced run differs", w.name());
                assert_eq!(
                    (a.attempted, a.failed),
                    (b.attempted, b.failed),
                    "{} seed {seed}",
                    w.name()
                );
                a.digest
            })
            .collect();
        assert_ne!(digests[0], digests[1], "{}: the seed must change the inputs", w.name());
    }
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|&(n, _)| n))
        .collect();
    for n in &names {
        assert!(text.contains(&format!("\"name\": \"{n}\"")), "{n} missing from BENCHMARK.json");
    }
    assert_eq!(
        text.matches("\"name\": ").count(),
        names.len(),
        "BENCHMARK.json names extra entries"
    );
    for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let at = text.find(&format!("\"name\": \"{n}\"")).expect("listed");
        let entry = &text[at..at + text[at..].find('}').expect("closed")];
        assert!(entry.contains(&format!("\"unit\": \"{u}\"")), "{n} unit is not {u}");
    }
}
