//! The repository benchmark.
//!
//! One command runs one named workload from one process and thread:
//! provision the network from the workload seed (`setup_s`), run its fixed
//! batch of simulated work (`pkts_per_s`), check the simulated outputs,
//! and repeat until the time budget is spent, reporting medians. With
//! tracing on, a separate set of runs records spans around every call into
//! the library, times each backbone queue discipline, replays each layer's
//! operations on the workload's own live tables, and reports a ledger that
//! explains the end-to-end cost per packet layer by layer.

mod alloc;
mod replay;
mod trace;
pub mod workloads;

use std::time::Instant;

use trace::{QosCounts, Tracer};
use workloads::{check, run, setup, Built, Counts, Outcome, Size, Workload};

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("pkts_per_s", "pkt/s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics `(name, unit)`, reported by traced runs.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("sim.events_per_pkt", "count/pkt"),
    ("sim.ns_per_event", "ns"),
    ("sim.residual_ns_per_pkt", "ns/pkt"),
    ("alloc.allocs_per_pkt", "count/pkt"),
    ("alloc.bytes_per_pkt", "B/pkt"),
    ("alloc.allocs_per_ctrl_msg", "count/msg"),
    ("qos.ns_per_enqueue", "ns"),
    ("qos.ns_per_dequeue", "ns"),
    ("qos.enqueues_per_pkt", "count/pkt"),
    ("qos.busy_share", "ratio"),
    ("qos.drop_share", "ratio"),
    ("qos.max_depth_pkts", "pkt"),
    ("mpls.label_ops_per_pkt", "count/pkt"),
    ("mpls.ns_per_forward", "ns"),
    ("net.lpm_lookups_per_pkt", "count/pkt"),
    ("net.ns_per_lookup_cached", "ns"),
    ("net.ns_per_lookup_uncached", "ns"),
    ("core.network.add_site_us.p50", "us"),
    ("core.network.add_site_us.p99", "us"),
    ("core.network.sync_route_pushes", "count"),
    ("core.network.build_ms", "ms"),
    ("routing.igp_converge_us", "us"),
    ("core.control.msgs_sent", "count"),
    ("core.control.msgs_lost", "count"),
    ("core.control.delivered_share", "ratio"),
    ("core.control.spf_runs", "count"),
    ("core.control.spf_skip_share", "ratio"),
    ("core.control.host_us_per_flap_slice", "us"),
    ("core.control.host_us_per_join_slice", "us"),
    ("ipsec.ns_per_encap", "ns"),
    ("ipsec.ns_per_decap", "ns"),
    ("ipsec.busy_share", "ratio"),
    ("ipsec.esp_errors", "count"),
    ("obs.records_per_pkt", "count/pkt"),
    ("obs.ns_per_record", "ns"),
    ("obs.snapshot_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("ledger.measured_ns_per_pkt", "ns/pkt"),
    ("ledger.predicted_ns_per_pkt", "ns/pkt"),
    ("ledger.sim_ns_per_pkt", "ns/pkt"),
    ("ledger.qos_ns_per_pkt", "ns/pkt"),
    ("ledger.mpls_ns_per_pkt", "ns/pkt"),
    ("ledger.net_ns_per_pkt", "ns/pkt"),
    ("ledger.ipsec_ns_per_pkt", "ns/pkt"),
    ("ledger.obs_ns_per_pkt", "ns/pkt"),
];

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Host-time budget, seconds. A few runs are made however small it is.
    pub seconds: f64,
    /// Per-layer (traced) instead of end-to-end metrics.
    pub trace: bool,
    /// Run size.
    pub size: Size,
}

/// Fewest untraced runs per invocation, after one warm-up run.
const MIN_UNTRACED: usize = 3;
/// Fewest traced runs per invocation.
const MIN_TRACED: usize = 2;
/// Share of a traced invocation's budget spent on untraced runs (the
/// overhead baseline); traced runs take the same share again, and the
/// replays the rest.
const UNTRACED_SHARE_WHEN_TRACING: f64 = 0.4;
/// Share of an untraced invocation's budget spent on extra set-ups alone,
/// so that even a sub-millisecond set-up is sampled thousands of times.
const SETUP_SHARE: f64 = 0.2;
/// Fewest extra set-ups per untraced invocation.
const MIN_EXTRA_SETUPS: usize = 3;

/// What an invocation prints as its last line.
#[derive(Debug)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted in one run.
    pub attempted: u64,
    /// Operations failed in one run.
    pub failed: u64,
    /// Digest of one run's simulated outputs.
    pub digest: u64,
    /// Metrics by name: value and unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Why the checks failed, if they did.
    pub error: Option<String>,
    /// Spans of the last traced run, as JSON lines.
    pub spans: String,
}

impl Report {
    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One provisioned-and-run network and what it cost.
struct Rep {
    setup_ns: u64,
    run_ns: u64,
    wall_ns: u64,
    outcome: Outcome,
    /// Exact work of the run window.
    counts: Counts,
    /// Oracle route pushes over setup and run.
    sync_route_pushes: u64,
    qos: Option<QosCounts>,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn one_rep(cfg: &Config, tracer: &mut Tracer) -> Result<(Rep, Built), String> {
    let t0 = Instant::now();
    let s = tracer.enter("setup");
    let mut b = setup(cfg.workload, cfg.seed, cfg.size, tracer);
    tracer.exit(s);
    let setup_ns = ns_since(t0);
    let qos_base = b.qos.as_ref().map(|q| {
        q.reset_max_depth();
        q.snapshot()
    });
    let base = b.counts();
    let allocs0 = alloc::totals();
    let t = Instant::now();
    let s = tracer.enter("run");
    run(&mut b, tracer);
    tracer.exit(s);
    let run_ns = ns_since(t);
    let allocs1 = alloc::totals();
    let mut counts = b.counts().since(base);
    (counts.allocs, counts.alloc_bytes) = (allocs1.0 - allocs0.0, allocs1.1 - allocs0.1);
    let qos = b.qos.as_ref().zip(qos_base).map(|(q, base)| q.snapshot().since(base));
    let outcome = check(&b)?;
    let sync_route_pushes =
        b.provider().map_or(0, mplsvpn_core::ProviderNetwork::sync_route_pushes);
    let rep =
        Rep { setup_ns, run_ns, wall_ns: ns_since(t0), outcome, counts, sync_route_pushes, qos };
    Ok((rep, b))
}

/// Whether another run would overrun `deadline_s` (runs take about as
/// long as their median so far).
fn budget_spent(reps: &[Rep], min: usize, start: Instant, deadline_s: f64) -> bool {
    if reps.len() < min {
        return false;
    }
    let next = median_u64(reps.iter().map(|r| r.wall_ns)) as f64 / 1e9;
    start.elapsed().as_secs_f64() + next > deadline_s
}

fn median_u64(v: impl Iterator<Item = u64>) -> u64 {
    let mut v: Vec<u64> = v.collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Run time of the fastest run: the work is identical every time, so
/// slower repetitions differ only by interference from the host.
fn fastest_run_ns(reps: &[Rep]) -> f64 {
    reps.iter().map(|r| r.run_ns).min().unwrap_or(0).max(1) as f64
}

/// Nearest-rank percentile of `v` (µs from ns); 0 when empty.
fn percentile_us(mut v: Vec<u64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / 1e3
}

fn mean_us(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<u64>() as f64 / v.len() as f64 / 1e3
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the benchmark. Never panics on a failed check: the report says
/// `correct: false` and carries the reason.
pub fn run_benchmark(cfg: &Config) -> Report {
    run_inner(cfg).unwrap_or_else(|e| Report {
        correct: false,
        attempted: 1,
        failed: 0,
        digest: 0,
        metrics: Vec::new(),
        error: Some(e),
        spans: String::new(),
    })
}

fn run_inner(cfg: &Config) -> Result<Report, String> {
    let start = Instant::now();
    let share = if cfg.trace { UNTRACED_SHARE_WHEN_TRACING } else { 1.0 - SETUP_SHARE };
    // The first run in a process warms up: it also pays one-time lazy
    // initialisation (allocator pools, shared buffers), so its timings and
    // counts are not reported; its outputs must still match.
    let (warm_up, built) = one_rep(cfg, &mut Tracer::off())?;
    drop(built);
    let mut reps = Vec::new();
    loop {
        let (rep, built) = one_rep(cfg, &mut Tracer::off())?;
        drop(built);
        reps.push(rep);
        if budget_spent(&reps, MIN_UNTRACED, start, cfg.seconds * share) {
            break;
        }
    }
    let first = &reps[0];
    if warm_up.outcome != first.outcome {
        return Err("simulated outputs differ between runs of one seed".to_owned());
    }
    for r in &reps[1..] {
        if r.outcome != first.outcome {
            return Err("simulated outputs differ between runs of one seed".to_owned());
        }
        if r.counts != first.counts {
            return Err(format!(
                "work counts differ between runs: {:?} vs {:?}",
                first.counts, r.counts
            ));
        }
    }
    let base = Report {
        correct: true,
        attempted: first.outcome.attempted,
        failed: first.outcome.failed,
        digest: first.outcome.digest,
        metrics: Vec::new(),
        error: None,
        spans: String::new(),
    };
    let offered = first.outcome.offered as f64;
    let untraced_run_ns = fastest_run_ns(&reps);
    if !cfg.trace {
        let mut setups: Vec<u64> = reps.iter().map(|r| r.setup_ns).collect();
        let mut extra = 0;
        while extra < MIN_EXTRA_SETUPS || start.elapsed().as_secs_f64() < cfg.seconds {
            let t = Instant::now();
            let built = setup(cfg.workload, cfg.seed, cfg.size, &mut Tracer::off());
            setups.push(ns_since(t));
            drop(built);
            extra += 1;
        }
        // Like runs, every set-up does identical work: keep the fastest.
        let setup_s = setups.iter().min().copied().unwrap_or(0) as f64 / 1e9;
        let pps = offered * 1e9 / untraced_run_ns;
        let metrics = vec![
            ("setup_s", setup_s, "s"),
            ("pkts_per_s", pps, "pkt/s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        return Ok(Report { metrics, ..base });
    }

    let mut traced = Vec::new();
    let (built, mut tracer) = loop {
        let mut tracer = Tracer::on();
        let (rep, built) = one_rep(cfg, &mut tracer)?;
        if rep.outcome != first.outcome || rep.counts != first.counts {
            return Err(format!(
                "traced run diverged from untraced: {:?} {:?} vs {:?} {:?}",
                rep.outcome, rep.counts, first.outcome, first.counts
            ));
        }
        traced.push(rep);
        if budget_spent(&traced, MIN_TRACED, start, cfg.seconds * 2.0 * share) {
            break (built, tracer);
        }
    };
    let s = tracer.enter("replay");
    let costs = replay::measure(&built, &mut tracer);
    tracer.exit(s);

    let c = first.counts;
    let per_pkt = |n: u64| ratio(n as f64, offered);
    let timer = trace::timer_cost_ns();
    let qos = traced.iter().filter_map(|r| r.qos).fold(QosCounts::default(), |a, q| QosCounts {
        enq_calls: a.enq_calls + q.enq_calls,
        enq_ns: a.enq_ns + q.enq_ns,
        deq_calls: a.deq_calls + q.deq_calls,
        deq_ns: a.deq_ns + q.deq_ns,
        drops: a.drops + q.drops,
        max_depth: a.max_depth.max(q.max_depth),
    });
    let traced_run_ns = fastest_run_ns(&traced);
    let traced_total_run_ns: f64 = traced.iter().map(|r| r.run_ns as f64).sum();
    let ns_enq = (ratio(qos.enq_ns as f64, qos.enq_calls as f64) - timer).max(0.0);
    let ns_deq = (ratio(qos.deq_ns as f64, qos.deq_calls as f64) - timer).max(0.0);
    let n_traced = traced.len() as f64;
    let enq_per_pkt = ratio(qos.enq_calls as f64 / n_traced, offered);
    let deq_per_pkt = ratio(qos.deq_calls as f64 / n_traced, offered);
    let delivered = first.outcome.delivered as f64;

    // The ledger: each layer's replayed cost times its exact operation
    // count per packet; the residual is what no layer explains.
    let hit = cfg.workload.lpm_hit_share();
    let ledger_sim = costs.sim_ns_per_event * per_pkt(c.events);
    let ledger_qos = ns_enq * enq_per_pkt + ns_deq * deq_per_pkt;
    let ledger_net =
        per_pkt(c.lpm_lookups) * (hit * costs.lpm_ns_cached + (1.0 - hit) * costs.lpm_ns_uncached);
    let ledger_mpls = costs.mpls_ns_per_forward * per_pkt(c.lfib_forwards);
    let ipsec_ns = costs.ipsec_ns_encap * offered + costs.ipsec_ns_decap * delivered;
    let ledger_ipsec = ratio(ipsec_ns, offered);
    let ledger_obs = costs.obs_ns_per_record * per_pkt(c.records);
    let predicted = ledger_sim + ledger_qos + ledger_net + ledger_mpls + ledger_ipsec + ledger_obs;
    let measured = ratio(untraced_run_ns, offered);

    let add_site = tracer.durations("core.network.add_site");
    let build: Vec<u64> = ["core.network.build", "core.ipsec_vpn.build"]
        .iter()
        .flat_map(|n| tracer.durations(n))
        .collect();
    let lost = c.ctrl_sent - c.ctrl_terminated.min(c.ctrl_sent);
    let metrics = vec![
        ("sim.events_per_pkt", per_pkt(c.events), "count/pkt"),
        ("sim.ns_per_event", costs.sim_ns_per_event, "ns"),
        ("sim.residual_ns_per_pkt", measured - predicted, "ns/pkt"),
        ("alloc.allocs_per_pkt", per_pkt(c.allocs), "count/pkt"),
        ("alloc.bytes_per_pkt", per_pkt(c.alloc_bytes), "B/pkt"),
        ("alloc.allocs_per_ctrl_msg", ratio(c.allocs as f64, c.ctrl_sent as f64), "count/msg"),
        ("qos.ns_per_enqueue", ns_enq, "ns"),
        ("qos.ns_per_dequeue", ns_deq, "ns"),
        ("qos.enqueues_per_pkt", enq_per_pkt, "count/pkt"),
        ("qos.busy_share", ratio((qos.enq_ns + qos.deq_ns) as f64, traced_total_run_ns), "ratio"),
        ("qos.drop_share", ratio(qos.drops as f64, qos.enq_calls as f64), "ratio"),
        ("qos.max_depth_pkts", qos.max_depth as f64, "pkt"),
        ("mpls.label_ops_per_pkt", per_pkt(c.label_ops), "count/pkt"),
        ("mpls.ns_per_forward", costs.mpls_ns_per_forward, "ns"),
        ("net.lpm_lookups_per_pkt", per_pkt(c.lpm_lookups), "count/pkt"),
        ("net.ns_per_lookup_cached", costs.lpm_ns_cached, "ns"),
        ("net.ns_per_lookup_uncached", costs.lpm_ns_uncached, "ns"),
        ("core.network.add_site_us.p50", percentile_us(add_site.clone(), 0.5), "us"),
        ("core.network.add_site_us.p99", percentile_us(add_site, 0.99), "us"),
        ("core.network.sync_route_pushes", first.sync_route_pushes as f64, "count"),
        ("core.network.build_ms", percentile_us(build, 0.5) / 1e3, "ms"),
        ("routing.igp_converge_us", costs.igp_converge_us, "us"),
        ("core.control.msgs_sent", c.ctrl_sent as f64, "count"),
        ("core.control.msgs_lost", lost as f64, "count"),
        (
            "core.control.delivered_share",
            ratio(c.ctrl_terminated as f64, c.ctrl_sent as f64),
            "ratio",
        ),
        ("core.control.spf_runs", c.spf_runs as f64, "count"),
        (
            "core.control.spf_skip_share",
            ratio(c.spf_skips as f64, (c.spf_runs + c.spf_skips) as f64),
            "ratio",
        ),
        (
            "core.control.host_us_per_flap_slice",
            mean_us(&tracer.durations("core.control.flap_slice")),
            "us",
        ),
        (
            "core.control.host_us_per_join_slice",
            mean_us(&tracer.durations("core.control.join_slice")),
            "us",
        ),
        ("ipsec.ns_per_encap", costs.ipsec_ns_encap, "ns"),
        ("ipsec.ns_per_decap", costs.ipsec_ns_decap, "ns"),
        ("ipsec.busy_share", ratio(ipsec_ns, untraced_run_ns), "ratio"),
        ("ipsec.esp_errors", built.esp_errors() as f64, "count"),
        ("obs.records_per_pkt", per_pkt(c.records), "count/pkt"),
        ("obs.ns_per_record", costs.obs_ns_per_record, "ns"),
        ("obs.snapshot_ms", costs.obs_snapshot_ms, "ms"),
        ("trace.overhead_share", ratio(traced_run_ns, untraced_run_ns) - 1.0, "ratio"),
        ("ledger.measured_ns_per_pkt", measured, "ns/pkt"),
        ("ledger.predicted_ns_per_pkt", predicted, "ns/pkt"),
        ("ledger.sim_ns_per_pkt", ledger_sim, "ns/pkt"),
        ("ledger.qos_ns_per_pkt", ledger_qos, "ns/pkt"),
        ("ledger.mpls_ns_per_pkt", ledger_mpls, "ns/pkt"),
        ("ledger.net_ns_per_pkt", ledger_net, "ns/pkt"),
        ("ledger.ipsec_ns_per_pkt", ledger_ipsec, "ns/pkt"),
        ("ledger.obs_ns_per_pkt", ledger_obs, "ns/pkt"),
    ];
    Ok(Report { metrics, spans: tracer.to_jsonl(), ..base })
}
