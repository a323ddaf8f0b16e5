//! End-to-end tracing guarantees: same-seed runs produce byte-identical
//! JSONL traces, the interval series tiles the run, and engine stats are
//! populated.

use desim::SimDuration;
use dot11_testbed::adhoc::{Scenario, ScenarioBuilder, Traffic};
use dot11_testbed::net::FlowId;
use dot11_testbed::phy::PhyRate;
use dot11_testbed::trace::{IntervalMetricsSink, JsonlSink, SharedSink};

fn scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new(PhyRate::R11)
        .line(&[0.0, 10.0])
        .seed(seed)
        .duration(SimDuration::from_secs(1))
        .warmup(SimDuration::from_millis(100))
        .flow(
            0,
            1,
            Traffic::SaturatedUdp {
                payload_bytes: 512,
                backlog: 10,
            },
        )
        .build()
}

fn trace_bytes(seed: u64) -> Vec<u8> {
    let sink = SharedSink::new(JsonlSink::new(Vec::new()));
    let _ = scenario(seed).run_with(sink.clone());
    sink.take()
        .into_inner()
        .expect("writing to a Vec cannot fail")
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let a = trace_bytes(7);
    let b = trace_bytes(7);
    assert!(!a.is_empty(), "a saturated run must emit trace events");
    assert_eq!(a, b, "same seed, same scenario => identical JSONL bytes");
}

#[test]
fn different_seeds_diverge() {
    assert_ne!(trace_bytes(7), trace_bytes(8));
}

/// Every line is one JSON object stamped first with its time, and the
/// stamps never go backwards.
#[test]
fn every_trace_line_is_a_json_object() {
    let bytes = trace_bytes(7);
    let text = std::str::from_utf8(&bytes).expect("trace is UTF-8");
    let mut lines = 0;
    let mut last = 0u64;
    for line in text.lines() {
        let stamp = line
            .strip_prefix("{\"t\":")
            .unwrap_or_else(|| panic!("line {lines}: {line}"));
        let t: u64 = stamp[..stamp.find(',').expect("more fields")]
            .parse()
            .expect("integer time stamp");
        assert!(t >= last, "line {lines}: time went back from {last} to {t}");
        last = t;
        assert!(line.ends_with('}'), "line {lines}: {line}");
        lines += 1;
    }
    assert!(lines > 100, "expected a dense trace, got {lines} lines");
}

#[test]
fn interval_series_tiles_the_run_and_conserves_bytes() {
    let sink = SharedSink::new(IntervalMetricsSink::new(SimDuration::from_millis(250)));
    let report = scenario(7).run_with(sink.clone());
    let rows = sink.take().into_rows();
    assert_eq!(rows.len(), 4, "1 s run in 250 ms windows");
    for (k, row) in rows.iter().enumerate() {
        assert_eq!(row.index, k as u64);
        assert_eq!(row.start.as_nanos(), k as u64 * 250_000_000);
        assert_eq!(
            row.flows.len(),
            1,
            "one flow per window (rectangular series)"
        );
    }
    assert_eq!(rows.last().expect("rows").end.as_nanos(), 1_000_000_000);
    let windowed: u64 = rows.iter().map(|r| r.flows[0].bytes).sum();
    assert_eq!(
        windowed,
        report.flow(FlowId(0)).delivered_bytes,
        "per-window deliveries must sum to the run total"
    );
}

#[test]
fn engine_stats_are_populated() {
    let report = scenario(7).run();
    assert!(
        report.events > 1_000,
        "saturated second dispatches many events"
    );
    assert_eq!(report.engine.kinds.total(), report.events);
    assert!(report.engine.queue_high_water >= 2);
    // The clock stops on the last event at or before the configured end.
    let elapsed = report.engine.sim_elapsed.as_nanos();
    assert!(
        (900_000_000..=1_000_000_000).contains(&elapsed),
        "elapsed {elapsed} ns"
    );
}
