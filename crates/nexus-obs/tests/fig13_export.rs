//! End-to-end acceptance: tracing a Fig. 13 mini-run produces a valid
//! Chrome-trace export and a losslessly round-tripping trace file.

use nexus_obs::{chrome_trace, raw, reconstruct, validate_chrome_trace, Json};
use nexus_profile::{Micros, GPU_K80};
use nexus_runtime::{SystemConfig, TraceEvent};

fn fig13_mini() -> nexus_runtime::SimResult {
    let warmup = Micros::from_secs(2);
    let horizon = Micros::from_secs(3) + warmup;
    nexus::run_once(
        SystemConfig::nexus().with_epoch(Micros::from_secs(2)),
        GPU_K80,
        4,
        nexus::workloads::fig13_classes(horizon, 0.05),
        42,
        warmup,
        horizon,
        1 << 20,
    )
}

#[test]
fn fig13_mini_run_exports_valid_chrome_trace() {
    let result = fig13_mini();
    let trace = result.trace.as_ref().expect("tracing enabled");
    assert!(
        !trace.events().is_empty(),
        "a loaded fig13 run must record events"
    );
    assert_eq!(result.trace_truncated, 0, "capacity sized for the mini run");

    let doc = chrome_trace(trace.events());
    validate_chrome_trace(&doc).expect("export is valid Chrome-trace JSON");

    // The document survives its own serialization, and contains at least
    // one GPU slice and one request span.
    let text = doc.to_string();
    let back = nexus_obs::parse_json(&text).expect("export re-parses");
    validate_chrome_trace(&back).expect("still valid after round-trip");
    let events = back.get("traceEvents").unwrap().as_array().unwrap();
    let has_ph = |ph: &str| {
        events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
    };
    assert!(has_ph("X"), "no batch slices in export");
    assert!(has_ph("b") && has_ph("e"), "no request spans in export");
    assert!(has_ph("M"), "no track metadata in export");
}

#[test]
fn fig13_mini_trace_file_round_trips() {
    let result = fig13_mini();
    let trace = result.trace.as_ref().unwrap();
    let text = raw::encode(trace.events(), trace.truncated, None).to_string();
    let back = raw::decode(&nexus_obs::parse_json(&text).unwrap()).unwrap();
    assert_eq!(back.events, trace.events());

    // Phase spans reconstructed from the decoded file partition every
    // completed request's lifetime exactly.
    let ph = reconstruct(&back.events);
    assert!(!ph.spans.is_empty());
    for span in &ph.spans {
        assert_eq!(span.queue_wait() + span.exec(), span.total());
        assert!(span.arrival <= span.exec_start && span.exec_start <= span.completion);
    }
    // Completions reference batches recorded in the same capture.
    let batch_seqs: std::collections::BTreeSet<u64> = back
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Batch { seq, .. } => Some(*seq),
            _ => None,
        })
        .collect();
    for span in &ph.spans {
        assert!(
            batch_seqs.contains(&span.batch_seq),
            "completion references unrecorded batch {}",
            span.batch_seq
        );
    }
}

/// The schema-golden check: the fixed-seed mini-run must reproduce the
/// committed golden capture byte-for-byte. This pins both the simulation's
/// determinism and the trace file schema; CI runs the same comparison via
/// `nexus-trace capture --golden` + `nexus-trace diff`.
#[test]
fn capture_matches_committed_golden() {
    let golden = include_str!("golden/fig13_mini.trace.json");
    let result = fig13_mini();
    let trace = result.trace.as_ref().unwrap();
    // The same metadata `nexus-trace capture --golden` stamps on the file.
    let meta = Json::Object(vec![
        ("workload".to_string(), Json::Str("fig13".to_string())),
        ("seed".to_string(), Json::UInt(42)),
        ("secs".to_string(), Json::UInt(3)),
        ("gpus".to_string(), Json::UInt(4)),
        ("scale".to_string(), Json::Float(0.05)),
    ]);
    let text = raw::encode(trace.events(), trace.truncated, Some(meta)).to_string();
    assert!(
        text == golden,
        "fixed-seed mini-run diverged from the committed golden \
         ({} vs {} bytes); if the schema or simulation change is \
         intentional, regenerate with `cargo run -p nexus-obs --bin \
         nexus-trace -- capture --golden --out \
         crates/nexus-obs/tests/golden/fig13_mini.trace.json`",
        text.len(),
        golden.len()
    );
}

/// The committed golden re-encodes to itself: parse → decode → encode →
/// write is the identity on every byte of a real capture, so the derived
/// codec and the shared writer read and write one format.
#[test]
fn committed_golden_re_encodes_byte_for_byte() {
    let golden = include_str!("golden/fig13_mini.trace.json");
    let file = raw::decode(&nexus_obs::parse_json(golden).unwrap()).unwrap();
    let text = raw::encode(&file.events, file.truncated, file.meta).to_string();
    assert!(text == golden, "{} vs {} bytes", text.len(), golden.len());
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let traced = fig13_mini();
    let warmup = Micros::from_secs(2);
    let horizon = Micros::from_secs(3) + warmup;
    let plain = nexus::run_once(
        SystemConfig::nexus().with_epoch(Micros::from_secs(2)),
        GPU_K80,
        4,
        nexus::workloads::fig13_classes(horizon, 0.05),
        42,
        warmup,
        horizon,
        0,
    );
    assert_eq!(plain.events_processed, traced.events_processed);
    assert_eq!(plain.queries_finished, traced.queries_finished);
    assert_eq!(plain.query_bad_rate, traced.query_bad_rate);
    assert!(plain.trace.is_none());
    assert_eq!(plain.trace_truncated, 0);
}
