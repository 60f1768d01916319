//! Fuzz-ish robustness gate for the trace decode pipeline: every prefix
//! and bit-flipped variant of the committed golden capture must come back
//! as a typed error (or, when the mutation happens to keep the document
//! well-formed, a successfully decoded file) — never a panic. The decode
//! path is used on operator-supplied files by the `nexus-trace` CLI, so
//! "garbage in, panic out" is a usability bug. The committed workload
//! files go through the same mutations and `simulate`'s read path.

use bench::workload_file::WorkloadFile;
use nexus_obs::{parse_json, raw, reconstruct};

const GOLDEN: &str = include_str!("golden/fig13_mini.trace.json");

const WORKLOADS: [&str; 2] = [
    include_str!("../../../workloads/sample.json"),
    include_str!("../../../workloads/fault_recovery.json"),
];

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Parse → decode → reconstruct, asserting the pipeline never panics on
/// `text`. Returns whether the full pipeline succeeded.
fn pipeline_survives(text: &str) -> bool {
    let Ok(doc) = parse_json(text) else {
        return false;
    };
    let Ok(file) = raw::decode(&doc) else {
        return false;
    };
    // Phase reconstruction must tolerate whatever decoded — a mutated
    // latency can put arrival "after" completion.
    let ph = reconstruct(&file.events);
    for s in &ph.spans {
        // The partition identity holds even for clamped corrupt spans.
        assert_eq!(s.queue_wait() + s.exec(), s.total());
    }
    true
}

#[test]
fn every_truncated_prefix_is_a_typed_error() {
    let bytes = GOLDEN.as_bytes();
    assert!(bytes.len() > 4_096, "golden trace unexpectedly small");
    // Every short prefix (the hand-written parser's trickiest region),
    // at most 256 evenly strided cuts across the body, then every suffix
    // cut near the end (mid-token truncation of the final events). Each
    // cut re-parses its whole prefix, so the body sample is what keeps
    // the test linear in the golden's size instead of quadratic.
    let (head, tail) = (512, bytes.len() - 256);
    let mut cuts: Vec<usize> = (0..head).collect();
    cuts.extend((head..tail).step_by((tail - head).div_ceil(256)));
    cuts.extend(tail..bytes.len());
    for cut in cuts {
        let prefix = std::str::from_utf8(&bytes[..cut]).expect("golden is ASCII");
        // Cutting only trailing whitespace leaves a complete document;
        // any cut that removes structure must surface as a typed error.
        let material = bytes[cut..].iter().any(|b| !b.is_ascii_whitespace());
        if material {
            assert!(
                !pipeline_survives(prefix),
                "truncated prefix of {cut} bytes decoded as a complete file"
            );
        } else {
            let _ = pipeline_survives(prefix);
        }
    }
    // The untruncated file still decodes, proving the harness exercises
    // the success path too.
    assert!(pipeline_survives(GOLDEN));
}

#[test]
fn bit_flipped_traces_never_panic_the_decoder() {
    let mut state = 0x5eed_cafe_f00d_u64;
    for _ in 0..2_000 {
        let mut bytes = GOLDEN.as_bytes().to_vec();
        // Flip 1–4 bytes at random positions.
        let flips = 1 + (splitmix64(&mut state) % 4) as usize;
        for _ in 0..flips {
            let pos = (splitmix64(&mut state) % bytes.len() as u64) as usize;
            bytes[pos] ^= (splitmix64(&mut state) % 255 + 1) as u8;
        }
        // Flips can break UTF-8; the CLI reads files lossily the same way.
        let text = String::from_utf8_lossy(&bytes);
        // Success is allowed (a digit flipped to another digit still
        // decodes); panicking is not — the assert inside the pipeline
        // checks decoded spans stay consistent either way.
        let _ = pipeline_survives(&text);
    }
}

/// Parse → every accessor `simulate` calls before it builds the cluster,
/// asserting none panics on `text`. Returns whether all of them succeeded.
fn workload_survives(text: &str) -> bool {
    let Ok(w) = WorkloadFile::from_json(text) else {
        return false;
    };
    // `&`, not `&&`: every accessor runs even after one has failed.
    w.device_type().is_ok()
        & w.system_config().is_ok()
        & w.window().is_ok()
        & w.classes().is_ok()
        & w.faults().is_ok()
}

#[test]
fn mutated_workload_files_are_typed_errors() {
    let mut state = 0x5eed_cafe_f00d_u64;
    for golden in WORKLOADS {
        assert!(workload_survives(golden));
        // The files are a few hundred ASCII bytes: every prefix is cut.
        for cut in 0..golden.len() {
            let material = !golden[cut..].trim().is_empty();
            assert!(
                !(material && workload_survives(&golden[..cut])),
                "truncated prefix of {cut} bytes read as a complete workload"
            );
        }
        for _ in 0..2_000 {
            let mut bytes = golden.as_bytes().to_vec();
            for _ in 0..1 + splitmix64(&mut state) % 4 {
                let pos = (splitmix64(&mut state) % bytes.len() as u64) as usize;
                bytes[pos] ^= (splitmix64(&mut state) % 255 + 1) as u8;
            }
            // A flip may leave a valid workload (a digit for a digit); what
            // it may not do is reach a library assert.
            let _ = workload_survives(&String::from_utf8_lossy(&bytes));
        }
    }
}
