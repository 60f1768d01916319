//! End-to-end integration tests spanning every crate in the workspace:
//! profile → schema → database → prefix detection → scheduling → cluster
//! simulation, plus the system-level orderings the paper's evaluation rests
//! on.

use nexus::prelude::*;
use nexus_model::{ModelDatabase, PrefixPlan};
use nexus_profile::{profile_model, Micros, ProfilerConfig};
use nexus_simgpu::{SimBatchRunner, SimGpu};
use nexus_workload::apps;

/// The full management-plane path: profile a model on a simulated GPU,
/// ingest base + variants, detect the prefix group, and verify the merged
/// profile the control plane would schedule with.
#[test]
fn management_plane_pipeline() {
    let truth = nexus_profile::catalog::RESNET50.profile_1080ti();
    let mut runner = SimBatchRunner::new(SimGpu::new(GPU_GTX1080TI), truth.clone());
    let measured = profile_model(
        &mut runner,
        ProfilerConfig {
            max_batch: truth.max_batch(),
            repetitions: 3,
        },
    )
    .expect("profiling succeeds");

    let mut db = ModelDatabase::new();
    let base = nexus_model::zoo::resnet50();
    db.ingest(base.clone(), measured.clone()).unwrap();
    for v in 1..=5u64 {
        db.ingest(base.specialize(format!("v{v}"), 1, v), measured.clone())
            .unwrap();
    }
    let groups = db.prefix_groups();
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].1.len(), 6);

    let plan = PrefixPlan::new(&base, &measured, groups[0].0.prefix_len);
    let merged = plan.merged_profile(6, 32);
    // Merged serving of 24 inputs spread over 6 variants beats executing
    // six separate batches of 4.
    let separate_tp = 24.0 / (measured.latency(4) * 6).as_secs_f64();
    assert!(
        merged.throughput(24) > 1.5 * separate_tp,
        "merged {:.0} vs separate {separate_tp:.0}",
        merged.throughput(24)
    );
}

/// Nexus sustains a rate at <1% bad where both baselines degrade, on the
/// traffic case study (the Fig. 11 ordering at one operating point).
#[test]
fn nexus_beats_baselines_on_traffic() {
    let run = |system: SystemConfig| {
        nexus::run_once(
            system.with_static_allocation(),
            GPU_GTX1080TI,
            8,
            vec![TrafficClass::new(
                apps::traffic(),
                ArrivalKind::Uniform,
                420.0,
            )],
            3,
            Micros::from_secs(4),
            Micros::from_secs(16),
            0,
        )
    };
    let nexus = run(SystemConfig::nexus());
    let tf = run(SystemConfig::tf_serving());
    let clipper = run(SystemConfig::clipper());
    assert!(
        nexus.query_bad_rate < 0.01,
        "nexus bad {}",
        nexus.query_bad_rate
    );
    assert!(
        tf.query_bad_rate > nexus.query_bad_rate,
        "tf {} vs nexus {}",
        tf.query_bad_rate,
        nexus.query_bad_rate
    );
    assert!(
        clipper.query_bad_rate > nexus.query_bad_rate,
        "clipper {} vs nexus {}",
        clipper.query_bad_rate,
        nexus.query_bad_rate
    );
}

/// The builder facade produces the same result as the explicit SimConfig
/// path, and runs are deterministic end to end.
#[test]
fn builder_and_determinism() {
    let via_builder = || {
        NexusCluster::builder()
            .gpus(4)
            .app(apps::dance(), 30.0)
            .horizon_secs(10)
            .warmup_secs(2)
            .seed(11)
            .simulate()
    };
    let a = via_builder();
    let b = via_builder();
    assert_eq!(a.queries_finished, b.queries_finished);
    assert_eq!(a.query_bad_rate, b.query_bad_rate);
    let c = nexus::run_once(
        SystemConfig::nexus(),
        GPU_GTX1080TI,
        4,
        vec![TrafficClass::new(apps::dance(), ArrivalKind::Uniform, 30.0)],
        11,
        Micros::from_secs(2),
        Micros::from_secs(10),
        0,
    );
    assert_eq!(a.queries_finished, c.queries_finished);
    assert_eq!(a.query_bad_rate, c.query_bad_rate);
}

/// Every Table 4 application runs cleanly at light load on a big cluster —
/// exercising every catalog model, prefix merging, multi-stage queries, and
/// the latency-split DP in one deployment.
#[test]
fn all_apps_serve_cleanly_at_light_load() {
    let classes: Vec<TrafficClass> = nexus_workload::all_apps()
        .into_iter()
        .map(|app| TrafficClass::new(app, ArrivalKind::Poisson, 20.0))
        .collect();
    let result = nexus::run_once(
        SystemConfig::nexus().with_static_allocation(),
        GPU_GTX1080TI,
        40,
        classes,
        5,
        Micros::from_secs(4),
        Micros::from_secs(16),
        0,
    );
    assert!(result.queries_finished > 1_500);
    assert!(
        result.query_bad_rate < 0.01,
        "bad rate {}",
        result.query_bad_rate
    );
}

/// The throughput-search driver reproduces the qualitative early-vs-lazy
/// dispatch result (Fig. 9) on a single-GPU plan.
#[test]
fn early_drop_beats_lazy_in_max_goodput() {
    use nexus_runtime::NodeSession;
    let measure = |policy: DropPolicy| {
        nexus::max_rate_within(
            &ThroughputSearch {
                target_bad_rate: 0.01,
                lo: 1.0,
                hi: 600.0,
                iters: 8,
            },
            |rate| {
                let cfg = SimConfig {
                    system: SystemConfig {
                        drop_policy: policy,
                        ladder: false,
                        ..SystemConfig::nexus().with_static_allocation()
                    },
                    device: GPU_GTX1080TI,
                    max_gpus: 1,
                    seed: 2,
                    horizon: Micros::from_secs(15),
                    warmup: Micros::from_secs(3),
                    trace_capacity: 0,
                    faults: vec![],
                };
                let session = NodeSession {
                    profile: nexus_profile::BatchingProfile::from_linear_ms(1.0, 25.0, 32),
                    slo: Micros::from_millis(100),
                    rate,
                    arrival: ArrivalKind::Poisson,
                };
                ClusterSim::try_new_node(cfg, &[session])
                    .expect("a static plan")
                    .run()
                    .query_bad_rate
            },
        )
    };
    let lazy = measure(DropPolicy::Lazy);
    let early = measure(DropPolicy::Early);
    assert!(
        early > lazy,
        "early drop {early:.0} should beat lazy {lazy:.0}"
    );
}

/// Epoch-driven reallocation reacts to a workload surge and recovers —
/// the Fig. 13 mechanism at small scale.
#[test]
fn epoch_controller_tracks_surge() {
    let classes = vec![
        TrafficClass::new(apps::traffic(), ArrivalKind::Poisson, 80.0).with_modulation(vec![
            (Micros::ZERO, 1.0),
            (Micros::from_secs(25), 2.5),
            (Micros::from_secs(50), 1.0),
        ]),
    ];
    let result = nexus::run_once(
        SystemConfig::nexus()
            .with_epoch(Micros::from_secs(10))
            .with_spread_factor(1.2),
        GPU_GTX1080TI,
        32,
        classes,
        7,
        Micros::from_secs(10),
        Micros::from_secs(75),
        0,
    );
    let tl = result.metrics.timeline();
    let before = tl[20].gpus_allocated;
    let during = tl[45].gpus_allocated;
    assert!(
        during > before,
        "allocation should grow under surge: {before} -> {during}"
    );
    // Adaptation lag costs some queries (Fig. 13's reconfiguration
    // spikes); the long-run rate must still be bounded.
    assert!(
        result.query_bad_rate < 0.20,
        "bad rate {} during adaptation",
        result.query_bad_rate
    );
}
