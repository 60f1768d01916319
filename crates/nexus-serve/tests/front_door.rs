//! End-to-end front-door tests over real localhost sockets: paced
//! multi-client traffic, a backend killed mid-run, a routing epoch
//! pushed mid-traffic, and the full accounting/shutdown contract.

use std::net::TcpStream;
use std::time::Duration;

use nexus_profile::Micros;
use nexus_serve::proto::{read_frame, write_frame, Msg, Verdict};
use nexus_serve::{run_soak, Liveness, SoakConfig};

#[test]
fn a_quiet_run_completes_everything_and_shuts_down_clean() {
    let report = run_soak(&SoakConfig {
        backends: 2,
        clients: 8,
        requests_per_client: 10,
        kill_backend: None,
        push_second_epoch: false,
        ..SoakConfig::default()
    })
    .expect("soak runs");
    assert!(report.passed(), "{:?}", report.violation());
    assert_eq!(report.stats.submitted, 80);
    assert_eq!(
        report.stats.completed, 80,
        "no chaos, no drops: {:?}",
        report.stats
    );
    assert_eq!(report.applied_epochs, vec![1]);
    assert_eq!(report.stats.budget_violations, 0);
}

#[test]
fn killing_a_backend_mid_traffic_keeps_every_request_accounted() {
    let report = run_soak(&SoakConfig {
        backends: 3,
        clients: 24,
        requests_per_client: 30,
        kill_backend: Some(1),
        push_second_epoch: true,
        ..SoakConfig::default()
    })
    .expect("soak runs");

    assert!(report.passed(), "{:?}", report.violation());
    // The epoch pushed mid-traffic landed, in order, with none dropped.
    assert_eq!(report.applied_epochs, vec![1, 2]);
    // Chaos really happened and the door held: the overwhelming majority
    // of requests completed (the kill window can strand at most the
    // requests in flight against the dead backend before detection).
    let s = &report.stats;
    assert!(
        s.completed as f64 >= 0.9 * s.submitted as f64,
        "completed {} of {}",
        s.completed,
        s.submitted
    );
    // Nothing that completed overran its budget — a retry either fit or
    // was dropped as Stranded.
    assert_eq!(s.budget_violations, 0);
}

#[test]
fn the_prober_walks_a_killed_backend_to_dead() {
    use nexus_serve::{
        spawn_backend, spawn_frontend, FrontendConfig, InstantModel, RegistryConfig, SessionSlo,
    };

    let backend = spawn_backend(InstantModel).expect("backend");
    let frontend = spawn_frontend(FrontendConfig {
        backends: vec![backend.addr],
        registry: RegistryConfig {
            probe_interval: Micros::from_millis(20),
            ..RegistryConfig::default()
        },
        sunset_grace: Micros::from_millis(100),
        slos: vec![SessionSlo {
            slo: Micros::from_millis(100),
            ell_min: Micros::from_micros(200),
            ell_b: Micros::from_micros(400),
            batch: 8,
        }],
    })
    .expect("frontend");

    // Healthy while the backend answers.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(frontend.liveness(0), Liveness::Healthy);

    // Kill it; within a few probe intervals the registry walks
    // Healthy → Suspect → Dead.
    backend.kill();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while frontend.liveness(0) != Liveness::Dead {
        assert!(
            std::time::Instant::now() < deadline,
            "backend never declared dead; stuck at {:?}",
            frontend.liveness(0)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Every transition the prober recorded is an edge of the machine.
    let transitions = frontend.transitions();
    assert!(!transitions.is_empty());
    for t in &transitions {
        assert!(
            nexus_serve::registry::valid_edge(t.from, t.to),
            "invalid edge {t:?}"
        );
    }

    frontend.shutdown();
    backend.shutdown();
}

#[test]
fn submits_for_unknown_sessions_drop_with_no_route() {
    use nexus_serve::{
        spawn_backend, spawn_frontend, FrontendConfig, InstantModel, RegistryConfig, SessionSlo,
    };

    let backend = spawn_backend(InstantModel).expect("backend");
    let frontend = spawn_frontend(FrontendConfig {
        backends: vec![backend.addr],
        registry: RegistryConfig::default(),
        sunset_grace: Micros::from_millis(100),
        slos: vec![SessionSlo {
            slo: Micros::from_millis(100),
            ell_min: Micros::from_micros(200),
            ell_b: Micros::from_micros(400),
            batch: 8,
        }],
    })
    .expect("frontend");

    let mut conn = TcpStream::connect(frontend.addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // Session 7 exists in no SLO table and no routing table.
    write_frame(
        &mut conn,
        &Msg::Submit {
            request: 1,
            session: 7,
            budget_us: 100_000,
        },
    )
    .expect("submit");
    match read_frame(&mut conn).expect("done") {
        Msg::Done {
            request: 1,
            verdict: Verdict::Dropped(cause),
            retried: false,
            ..
        } => assert_eq!(cause, nexus_runtime::DropCause::NoRoute),
        other => panic!("unexpected reply: {other:?}"),
    }
    // A known session with no routing table yet is also NoRoute: the
    // frontend has not been given epoch 1.
    write_frame(
        &mut conn,
        &Msg::Submit {
            request: 2,
            session: 0,
            budget_us: 100_000,
        },
    )
    .expect("submit");
    match read_frame(&mut conn).expect("done") {
        Msg::Done {
            request: 2,
            verdict: Verdict::Dropped(cause),
            ..
        } => assert_eq!(cause, nexus_runtime::DropCause::NoRoute),
        other => panic!("unexpected reply: {other:?}"),
    }

    let stats = frontend.stats();
    assert!(stats.accounted());
    assert_eq!(stats.completed, 0);
    drop(conn);
    frontend.shutdown();
    backend.shutdown();
}

/// Pushes epoch 1 (session 0 on backend 0) to a one-backend, one-session
/// frontend, then starts epoch 2 with a route naming `session` on
/// `backends`, which the frontend does not have. The frontend must close
/// the control connection at that route, void the push so that no other
/// connection can commit it, and keep serving epoch 1.
fn refuses_route_and_keeps_serving_epoch_1(session: u32, backends: Vec<u32>) {
    use nexus_serve::{
        spawn_backend, spawn_frontend, FrontendConfig, InstantModel, RegistryConfig, SessionSlo,
    };

    let backend = spawn_backend(InstantModel).expect("backend");
    let frontend = spawn_frontend(FrontendConfig {
        backends: vec![backend.addr],
        registry: RegistryConfig::default(),
        sunset_grace: Micros::from_millis(100),
        slos: vec![SessionSlo {
            slo: Micros::from_millis(100),
            ell_min: Micros::from_micros(200),
            ell_b: Micros::from_micros(400),
            batch: 8,
        }],
    })
    .expect("frontend");
    let connect = || {
        let conn = TcpStream::connect(frontend.addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        conn
    };

    let mut ctl = connect();
    for msg in [
        Msg::EpochBegin { epoch: 1 },
        Msg::EpochRoute {
            session: 0,
            backends: vec![0],
        },
        Msg::EpochCommit { epoch: 1 },
    ] {
        write_frame(&mut ctl, &msg).expect("push epoch 1");
    }
    assert!(matches!(
        read_frame(&mut ctl).expect("ack"),
        Msg::EpochAck { epoch: 1 }
    ));

    // The frontend may close before the commit is written, so a failed
    // write is part of the expected outcome.
    for msg in [
        Msg::EpochBegin { epoch: 2 },
        Msg::EpochRoute { session, backends },
        Msg::EpochCommit { epoch: 2 },
    ] {
        let _ = write_frame(&mut ctl, &msg);
    }
    if let Ok(reply) = read_frame(&mut ctl) {
        panic!("control connection answered {reply:?} after a bad route");
    }
    // Committing epoch 2 from another connection applies nothing: the
    // reply to the ping that follows is the next frame, not an ack.
    let mut ctl2 = connect();
    write_frame(&mut ctl2, &Msg::EpochCommit { epoch: 2 }).expect("commit");
    write_frame(&mut ctl2, &Msg::Ping { seq: 7 }).expect("ping");
    match read_frame(&mut ctl2).expect("reply") {
        Msg::Pong { seq: 7 } => {}
        other => panic!("commit of a refused push answered {other:?}"),
    }

    // A fresh client is still served under epoch 1.
    let mut client = connect();
    for request in 1..=3 {
        write_frame(
            &mut client,
            &Msg::Submit {
                request,
                session: 0,
                budget_us: 100_000,
            },
        )
        .expect("submit");
        match read_frame(&mut client).expect("done") {
            Msg::Done {
                verdict: Verdict::Completed,
                ..
            } => {}
            other => panic!("request {request}: unexpected reply {other:?}"),
        }
    }
    let stats = frontend.stats();
    assert_eq!(stats.epochs_applied, 1);
    assert_eq!(stats.completed, 3);
    drop(client);
    frontend.shutdown();
    backend.shutdown();
}

#[test]
fn a_route_to_an_unknown_backend_is_refused() {
    refuses_route_and_keeps_serving_epoch_1(0, vec![0, 999]);
}

#[test]
fn a_route_for_an_unknown_session_is_refused() {
    // `slos.len()` is 1: session 1 is the first id past the table.
    refuses_route_and_keeps_serving_epoch_1(1, vec![0]);
}
