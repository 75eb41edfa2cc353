//! End-to-end tests: a real [`mtls_serve::Server`] on a loopback socket,
//! real clients, and the service's acceptance claims — byte-identical
//! verdicts, quota throttling, authorization rejection, keep-alive reuse,
//! the planted-failure counter vector and the ops-gated metrics frame.

use mtls_core::verdict::{cert_verdict_der, shard_verdict};
use mtls_obs::Obs;
use mtls_pki::ctlog::CtEntry;
use mtls_serve::client::{ClientSession, Response};
use mtls_serve::demo::{demo_server_config, demo_verdict_context, demo_world, DemoWorld};
use mtls_serve::server::Server;
use std::time::{Duration, Instant};

fn start_demo(workers: usize, quota_private: u32) -> (Server, DemoWorld, Obs) {
    let world = demo_world();
    let obs = Obs::new();
    let cfg = demo_server_config(&world, "127.0.0.1:0", workers, quota_private, obs.clone());
    let server = Server::start(cfg).expect("bind demo server");
    (server, world, obs)
}

fn connect_tenant(server: &Server, world: &DemoWorld) -> ClientSession {
    ClientSession::connect(
        &server.local_addr().to_string(),
        &world.tenant_endpoint,
        Some("mtlscope-serve.campus.example"),
    )
    .expect("tenant connect")
}

#[test]
fn served_der_verdict_is_byte_identical_to_offline() {
    let (server, world, _obs) = start_demo(2, 1000);
    let mut client = connect_tenant(&server, &world);

    let served = match client.request_der(&world.sample_der).unwrap() {
        Response::Verdict(v) => v,
        other => panic!("expected verdict, got {other:?}"),
    };
    let offline = cert_verdict_der(&world.sample_der, &demo_verdict_context());
    assert_eq!(served, offline, "served verdict diverged from offline");
    assert!(served.contains("parse: ok"), "{served}");

    drop(client);
    server.shutdown();
}

#[test]
fn served_shard_verdict_is_byte_identical_to_offline() {
    let (server, world, _obs) = start_demo(2, 1000);
    let mut client = connect_tenant(&server, &world);

    let served = match client.request_shard(&world.sample_shard).unwrap() {
        Response::Verdict(v) => v,
        other => panic!("expected verdict, got {other:?}"),
    };
    let offline = shard_verdict(&world.sample_shard, &demo_verdict_context());
    assert_eq!(served, offline);
    assert!(
        served.starts_with("verdict: shard\nrecords: 2\n"),
        "{served}"
    );

    drop(client);
    server.shutdown();
}

#[test]
fn served_shard_verdict_matches_offline_against_a_populated_ct_log() {
    // CT logs one sample-shard name under a public CA; the shard's row for
    // it comes from the private campus root, so the row is a candidate.
    let world = demo_world();
    let mut cfg = demo_server_config(&world, "127.0.0.1:0", 1, 1000, Obs::noop());
    cfg.verdict.ct.submit_entry(CtEntry {
        domain: "vpn.campus.example".into(),
        issuer_display: "CN=DigiCert Global Root G2, O=DigiCert Inc".into(),
        fingerprint: mtls_crypto::Fp::of(b"logged DigiCert leaf"),
    });
    let mut ctx = demo_verdict_context();
    ctx.ct = cfg.verdict.ct.clone();
    let server = Server::start(cfg).expect("bind demo server");
    let mut client = connect_tenant(&server, &world);

    let served = match client.request_shard(&world.sample_shard).unwrap() {
        Response::Verdict(v) => v,
        other => panic!("expected verdict, got {other:?}"),
    };
    assert_eq!(served, shard_verdict(&world.sample_shard, &ctx));
    let lines: Vec<&str> = served
        .lines()
        .filter(|l| l.starts_with("interception: "))
        .collect();
    assert_eq!(lines, ["interception: candidate", "interception: clear"]);

    drop(client);
    server.shutdown();
}

#[test]
fn keep_alive_session_serves_many_requests() {
    let (server, world, obs) = start_demo(2, 10_000);
    let mut client = connect_tenant(&server, &world);

    for _ in 0..50 {
        match client.request_der(&world.sample_der).unwrap() {
            Response::Verdict(_) => {}
            other => panic!("expected verdict, got {other:?}"),
        }
    }
    assert!(matches!(client.ping().unwrap(), Response::Pong));
    drop(client);
    server.shutdown();

    let snap = obs.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(counter("serve.connections"), 1, "one keep-alive connection");
    assert_eq!(counter("serve.requests"), 51);
    assert_eq!(counter("serve.throttled"), 0);
}

#[test]
fn quota_exhaustion_throttles_then_burst_is_bounded() {
    // quota 5/s: the first 5 immediate requests pass, the 6th throttles.
    let (server, world, obs) = start_demo(1, 5);
    let mut client = connect_tenant(&server, &world);

    let mut ok = 0;
    let mut throttled = 0;
    for _ in 0..8 {
        match client.request_der(&world.sample_der).unwrap() {
            Response::Verdict(_) => ok += 1,
            Response::Throttled => throttled += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(ok, 5, "burst bounded by bucket capacity");
    assert_eq!(throttled, 3);

    drop(client);
    server.shutdown();
    let snap = obs.snapshot();
    let got = snap
        .counters
        .iter()
        .find(|(n, _)| n == "serve.throttled")
        .map(|(_, v)| *v);
    assert_eq!(got, Some(3));
}

#[test]
fn expired_tenant_is_rejected_at_the_door() {
    let (server, world, obs) = start_demo(1, 100);
    let msg = match ClientSession::connect(
        &server.local_addr().to_string(),
        &world.expired_endpoint,
        None,
    ) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("expired chain must not establish"),
    };
    assert!(msg.contains("alert"), "{msg}");

    // A valid tenant still gets in afterwards — the reject didn't wedge
    // a worker.
    let mut client = connect_tenant(&server, &world);
    assert!(matches!(client.ping().unwrap(), Response::Pong));
    drop(client);
    server.shutdown();

    let snap = obs.snapshot();
    let got = snap
        .counters
        .iter()
        .find(|(n, _)| n == "serve.authz.err.chain.expired")
        .map(|(_, v)| *v);
    assert_eq!(got, Some(1), "per-cause taxonomy names the expiry exactly");
}

#[test]
fn garbage_der_gets_parse_error_verdict_not_connection_drop() {
    let (server, world, _obs) = start_demo(1, 100);
    let mut client = connect_tenant(&server, &world);

    let served = match client.request_der(b"definitely not DER").unwrap() {
        Response::Verdict(v) => v,
        other => panic!("expected verdict, got {other:?}"),
    };
    assert!(served.contains("parse: error:"), "{served}");
    // Same bytes as the offline twin even for the error shape.
    assert_eq!(
        served,
        cert_verdict_der(b"definitely not DER", &demo_verdict_context())
    );
    // Connection is still usable.
    assert!(matches!(client.ping().unwrap(), Response::Pong));

    drop(client);
    server.shutdown();
}

/// Poll the server's live metrics until `name` appears (a worker records
/// a request's latency just after writing its response).
fn wait_for_metric(server: &Server, name: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !server.metrics_json().contains(name) {
        assert!(Instant::now() < deadline, "{name} never recorded");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn counter_of(snap: &mtls_obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

#[test]
fn oversize_frame_is_refused_at_the_header_without_burning_quota() {
    // quota 1/s: if the oversize path took a token, the follow-up
    // request on a fresh connection would throttle.
    let (server, world, obs) = start_demo(1, 1);
    let mut client = connect_tenant(&server, &world);
    client.send_oversize_header().expect("probe header");
    assert!(client.expect_close(), "server must drop the connection");
    drop(client);

    let mut client2 = connect_tenant(&server, &world);
    match client2.request_der(&world.sample_der).unwrap() {
        Response::Verdict(_) => {}
        other => panic!("oversize frame burned the quota token: {other:?}"),
    }
    drop(client2);

    let events = server.shutdown();
    let snap = obs.snapshot();
    assert_eq!(counter_of(&snap, "serve.request.err.oversize_frame"), 1);
    assert_eq!(counter_of(&snap, "serve.throttled"), 0);
    assert_eq!(counter_of(&snap, "serve.conn.closed_error"), 1);
    assert_eq!(counter_of(&snap, "serve.conn.closed_clean"), 1);
    assert!(
        events
            .iter()
            .any(|e| e.close == mtls_obs::flight::close::BAD_FRAME),
        "flight recorder names the bad-frame close"
    );
}

#[test]
fn metrics_frame_is_ops_gated_and_reports_privacy_exposure() {
    let (server, world, obs) = start_demo(2, 1000);

    let mut tenant = connect_tenant(&server, &world);
    match tenant.request_metrics().unwrap() {
        Response::Error(msg) => assert!(msg.contains("ops"), "{msg}"),
        other => panic!("non-ops tenant must be refused: {other:?}"),
    }
    assert!(
        matches!(tenant.ping().unwrap(), Response::Pong),
        "refusal is request-level, not a connection drop"
    );
    // A request's latency is recorded after its response is written, so
    // wait for the ping's before the ops snapshot is taken.
    wait_for_metric(&server, "serve.latency_us.ping.tenant-alpha");

    let mut ops =
        ClientSession::connect(&server.local_addr().to_string(), &world.ops_endpoint, None)
            .expect("ops connect");
    let body = match ops.request_metrics().unwrap() {
        Response::Metrics(json) => json,
        other => panic!("ops tenant must get the snapshot: {other:?}"),
    };
    assert!(
        body.starts_with("{\"schema\": \"mtlscope-serve-metrics-1\""),
        "{body}"
    );
    assert!(body.contains("\"metrics\""));
    assert!(body.contains("\"flight\""));
    assert!(body.contains("serve.privacy.identity_bytes_total"));
    // Same renderer as the frame. Once the server has recorded the metrics
    // request's own latency, that sample is the only difference.
    let own = "serve.latency_us.metrics.tenant-ops";
    wait_for_metric(&server, own);
    let live = server.metrics_json();
    assert!(!body.contains(own), "{body}");
    assert!(body.contains("\"serve.latency_us.metrics\": {\"count\": 1,"));
    assert!(live.contains("\"serve.latency_us.metrics\": {\"count\": 2,"));
    let without_metrics_latency = |json: &str| -> Vec<String> {
        json.lines()
            .filter(|l| !l.contains("\"serve.latency_us.metrics"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        without_metrics_latency(&body),
        without_metrics_latency(&live),
        "same renderer as the frame"
    );

    drop(tenant);
    drop(ops);
    server.shutdown();
    let snap = obs.snapshot();
    assert_eq!(counter_of(&snap, "serve.request.err.metrics_forbidden"), 1);
    // Both connections spoke TLS 1.2: their client chains crossed in
    // cleartext, so the exposure meter is nonzero.
    assert_eq!(counter_of(&snap, "serve.privacy.cleartext_connections"), 2);
    assert!(counter_of(&snap, "serve.privacy.identity_bytes_total") > 0);
}

#[test]
fn every_emitted_metric_name_comes_from_the_taxonomy() {
    // Drive every family: verdicts, pings, shards, an unknown kind, a
    // metrics pull (granted and refused), an authz reject, a rogue CA,
    // and a throttle.
    let (server, world, obs) = start_demo(2, 1);
    let addr = server.local_addr().to_string();

    let mut tenant = connect_tenant(&server, &world);
    let _ = tenant.request_der(&world.sample_der).unwrap();
    let _ = tenant.request_der(&world.sample_der).unwrap(); // throttles
    let _ = tenant.request_shard(&world.sample_shard).unwrap();
    let _ = tenant.ping().unwrap();
    let _ = tenant.request_raw(0x77, b"?").unwrap();
    let _ = tenant.request_metrics().unwrap(); // refused, counted
    drop(tenant);

    let mut ops = ClientSession::connect(&addr, &world.ops_endpoint, None).unwrap();
    let _ = ops.request_metrics().unwrap();
    drop(ops);

    assert!(ClientSession::connect(&addr, &world.expired_endpoint, None).is_err());
    assert!(ClientSession::connect(&addr, &world.rogue_endpoint, None).is_err());

    server.shutdown();
    let snap = obs.snapshot();
    assert!(!snap.counters.is_empty());
    for (name, _) in &snap.counters {
        assert!(
            mtls_serve::taxonomy::is_known_metric(name),
            "counter `{name}` is not minted by the taxonomy"
        );
    }
    for h in &snap.histograms {
        assert!(
            mtls_serve::taxonomy::is_known_metric(&h.name),
            "histogram `{}` is not minted by the taxonomy",
            h.name
        );
    }
    for (name, _) in &snap.gauges {
        assert!(
            mtls_serve::taxonomy::is_known_metric(name),
            "gauge `{name}` is not minted by the taxonomy"
        );
    }
    // The rogue CA maps to the signature-verification failure, the
    // expired chain to expiry — per-cause, not a lump.
    assert_eq!(counter_of(&snap, "serve.authz.err.chain.bad_signature"), 1);
    assert_eq!(counter_of(&snap, "serve.authz.err.chain.expired"), 1);
    assert_eq!(counter_of(&snap, "serve.request.err.unknown_kind"), 1);
    // The 1/s bucket had one token: the second DER and the shard both
    // throttled (unless the test stalled a full second mid-flight).
    assert!(counter_of(&snap, "serve.throttled") >= 1);
}

#[test]
fn flight_recorder_captures_connection_lifecycles() {
    let (server, world, _obs) = start_demo(1, 1000);
    let addr = server.local_addr().to_string();

    let mut client = connect_tenant(&server, &world);
    let _ = client.request_der(&world.sample_der).unwrap();
    let _ = client.ping().unwrap();
    drop(client);

    assert!(ClientSession::connect(&addr, &world.expired_endpoint, None).is_err());

    let events = server.shutdown();
    assert_eq!(events.len(), 2, "one served + one rejected connection");
    assert!(
        events.windows(2).all(|w| w[0].seq < w[1].seq),
        "dump is seq-ordered"
    );
    let served = events
        .iter()
        .find(|e| e.tenant_str() == "tenant-alpha")
        .expect("served connection recorded");
    assert_eq!(served.close, mtls_obs::flight::close::CLEAN);
    assert_eq!(served.frames, 2);
    assert!(served.bytes_in > 0 && served.bytes_out > 0);
    assert!(served.lifetime_us > 0);
    let rejected = events
        .iter()
        .find(|e| e.tenant_str() == "-")
        .expect("rejected connection recorded");
    assert_eq!(rejected.close, mtls_obs::flight::close::AUTHZ);
    assert_eq!(rejected.frames, 0);
}

#[test]
fn latency_and_queue_wait_histograms_fill_in() {
    let (server, world, obs) = start_demo(2, 1000);
    let mut client = connect_tenant(&server, &world);
    for _ in 0..5 {
        let _ = client.request_der(&world.sample_der).unwrap();
    }
    let _ = client.ping().unwrap();
    drop(client);
    server.shutdown();

    let snap = obs.snapshot();
    let hist = |name: &str| {
        snap.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| h.count)
            .unwrap_or(0)
    };
    assert_eq!(hist("serve.latency_us.der"), 5);
    assert_eq!(hist("serve.latency_us.der.tenant-alpha"), 5);
    assert_eq!(hist("serve.latency_us.ping"), 1);
    assert_eq!(hist("serve.queue_wait_us"), 1, "one accepted connection");
    assert_eq!(hist("serve.handshake_us"), 1);
    assert_eq!(hist("serve.conn_lifetime_us"), 1);
    assert_eq!(hist("serve.request_bytes"), 6);
}

#[test]
fn concurrent_tenants_are_served_by_the_pool() {
    let (server, world, _obs) = start_demo(4, 10_000);
    let addr = server.local_addr().to_string();
    let der = world.sample_der.clone();
    let offline = cert_verdict_der(&der, &demo_verdict_context());

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let der = der.clone();
            let offline = offline.clone();
            let endpoint = mtls_serve::tls::EndpointConfig {
                chain: world.tenant_endpoint.chain.clone(),
                random_seed: world.tenant_endpoint.random_seed,
            };
            std::thread::spawn(move || {
                let mut c = ClientSession::connect(&addr, &endpoint, None).unwrap();
                for _ in 0..20 {
                    match c.request_der(&der).unwrap() {
                        Response::Verdict(v) => assert_eq!(v, offline),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

/// Render a counter list the way the planted-vector claim compares it:
/// one sorted JSON object, no whitespace variance.
fn counter_vector_json(counters: &[(String, u64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, v)) in counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{name}\": {v}"));
    }
    out.push('}');
    out
}

/// Drive the four planted failures against a fresh low-quota deployment
/// and return the resulting counter vector as canonical JSON.
fn planted_counter_vector(world: &DemoWorld) -> String {
    let obs = Obs::new();
    let cfg = demo_server_config(world, "127.0.0.1:0", 2, 1, obs.clone());
    let server = Server::start(cfg).expect("bind planted-failure server");
    let addr = server.local_addr().to_string();

    // Planted failure 1: expired chain → authz.err.chain.expired.
    assert!(
        ClientSession::connect(&addr, &world.expired_endpoint, None).is_err(),
        "expired chain must be refused"
    );
    // Planted failure 2: rogue CA ("unknown tenant") — the chain's
    // issuer key is not registered, so signature verification fails.
    assert!(
        ClientSession::connect(&addr, &world.rogue_endpoint, None).is_err(),
        "rogue chain must be refused"
    );
    // Planted failure 3: oversize frame, refused at the header without
    // taking a quota token.
    let mut c = ClientSession::connect(&addr, &world.tenant_endpoint, None)
        .expect("tenant connect (oversize probe)");
    c.send_oversize_header().expect("send oversize header");
    assert!(c.expect_close(), "oversize frame must close the connection");
    drop(c);
    // Planted failure 4: throttle — the 1/s bucket covers one DER
    // verdict, not two back-to-back.
    let mut c = ClientSession::connect(&addr, &world.tenant_endpoint, None)
        .expect("tenant connect (throttle)");
    assert!(matches!(
        c.request_der(&world.sample_der).unwrap(),
        Response::Verdict(_)
    ));
    assert!(matches!(
        c.request_der(&world.sample_der).unwrap(),
        Response::Throttled
    ));
    drop(c);
    server.shutdown();

    counter_vector_json(&obs.snapshot().counters)
}

/// The exact vector the planted failures must produce — derived from the
/// scenario, with the privacy byte count computed from the demo tenant
/// chain the same way the server computes it.
fn expected_planted_vector(world: &DemoWorld) -> String {
    let idb = mtls_tlssim::identity_exposure(
        Some(mtls_serve::tls::VERSION),
        &world.tenant_endpoint.chain,
    )
    .identity_bytes();
    let expected: &[(&str, u64)] = &[
        ("serve.authz.err.chain.bad_signature", 1),
        ("serve.authz.err.chain.expired", 1),
        ("serve.conn.closed_clean", 1),
        ("serve.conn.closed_error", 1),
        ("serve.connections", 4),
        ("serve.handshake.ok", 2),
        ("serve.privacy.cleartext_connections", 2),
        ("serve.privacy.identity_bytes_total", 2 * idb),
        ("serve.request.err.oversize_frame", 1),
        ("serve.request.err.unknown_kind", 0),
        ("serve.requests", 2),
        ("serve.requests.der", 2),
        ("serve.requests.metrics", 0),
        ("serve.requests.ping", 0),
        ("serve.requests.shard", 0),
        ("serve.throttled", 1),
    ];
    let owned: Vec<(String, u64)> = expected.iter().map(|(n, v)| (n.to_string(), *v)).collect();
    counter_vector_json(&owned)
}

#[test]
fn planted_failures_land_in_the_exact_counter_vector_on_every_run() {
    let world = demo_world();
    let first = planted_counter_vector(&world);
    let second = planted_counter_vector(&world);
    assert_eq!(first, second, "two independent runs disagree");
    assert_eq!(first, expected_planted_vector(&world));
}
