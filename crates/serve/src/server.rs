//! The `mtlscope serve` server: a `TcpListener` accept loop feeding a
//! bounded worker pool, each worker terminating mutual TLS and answering
//! framed analysis requests.
//!
//! Design constraints (DESIGN.md §11):
//!
//! - **std-only.** No async runtime; N worker threads block on a shared
//!   `mpsc` channel of accepted sockets. The channel is the backpressure
//!   point — accepted-but-unclaimed connections queue there, and the
//!   `serve.queue_wait_us` histogram makes that queue visible.
//! - **One clock.** Workers read `Instant::now()` once per request and
//!   pass it into the quota clock, which itself never reads time. Tests
//!   drive the same clock with synthetic instants.
//! - **Shared verdict path.** Request handling calls
//!   [`mtls_core::verdict`] — the same functions the offline pipeline
//!   uses — so a served verdict is byte-identical to the offline one.
//! - **Cheap telemetry.** Hot-path metrics go through pre-registered
//!   lock-free [`Counter`]/[`Histogram`] handles; the registry mutex is
//!   touched once per name at startup (or once per tenant-kind pair per
//!   connection), never per request. The release guard
//!   `tests/release_guards.rs::serve_telemetry_costs_under_budget` holds
//!   the whole layer under 3%.

use crate::frame::{
    Frame, REQ_DER, REQ_METRICS, REQ_PING, REQ_SHARD, RESP_ERROR, RESP_METRICS, RESP_PONG,
    RESP_THROTTLED, RESP_VERDICT,
};
use crate::quota::QuotaClock;
use crate::taxonomy;
use crate::tls::{self, EndpointConfig, ServerFlight, SessionError};
use mtls_asn1::Asn1Time;
use mtls_core::verdict::{cert_verdict_der, shard_verdict, VerdictContext};
use mtls_obs::flight::{close, FlightEvent, FlightRecorder};
use mtls_obs::{Counter, Histogram, Obs};
use mtls_pki::{Authorizer, Tenant};
use mtls_tlssim::RecordWriter;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Schema tag on the `RESP_METRICS` JSON envelope.
pub const METRICS_SCHEMA: &str = "mtlscope-serve-metrics-1";

/// Default flight-recorder capacity (events).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// Everything the server needs at startup.
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Worker threads; each handles one connection at a time, for that
    /// connection's whole lifetime (thread-per-connection with a bounded
    /// pool). Size this at the expected number of concurrent keep-alive
    /// sessions: surplus accepted connections queue until a worker
    /// frees, which for a client that never closes means forever.
    pub workers: usize,
    /// TLS identity the server presents.
    pub endpoint: EndpointConfig,
    /// Client-chain gate.
    pub authorizer: Authorizer,
    /// The shared analysis context verdicts are rendered against.
    pub verdict: VerdictContext,
    /// Validation time for client chains (fixed per server run — the
    /// service analyzes a corpus epoch, it does not track wall time).
    pub now: Asn1Time,
    /// Metrics sink.
    pub obs: Obs,
    /// Flight-recorder ring size in connection events
    /// ([`DEFAULT_FLIGHT_CAPACITY`] is a sensible default; 0 disables
    /// recording — the uninstrumented overhead-guard arm runs that way).
    pub flight_capacity: usize,
}

/// Hot-path metric handles, registered once at startup. Request kinds
/// get a (counter, latency histogram) pair each; the per-tenant latency
/// twin is registered lazily per connection (see [`ConnLatency`]).
struct HotMetrics {
    requests: Counter,
    request_bytes: Histogram,
    throttled: Counter,
    unknown_kind: Counter,
    kinds: [KindMetrics; 4],
}

struct KindMetrics {
    count: Counter,
    latency: Histogram,
}

/// Index of a request kind in [`HotMetrics::kinds`], `None` = unknown.
fn kind_index(kind: u8) -> Option<usize> {
    match kind {
        REQ_PING => Some(0),
        REQ_DER => Some(1),
        REQ_SHARD => Some(2),
        REQ_METRICS => Some(3),
        _ => None,
    }
}

const KIND_ORDER: [u8; 4] = [REQ_PING, REQ_DER, REQ_SHARD, REQ_METRICS];

impl HotMetrics {
    fn new(obs: &Obs) -> HotMetrics {
        HotMetrics {
            requests: obs.counter("serve.requests"),
            request_bytes: obs.histogram("serve.request_bytes"),
            throttled: obs.counter("serve.throttled"),
            unknown_kind: obs.counter("serve.request.err.unknown_kind"),
            kinds: KIND_ORDER.map(|kind| KindMetrics {
                count: obs.counter(
                    taxonomy::request_kind_counter(kind).expect("known kind has a counter"),
                ),
                latency: obs.histogram(&format!(
                    "{}{}",
                    taxonomy::LATENCY_PREFIX,
                    taxonomy::request_kind_label(kind)
                )),
            }),
        }
    }
}

/// Per-connection lazily-registered `serve.latency_us.<kind>.<tenant>`
/// handles: one registry hit per kind actually used on the connection.
#[derive(Default)]
struct ConnLatency {
    per_kind: [Option<Histogram>; 4],
}

impl ConnLatency {
    fn record(&mut self, idx: usize, tenant: &str, obs: &Obs, us: u64) {
        let h = self.per_kind[idx].get_or_insert_with(|| {
            obs.histogram(&format!(
                "{}{}.{}",
                taxonomy::LATENCY_PREFIX,
                taxonomy::request_kind_label(KIND_ORDER[idx]),
                tenant
            ))
        });
        h.record(us);
    }
}

struct Shared {
    /// The handshake bytes every connection sends, encoded once from the
    /// configured [`EndpointConfig`].
    server_flight: ServerFlight,
    authorizer: Authorizer,
    verdict: VerdictContext,
    now: Asn1Time,
    obs: Obs,
    hot: HotMetrics,
    flight: FlightRecorder,
    quota: Mutex<QuotaClock>,
    stop: AtomicBool,
}

/// A running server. Dropping it without [`Server::shutdown`] leaks the
/// listener thread, so call shutdown (the binary does on ctrl-level
/// teardown, tests always do).
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the pool, and start accepting.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let hot = HotMetrics::new(&cfg.obs);
        let shared = Arc::new(Shared {
            server_flight: ServerFlight::new(&cfg.endpoint),
            authorizer: cfg.authorizer,
            verdict: cfg.verdict,
            now: cfg.now,
            obs: cfg.obs,
            hot,
            flight: FlightRecorder::new(cfg.flight_capacity),
            quota: Mutex::new(QuotaClock::new()),
            stop: AtomicBool::new(false),
        });

        let (tx, rx) = mpsc::channel::<(TcpStream, Instant)>();
        let rx = Arc::new(Mutex::new(rx));
        let worker_count = cfg.workers.max(1);
        let mut workers = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || loop {
                // Holding the lock only while receiving keeps the pool
                // work-stealing: any idle worker claims the next socket.
                let (stream, accepted_at) = match rx.lock().expect("worker channel lock").recv() {
                    Ok(s) => s,
                    Err(_) => return,
                };
                handle_connection(stream, accepted_at, &shared);
            }));
        }

        let accept_shared = Arc::clone(&shared);
        let connections = accept_shared.obs.counter("serve.connections");
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                match stream {
                    Ok(s) => {
                        connections.add(1);
                        if tx.send((s, Instant::now())).is_err() {
                            return;
                        }
                    }
                    Err(_) => continue,
                }
            }
        });

        Ok(Server {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// Where the server is listening (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Metrics handle. Every counter the serve path emits is minted by
    /// [`crate::taxonomy`] ([`taxonomy::ALL_COUNTERS`] is the full
    /// list, asserted against DESIGN.md's Telemetry table by a test);
    /// histograms are [`taxonomy::HISTOGRAMS`] plus the
    /// `serve.latency_us.<kind>[.<tenant>]` family, gauges are
    /// [`taxonomy::GAUGES`].
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// The connection flight recorder (dump it any time; shutdown also
    /// returns the final dump).
    pub fn flight(&self) -> &FlightRecorder {
        &self.shared.flight
    }

    /// The metrics/flight snapshot exactly as `REQ_METRICS` serves it:
    /// a JSON envelope tagged [`METRICS_SCHEMA`] wrapping the obs
    /// snapshot and the flight-recorder dump.
    pub fn metrics_json(&self) -> String {
        metrics_envelope(&self.shared)
    }

    /// Stop accepting, drain the pool, join every thread, and return
    /// the flight recorder's final dump (deterministic: all workers
    /// have exited, so the ring is quiesced and seq-sorted). In-flight
    /// connections finish their current request loop (workers exit when
    /// the socket channel closes and their connection ends).
    pub fn shutdown(mut self) -> Vec<FlightEvent> {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The accept thread owned `tx`; its exit closed the channel, so
        // workers drain what was queued and return.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.flight.dump()
    }
}

fn saturating_us(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

fn clamp_u32(us: u64) -> u32 {
    us.min(u64::from(u32::MAX)) as u32
}

/// Serve one connection start to finish. `accepted_at` is when the
/// accept loop queued the socket; the gap to now is the queue wait — the
/// thread-per-connection backpressure signal.
fn handle_connection(stream: TcpStream, accepted_at: Instant, shared: &Shared) {
    let claimed_at = Instant::now();
    let queue_wait_us = saturating_us(accepted_at, claimed_at);
    shared
        .obs
        .histogram_record("serve.queue_wait_us", queue_wait_us);

    let _ = stream.set_nodelay(true);
    let read = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let accepted = match tls::accept(
        read,
        stream,
        &shared.server_flight,
        &shared.authorizer,
        shared.now,
    ) {
        Ok(a) => a,
        Err(e) => {
            shared
                .obs
                .counter_add(taxonomy::handshake_error_counter(&e), 1);
            let mut ev = FlightEvent::with_tenant("-");
            ev.close = match e {
                SessionError::Authz(_) => close::AUTHZ,
                _ => close::HANDSHAKE,
            };
            ev.queue_wait_us = clamp_u32(queue_wait_us);
            ev.handshake_us = clamp_u32(saturating_us(claimed_at, Instant::now()));
            ev.lifetime_us = saturating_us(claimed_at, Instant::now());
            shared.flight.record(ev);
            return;
        }
    };
    let handshake_us = saturating_us(claimed_at, Instant::now());
    shared.obs.counter_add("serve.handshake.ok", 1);
    shared
        .obs
        .histogram_record("serve.handshake_us", handshake_us);

    // The privacy meter: what a passive observer on the path just
    // harvested from this client's cleartext Certificate message, read
    // off the leaf the authorizer already parsed.
    let exposure = mtls_tlssim::identity_exposure_parsed(
        Some(tls::VERSION),
        &accepted.client_chain,
        Some(&accepted.leaf),
    );
    if exposure.cleartext {
        let idb = exposure.identity_bytes();
        shared
            .obs
            .counter_add("serve.privacy.cleartext_connections", 1);
        shared
            .obs
            .counter_add("serve.privacy.identity_bytes_total", idb);
        shared
            .obs
            .histogram_record("serve.privacy.identity_bytes", idb);
        shared
            .obs
            .histogram_record("serve.privacy.chain_certs", exposure.chain_len as u64);
        shared
            .obs
            .histogram_record("serve.privacy.san_count", exposure.san_count);
        shared.obs.gauge_max(
            "serve.privacy.max_identity_bytes",
            idb.min(i64::MAX as u64) as i64,
        );
    }

    let tenant = accepted.tenant;
    let mut session = accepted.session;
    let mut stats = ConnStats::default();
    let mut latency = ConnLatency::default();
    let close_cause = loop {
        let frame = match session.receiver.recv_frame() {
            Ok(Some(f)) => f,
            Ok(None) => break close::CLEAN,
            // An oversize length field is caught at the frame header by
            // the reassembler — the frame never materializes, no quota
            // token is ever taken for it.
            Err(SessionError::BadFrame) => {
                shared
                    .obs
                    .counter_add("serve.request.err.oversize_frame", 1);
                break close::BAD_FRAME;
            }
            Err(SessionError::PeerAlert) => break close::PEER_ALERT,
            Err(_) => break close::STREAM,
        };
        if serve_frame(
            &mut session.sender,
            &tenant,
            frame,
            shared,
            &mut stats,
            &mut latency,
        )
        .is_err()
        {
            break close::STREAM;
        }
    };

    shared.obs.counter_add(
        if close_cause == close::CLEAN {
            "serve.conn.closed_clean"
        } else {
            "serve.conn.closed_error"
        },
        1,
    );
    let lifetime_us = saturating_us(claimed_at, Instant::now());
    shared
        .obs
        .histogram_record("serve.conn_lifetime_us", lifetime_us);
    {
        let q = shared.quota.lock().expect("quota lock");
        shared
            .obs
            .gauge_set("serve.quota.tracked_tenants", q.tracked() as i64);
    }

    let mut ev = FlightEvent::with_tenant(&tenant.name);
    ev.close = close_cause;
    ev.handshake_us = clamp_u32(handshake_us);
    ev.queue_wait_us = clamp_u32(queue_wait_us);
    ev.frames = stats.frames;
    ev.bytes_in = stats.bytes_in;
    ev.bytes_out = stats.bytes_out;
    ev.lifetime_us = lifetime_us;
    shared.flight.record(ev);
}

/// Per-connection request accounting feeding the flight recorder.
#[derive(Default)]
struct ConnStats {
    frames: u32,
    bytes_in: u64,
    bytes_out: u64,
}

fn send_counted<W: io::Write>(
    sender: &mut RecordWriter<W>,
    stats: &mut ConnStats,
    kind: u8,
    payload: &[u8],
) -> Result<(), SessionError> {
    stats.bytes_out += 5 + payload.len() as u64;
    tls::send_frame(sender, kind, payload)
}

/// Answer one request frame, borrowed from the session's receive half,
/// through its send half. `Err` means the connection is unusable.
fn serve_frame<W: io::Write>(
    sender: &mut RecordWriter<W>,
    tenant: &Tenant,
    frame: Frame<'_>,
    shared: &Shared,
    stats: &mut ConnStats,
    latency: &mut ConnLatency,
) -> Result<(), SessionError> {
    let t0 = Instant::now();
    stats.frames += 1;
    stats.bytes_in += 5 + frame.payload.len() as u64;
    shared.hot.requests.add(1);
    shared.hot.request_bytes.record(frame.payload.len() as u64);
    let idx = kind_index(frame.kind);
    match idx {
        Some(i) => shared.hot.kinds[i].count.add(1),
        None => shared.hot.unknown_kind.add(1),
    }

    let result = match frame.kind {
        REQ_PING => send_counted(sender, stats, RESP_PONG, &[]),
        REQ_DER | REQ_SHARD => {
            if !take_quota(tenant, shared) {
                shared.hot.throttled.add(1);
                send_counted(sender, stats, RESP_THROTTLED, &[])
            } else {
                let verdict = if frame.kind == REQ_DER {
                    cert_verdict_der(frame.payload, &shared.verdict)
                } else {
                    shard_verdict(frame.payload, &shared.verdict)
                };
                send_counted(sender, stats, RESP_VERDICT, verdict.as_bytes())
            }
        }
        // The admin frame: ops-class tenants (leaf OU
        // `mtlscope-ops`) get the live snapshot; everyone else gets a
        // refusal. No quota token — operators polling metrics must not
        // eat their own serving budget.
        REQ_METRICS => {
            if tenant.ops {
                let payload = metrics_envelope(shared);
                send_counted(sender, stats, RESP_METRICS, payload.as_bytes())
            } else {
                shared
                    .obs
                    .counter_add("serve.request.err.metrics_forbidden", 1);
                send_counted(
                    sender,
                    stats,
                    RESP_ERROR,
                    b"metrics requires an ops-class tenant",
                )
            }
        }
        other => {
            let msg = format!("unknown request kind {other:#04x}");
            send_counted(sender, stats, RESP_ERROR, msg.as_bytes())
        }
    };

    let us = saturating_us(t0, Instant::now());
    if let Some(i) = idx {
        shared.hot.kinds[i].latency.record(us);
        latency.record(i, &tenant.name, &shared.obs, us);
    }
    result
}

/// Render the `RESP_METRICS` envelope: schema tag, the deterministic
/// obs snapshot, and the flight-recorder dump.
fn metrics_envelope(shared: &Shared) -> String {
    let metrics = shared.obs.snapshot().to_json();
    format!(
        "{{\"schema\": \"{}\", \"metrics\": {}, \"flight\": {}}}\n",
        METRICS_SCHEMA,
        metrics.trim_end(),
        shared.flight.to_json()
    )
}

/// Advance this tenant's bucket by their real elapsed time and try to
/// take a token.
fn take_quota(tenant: &Tenant, shared: &Shared) -> bool {
    let mut q = shared.quota.lock().expect("quota lock");
    q.try_take(&tenant.name, tenant.quota_per_sec, Instant::now())
}
