//! `mtlscope` — the command-line face of the serve stack.
//!
//! Usage:
//!   mtlscope serve [--addr HOST:PORT] [--workers N] [--quota N] [--quiet]
//!   mtlscope metrics --addr HOST:PORT
//!
//! `serve` starts the demo deployment: a private campus CA is minted
//! deterministically, the server presents its chain, and any client
//! presenting a chain signed by the same demo root is admitted as a
//! tenant (see `mtls_serve::demo`). Requests are framed DER blobs or
//! Zeek x509 shards; responses are the offline pipeline's verdicts,
//! byte-identical (DESIGN.md §11).
//!
//! `metrics` connects as the demo ops-class tenant and prints the
//! server's live metrics + flight-recorder envelope, pulled over the
//! `REQ_METRICS` admin frame, to stdout. `tests/mtlscope_cli.rs` checks
//! that envelope against `mtls_serve::taxonomy`.

use mtls_obs::Obs;
use mtls_serve::client::{ClientSession, Response};
use mtls_serve::demo::{demo_server_config, demo_world};
use mtls_serve::server::Server;

fn die(msg: &str) -> ! {
    eprintln!("mtlscope: {msg}");
    std::process::exit(2);
}

fn parse_flag<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let Some(v) = args.next() else {
        die(&format!("{flag} needs a value"));
    };
    v.parse()
        .unwrap_or_else(|_| die(&format!("bad value for {flag}: {v}")))
}

fn cmd_serve(mut args: std::env::Args) {
    let mut addr = "127.0.0.1:8474".to_string();
    let mut workers = 4usize;
    let mut quota = 1000u32;
    let mut quiet = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse_flag(&mut args, "--addr"),
            "--workers" => workers = parse_flag(&mut args, "--workers"),
            "--quota" => quota = parse_flag(&mut args, "--quota"),
            "--quiet" => quiet = true,
            other => die(&format!("unknown serve flag {other}")),
        }
    }

    let world = demo_world();
    let obs = Obs::new();
    let cfg = demo_server_config(&world, &addr, workers, quota, obs.clone());
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => die(&format!("bind {addr}: {e}")),
    };
    if !quiet {
        eprintln!(
            "mtlscope serve: listening on {} ({} workers, {}/s private quota)",
            server.local_addr(),
            workers,
            quota
        );
        eprintln!("mtlscope serve: demo tenant chain admits via the demo root CA; ctrl-c to stop");
    }
    // Serve until killed. The demo binary has no signal handling beyond
    // the process default; `Server::shutdown` exists for embedders.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_metrics(mut args: std::env::Args) {
    let mut addr: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(parse_flag(&mut args, "--addr")),
            other => die(&format!("unknown metrics flag {other}")),
        }
    }
    let Some(addr) = addr else {
        die("metrics needs --addr HOST:PORT");
    };

    // The admin frame needs an ops-class identity; the demo world mints
    // one (leaf OU `mtlscope-ops`) alongside the tenant chain.
    let world = demo_world();
    let mut ops = ClientSession::connect(
        &addr,
        &world.ops_endpoint,
        Some("mtlscope-serve.campus.example"),
    )
    .unwrap_or_else(|e| die(&format!("metrics connect (ops chain): {e}")));
    match ops.request_metrics() {
        Ok(Response::Metrics(envelope)) => print!("{envelope}"),
        Ok(Response::Error(msg)) => die(&format!("metrics refused: {msg}")),
        Ok(other) => die(&format!("metrics: unexpected response {other:?}")),
        Err(e) => die(&format!("metrics round trip: {e}")),
    }
}

fn main() {
    let mut args = std::env::args();
    let _argv0 = args.next();
    match args.next().as_deref() {
        Some("serve") => cmd_serve(args),
        Some("metrics") => cmd_metrics(args),
        Some("--help") | Some("-h") | None => {
            eprintln!(
                "usage: mtlscope serve [--addr HOST:PORT] [--workers N] [--quota N] [--quiet]\n\
                        mtlscope metrics --addr HOST:PORT"
            );
        }
        Some(other) => die(&format!("unknown subcommand {other}")),
    }
}
