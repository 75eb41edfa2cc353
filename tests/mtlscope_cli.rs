//! The `mtlscope` binary over a real socket: `mtlscope serve` on an
//! ephemeral port, then `mtlscope metrics` pulls the live envelope with
//! the demo ops chain. Every name the envelope carries must be one the
//! serve taxonomy mints, and every flight-recorder close cause one the
//! recorder can label.

use mtlscope::obs::flight::close;
use mtlscope::serve::{taxonomy, METRICS_SCHEMA};
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStderr, Command, Output, Stdio};

/// A running `mtlscope serve`, killed and reaped on drop — on success and
/// on panic alike. It keeps the server's stderr open so the server never
/// writes into a closed pipe.
struct ServeProcess {
    child: Child,
    stderr: BufReader<ChildStderr>,
    addr: String,
}

impl ServeProcess {
    fn start() -> ServeProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mtlscope"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn mtlscope serve");
        let stderr = child.stderr.take().expect("piped stderr");
        // Own the child before anything can panic, so the guard reaps it.
        let mut server = ServeProcess {
            child,
            stderr: BufReader::new(stderr),
            addr: String::new(),
        };
        let mut line = String::new();
        server
            .stderr
            .read_line(&mut line)
            .expect("read serve stderr");
        let (_, rest) = line
            .split_once("listening on ")
            .unwrap_or_else(|| panic!("no listening line: {line:?}"));
        server.addr = rest.split_whitespace().next().expect("address").to_string();
        server
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn mtlscope(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mtlscope"))
        .args(args)
        .output()
        .expect("spawn mtlscope")
}

/// The quoted keys of the one-per-line `"name": ...` rows in the object
/// that opens with `"section": {` (the layout `Snapshot::to_json` writes).
fn section_names(envelope: &str, section: &str) -> Vec<String> {
    let open = format!("\"{section}\": {{");
    envelope
        .lines()
        .skip_while(|l| !l.trim_start().starts_with(&open))
        .skip(1)
        .take_while(|l| l.starts_with("    \""))
        .map(|l| l.trim_start()[1..].split('"').next().unwrap().to_string())
        .collect()
}

/// Every `"close": "<label>"` value in the flight dump.
fn flight_closes(envelope: &str) -> Vec<String> {
    envelope
        .split("\"close\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap().to_string())
        .collect()
}

#[test]
fn metrics_subcommand_pulls_a_taxonomy_clean_envelope_from_serve() {
    let server = ServeProcess::start();

    // Each pull is one ops connection that closes when the client exits,
    // so a later pull's flight dump records the earlier connections.
    let mut envelope = String::new();
    for _ in 0..50 {
        let out = mtlscope(&["metrics", "--addr", &server.addr]);
        assert!(
            out.status.success(),
            "mtlscope metrics failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        envelope = String::from_utf8(out.stdout).expect("utf-8 envelope");
        if !flight_closes(&envelope).is_empty() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    assert!(
        envelope.starts_with(&format!("{{\"schema\": \"{METRICS_SCHEMA}\"")),
        "{envelope}"
    );

    let counters = section_names(&envelope, "counters");
    let names: Vec<String> = counters
        .iter()
        .cloned()
        .chain(section_names(&envelope, "gauges"))
        .chain(section_names(&envelope, "histograms"))
        .collect();
    for name in &names {
        assert!(
            name.starts_with("serve.") && taxonomy::is_known_metric(name),
            "`{name}` is not minted by the serve taxonomy"
        );
    }
    // The hot-path counters are registered when the server starts, so a
    // live server reports them even at zero.
    for name in [
        "serve.requests",
        "serve.throttled",
        "serve.request.err.unknown_kind",
    ] {
        assert!(counters.iter().any(|c| c == name), "{name} not registered");
    }

    let closes = flight_closes(&envelope);
    assert!(
        !closes.is_empty(),
        "no connection close recorded: {envelope}"
    );
    let labels: Vec<&str> = (0..=u8::MAX)
        .map(close::label)
        .filter(|l| *l != close::label(u8::MAX))
        .collect();
    for c in &closes {
        assert!(labels.contains(&c.as_str()), "unknown close cause {c:?}");
    }

    // A bad address is an error exit, not a hang or an empty envelope.
    let refused = mtlscope(&["metrics", "--addr", "127.0.0.1:1"]);
    assert!(!refused.status.success());
    assert!(refused.stdout.is_empty());
}
