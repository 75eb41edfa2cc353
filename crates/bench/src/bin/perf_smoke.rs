//! Hot-path throughput smoke: stable medians for the byte-level fast
//! paths (SWAR TSV scanning, block-batched SHA-256, table-driven hex, the
//! columnar analyzer scan) plus end-to-end ingest, written as JSON for
//! `ci/check_bench.py` to gate.
//!
//! Every fast path is measured against its in-tree reference twin in the
//! same process (SWAR vs scalar module, one-shot vs streaming SHA, column
//! vs row scan), so the *ratios* are meaningful even on a noisy box; the
//! absolute MB/s only gate when the committed baseline was captured on a
//! machine with the same core count.
//!
//! Usage: `cargo run --release -p mtls-bench --bin perf_smoke [--quick] [OUT.json]`

use mtls_bench::{corpus, sim_output};
use mtls_core::columns::conn_flag;
use mtls_core::ingest::load_dir;
use mtls_core::{build_corpus_obs, Direction, IngestMode};
use mtls_crypto::{hex, sha256, sha256_batch, sha256_x4, Sha256};
use mtls_obs::Obs;
use mtls_zeek::{read_dir_obs, swar, write_ssl_log};
use std::hint::black_box;
use std::time::Instant;

struct Rounds {
    warmup: usize,
    measured: usize,
}

const FULL: Rounds = Rounds {
    warmup: 3,
    measured: 15,
};
const QUICK: Rounds = Rounds {
    warmup: 1,
    measured: 5,
};

/// Median wall micros of `rounds.measured` runs of `f`.
fn median_micros(rounds: &Rounds, mut f: impl FnMut()) -> u64 {
    for _ in 0..rounds.warmup {
        f();
    }
    let mut times = Vec::with_capacity(rounds.measured);
    for _ in 0..rounds.measured {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_micros() as u64);
    }
    times.sort_unstable();
    times[times.len() / 2]
}

fn mb_per_s(bytes_per_run: usize, micros: u64) -> f64 {
    bytes_per_run as f64 / micros.max(1) as f64
}

fn ratio(fast: f64, slow: f64) -> f64 {
    if slow <= 0.0 {
        0.0
    } else {
        fast / slow
    }
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_speed.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            other => out_path = other.to_string(),
        }
    }
    let rounds = if quick { QUICK } else { FULL };
    let cpu_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // ---- fixture: a real serialized ssl.log shard (authentic delimiter
    // density) and the shared bench corpus.
    let sim = sim_output();
    let mut tsv_buf = Vec::new();
    write_ssl_log(&mut tsv_buf, sim.ssl.iter()).expect("write to vec");
    let tsv = &tsv_buf[..];
    let corpus = corpus();

    // ---- SWAR vs scalar scanning over the shard bytes.
    let scan_iters = if quick { 4 } else { 16 };
    let scan_bytes = tsv.len() * scan_iters;
    let swar_count = median_micros(&rounds, || {
        for _ in 0..scan_iters {
            black_box(swar::count_byte(black_box(tsv), b'\n'));
        }
    });
    let scalar_count = median_micros(&rounds, || {
        for _ in 0..scan_iters {
            black_box(swar::scalar::count_byte(black_box(tsv), b'\n'));
        }
    });
    let swar_split = median_micros(&rounds, || {
        for _ in 0..scan_iters {
            let mut n = 0usize;
            for part in swar::split_byte(black_box(tsv), b'\t') {
                n = n.wrapping_add(part.len());
            }
            black_box(n);
        }
    });
    let scalar_split = median_micros(&rounds, || {
        for _ in 0..scan_iters {
            let mut n = 0usize;
            for part in black_box(tsv).split(|&b| b == b'\t') {
                n = n.wrapping_add(part.len());
            }
            black_box(n);
        }
    });

    // ---- SHA-256: one-shot vs streaming (the pre-rewrite path shape) vs
    // 4-way batch, on certificate-blob-sized messages.
    let blob = vec![0xA5u8; 4096];
    let sha_iters = if quick { 64 } else { 256 };
    let sha_bytes = blob.len() * sha_iters;
    let sha_oneshot = median_micros(&rounds, || {
        for _ in 0..sha_iters {
            black_box(sha256(black_box(&blob)));
        }
    });
    let sha_streaming = median_micros(&rounds, || {
        for _ in 0..sha_iters {
            let mut h = Sha256::new();
            // The seed's one-shot was update()+finalize() through the
            // partial-block buffer; 64-byte feeding makes the buffer copy
            // visible the way parsing-loop callers hit it.
            for chunk in black_box(&blob).chunks(64) {
                h.update(chunk);
            }
            black_box(h.finalize());
        }
    });
    let quads: Vec<&[u8]> = (0..4).map(|_| blob.as_slice()).collect();
    let sha_batch = median_micros(&rounds, || {
        for _ in 0..sha_iters / 4 {
            black_box(sha256_batch(black_box(&quads)));
        }
    });
    let sha_x4 = median_micros(&rounds, || {
        for _ in 0..sha_iters / 4 {
            black_box(sha256_x4([black_box(&blob), &blob, &blob, &blob]));
        }
    });

    // ---- hex encode/decode.
    let raw: Vec<u8> = (0..1 << 18).map(|i| (i * 131) as u8).collect();
    let encoded = hex::encode(&raw);
    let hex_encode = median_micros(&rounds, || {
        black_box(hex::encode(black_box(&raw)));
    });
    let hex_decode = median_micros(&rounds, || {
        black_box(hex::decode(black_box(&encoded)).expect("valid hex"));
    });

    // ---- columnar vs row analyzer scan (the Table 2 inner loop shape):
    // count live mTLS inbound connections and fold their ports.
    let scan_rounds = if quick { 8 } else { 32 };
    let columnar_scan = median_micros(&rounds, || {
        for _ in 0..scan_rounds {
            let cols = &corpus.conn_cols;
            let mut acc = 0u64;
            for ((&flags, &dir), &port) in cols.flags.iter().zip(&cols.direction).zip(&cols.resp_p)
            {
                if flags & (conn_flag::EXCLUDED | conn_flag::MTLS) == conn_flag::MTLS
                    && dir == Direction::Inbound
                {
                    acc = acc.wrapping_add(port as u64);
                }
            }
            black_box(acc);
        }
    });
    let row_scan = median_micros(&rounds, || {
        for _ in 0..scan_rounds {
            let mut acc = 0u64;
            for conn in &corpus.conns {
                if !conn.excluded && conn.mtls && conn.direction == Direction::Inbound {
                    acc = acc.wrapping_add(conn.rec.resp_p as u64);
                }
            }
            black_box(acc);
        }
    });

    // ---- end-to-end ingest + parse component over the rotated fixture
    // directory.
    let dir = std::env::temp_dir().join(format!("mtlscope-perf-smoke-{}", std::process::id()));
    sim.write_to_dir_rotated(&dir)
        .expect("write rotated fixture");
    let ingest_e2e = median_micros(&rounds, || {
        let (inputs, diag) =
            load_dir(&dir, IngestMode::Strict, None, &Obs::noop(), None).expect("ingest");
        let corpus = build_corpus_obs(inputs, &Obs::noop(), None);
        black_box((corpus.certs.len(), diag.stats.rows_parsed));
    });
    let parse_component = median_micros(&rounds, || {
        let (ssl, x509, stats) =
            read_dir_obs(&dir, IngestMode::Strict, &Obs::noop(), None).expect("read shards");
        black_box((ssl.len(), x509.len(), stats.rows_parsed));
    });
    std::fs::remove_dir_all(&dir).ok();

    // ---- report.
    let scan_speedup_count = ratio(scalar_count as f64, swar_count as f64);
    let scan_speedup_split = ratio(scalar_split as f64, swar_split as f64);
    let sha_speedup_oneshot = ratio(sha_streaming as f64, sha_oneshot as f64);
    let sha_speedup_batch = ratio(sha_oneshot as f64, sha_batch as f64);
    let sha_speedup_x4 = ratio(sha_oneshot as f64, sha_x4 as f64);
    let columnar_speedup = ratio(row_scan as f64, columnar_scan as f64);

    let json = format!(
        "{{\n  \"bench\": \"crates/bench/src/bin/perf_smoke.rs\",\n  \
         \"command\": \"cargo run --release -p mtls-bench --bin perf_smoke\",\n  \
         \"quick\": {quick},\n  \
         \"environment\": {{\"cpu_cores\": {cpu_cores}, \"variance_note\": \"this box shows +/-10-40% run-to-run noise; ci/check_bench.py gates medians with a matching noise band and only when cpu_cores matches\"}},\n  \
         \"rounds\": {{\"warmup\": {}, \"measured\": {}}},\n  \
         \"scan_mb_per_s\": {{\n    \
         \"swar_count_newlines\": {:.1},\n    \
         \"scalar_count_newlines\": {:.1},\n    \
         \"swar_split_tabs\": {:.1},\n    \
         \"scalar_split_tabs\": {:.1},\n    \
         \"speedup_count\": {scan_speedup_count:.2},\n    \
         \"speedup_split\": {scan_speedup_split:.2}\n  }},\n  \
         \"sha256_mb_per_s\": {{\n    \
         \"oneshot\": {:.1},\n    \
         \"streaming_64b_chunks\": {:.1},\n    \
         \"batch_dispatch\": {:.1},\n    \
         \"interleaved_x4\": {:.1},\n    \
         \"oneshot_speedup_vs_streaming\": {sha_speedup_oneshot:.2},\n    \
         \"batch_speedup_vs_oneshot\": {sha_speedup_batch:.2},\n    \
         \"x4_speedup_vs_oneshot\": {sha_speedup_x4:.2}\n  }},\n  \
         \"hex_mb_per_s\": {{\"encode\": {:.1}, \"decode\": {:.1}}},\n  \
         \"analyzer_scan_us\": {{\n    \
         \"columnar_ports_fold\": {columnar_scan},\n    \
         \"row_ports_fold\": {row_scan},\n    \
         \"columnar_speedup\": {columnar_speedup:.2}\n  }},\n  \
         \"ingest_ms\": {{\n    \
         \"end_to_end_median\": {:.2},\n    \
         \"parse_component_median\": {:.2}\n  }},\n  \
         \"note\": \"MB/s medians of {} rounds. Reference twins run in-process: scalar_* is the byte-at-a-time module the SWAR scanners must match bit-for-bit, streaming SHA is the partial-block-buffer path, row scan strides ConnInfo structs. interleaved_x4 is the 4-lane variant measured explicitly; on baseline x86-64 LLVM keeps the lanes scalar so batch_dispatch falls back to the one-shot loop there (it only routes quads through x4 when the build targets AVX2).\"\n}}\n",
        rounds.warmup,
        rounds.measured,
        mb_per_s(scan_bytes, swar_count),
        mb_per_s(scan_bytes, scalar_count),
        mb_per_s(scan_bytes, swar_split),
        mb_per_s(scan_bytes, scalar_split),
        mb_per_s(sha_bytes, sha_oneshot),
        mb_per_s(sha_bytes, sha_streaming),
        mb_per_s(sha_bytes, sha_batch),
        mb_per_s(sha_bytes, sha_x4),
        mb_per_s(raw.len(), hex_encode),
        mb_per_s(encoded.len(), hex_decode),
        ingest_e2e as f64 / 1000.0,
        parse_component as f64 / 1000.0,
        rounds.measured,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_speed.json");
    println!(
        "perf smoke: swar-count x{scan_speedup_count:.2}, swar-split x{scan_speedup_split:.2}, \
         sha-oneshot x{sha_speedup_oneshot:.2}, columnar x{columnar_speedup:.2}, \
         ingest {:.1}ms",
        ingest_e2e as f64 / 1000.0
    );
    println!("written to {out_path}");
}
