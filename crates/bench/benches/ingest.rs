//! Ingest-path benchmarks: the Zeek-directory → `Corpus` hot path.
//!
//! Two comparisons, matching the DESIGN.md "Performance" section:
//!
//! 1. `ingest_end_to_end` — the full `load_dir → build_corpus_obs` pipeline
//!    over a rotated 23-month directory, against a reconstruction of the
//!    seed revision's parser (the speedup recorded in `BENCH_ingest.json`).
//! 2. `fp_index` — the fingerprint index at the heart of `Corpus::build`:
//!    the old shape (owned `String` keys, SipHash `HashMap`) vs the new
//!    one (interned `Symbol` keys, FxHash map).

use criterion::{criterion_group, criterion_main, Criterion};
use mtls_bench::{sim_output, BENCH_SCALE};
use mtls_core::ingest::load_dir;
use mtls_core::pipeline::{build_corpus_obs, AnalysisInputs};
use mtls_core::IngestMode;
use mtls_intern::{FxHashMap, Interner, Symbol};
use mtls_obs::Obs;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The pre-optimization reader, reconstructed from the seed revision of
/// `crates/zeek/src/tsv.rs`: one owned `String` per line from
/// `BufRead::lines`, a fresh `Vec<&str>` per line, and an owned `String`
/// per field even when nothing needs unescaping. Used as the end-to-end
/// baseline the BENCH_ingest.json speedup is measured against.
mod baseline {
    use mtls_zeek::{Ipv4, SslRecord, TlsVersion, X509Record};
    use std::io::BufRead;

    const UNSET: &str = "-";
    const EMPTY: &str = "(empty)";

    fn unescape(s: &str) -> String {
        if !s.contains("\\x") {
            return s.to_string();
        }
        let bytes = s.as_bytes();
        let mut out = String::with_capacity(s.len());
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'\\'
                && i + 3 < bytes.len()
                && bytes[i + 1] == b'x'
                && bytes[i + 2].is_ascii_hexdigit()
                && bytes[i + 3].is_ascii_hexdigit()
            {
                let hi = (bytes[i + 2] as char).to_digit(16).expect("hex");
                let lo = (bytes[i + 3] as char).to_digit(16).expect("hex");
                out.push(((hi * 16 + lo) as u8) as char);
                i += 4;
            } else {
                let ch = s[i..].chars().next().expect("in range");
                out.push(ch);
                i += ch.len_utf8();
            }
        }
        out
    }

    fn parse_opt(s: &str) -> Option<String> {
        if s == UNSET || s.is_empty() {
            None
        } else {
            Some(unescape(s))
        }
    }

    fn parse_vec(s: &str) -> Vec<String> {
        if s == EMPTY || s == UNSET || s.is_empty() {
            Vec::new()
        } else {
            s.split(',').map(unescape).collect()
        }
    }

    fn data_lines<R: BufRead>(reader: R) -> Vec<String> {
        let mut out = Vec::new();
        for line in reader.lines() {
            let line = line.expect("read line");
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            out.push(line);
        }
        out
    }

    pub fn read_ssl_log<R: BufRead>(reader: R) -> Vec<SslRecord> {
        let mut records = Vec::new();
        for line in data_lines(reader) {
            let cols: Vec<&str> = line.split('\t').collect();
            records.push(SslRecord {
                ts: cols[0].parse().expect("ts"),
                uid: unescape(cols[1]),
                orig_h: Ipv4::parse(cols[2]).expect("orig_h"),
                orig_p: cols[3].parse().expect("orig_p"),
                resp_h: Ipv4::parse(cols[4]).expect("resp_h"),
                resp_p: cols[5].parse().expect("resp_p"),
                version: TlsVersion::from_zeek_name(cols[6]).expect("version"),
                server_name: parse_opt(cols[7]),
                established: cols[8] == "T",
                cert_chain_fps: parse_vec(cols[9]),
                client_cert_chain_fps: parse_vec(cols[10]),
            });
        }
        records
    }

    pub fn read_x509_log<R: BufRead>(reader: R) -> Vec<X509Record> {
        let mut records = Vec::new();
        for line in data_lines(reader) {
            let cols: Vec<&str> = line.split('\t').collect();
            records.push(X509Record {
                ts: cols[0].parse().expect("ts"),
                fingerprint: unescape(cols[1]),
                version: cols[2].parse().expect("version"),
                serial: unescape(cols[3]),
                subject: unescape(cols[4]),
                issuer: unescape(cols[5]),
                issuer_org: parse_opt(cols[6]),
                subject_cn: parse_opt(cols[7]),
                not_valid_before: cols[8].parse().expect("nvb"),
                not_valid_after: cols[9].parse().expect("nva"),
                key_alg: unescape(cols[10]),
                key_length: cols[11].parse().expect("key_length"),
                sig_alg: unescape(cols[12]),
                san_dns: parse_vec(cols[13]),
                san_email: parse_vec(cols[14]),
                san_uri: parse_vec(cols[15]),
                san_ip: parse_vec(cols[16]),
                basic_constraints_ca: cols[17] == "T",
            });
        }
        records
    }

    /// Serial shard walk with the alloc-heavy reader (the seed's
    /// `read_monthly` shape).
    pub fn read_monthly(dir: &std::path::Path) -> (Vec<SslRecord>, Vec<X509Record>) {
        let mut ssl_files = Vec::new();
        let mut x509_files = Vec::new();
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("entry").path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.starts_with("ssl.") && name.ends_with(".log") && name != "ssl.log" {
                ssl_files.push(path);
            } else if name.starts_with("x509.") && name.ends_with(".log") && name != "x509.log" {
                x509_files.push(path);
            }
        }
        ssl_files.sort();
        x509_files.sort();
        let mut ssl = Vec::new();
        for path in &ssl_files {
            let f = std::fs::File::open(path).expect("open");
            ssl.extend(read_ssl_log(std::io::BufReader::new(f)));
        }
        let mut x509 = Vec::new();
        for path in &x509_files {
            let f = std::fs::File::open(path).expect("open");
            x509.extend(read_x509_log(std::io::BufReader::new(f)));
        }
        (ssl, x509)
    }
}

/// One rotated log directory, written once from the shared sim corpus.
fn fixture_dir() -> &'static PathBuf {
    static CELL: OnceLock<PathBuf> = OnceLock::new();
    CELL.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("mtlscope-bench-ingest-{}", std::process::id()));
        sim_output()
            .write_to_dir_rotated(&dir)
            .expect("write rotated fixture");
        dir
    })
}

/// A strict load of `dir` with no window, through `obs`.
fn load(dir: &Path, obs: &Obs) -> AnalysisInputs {
    load_dir(dir, IngestMode::Strict, None, obs, None)
        .expect("ingest")
        .0
}

fn bench_ingest_end_to_end(c: &mut Criterion) {
    let dir = fixture_dir();
    // meta.tsv / ct.log parsed once for the baseline arm; the optimized
    // arms re-parse them inside the loader, so the baseline is favored if
    // anything.
    let template = load(dir, &Obs::noop());
    let mut group = c.benchmark_group(format!("ingest_end_to_end(scale={BENCH_SCALE})"));
    group.sample_size(10);
    group.bench_function("seed_alloc_parser_to_corpus", |b| {
        b.iter(|| {
            let (ssl, x509) = baseline::read_monthly(dir);
            let inputs = AnalysisInputs {
                ssl,
                x509,
                ct: template.ct.clone(),
                gossip: template.gossip.clone(),
                meta: template.meta.clone(),
            };
            // The seed's Corpus::build cloned every record out of borrowed
            // slices; the explicit clone here reproduces that extra
            // allocation pass against the move-based build.
            let cloned = inputs.clone();
            let n = build_corpus_obs(cloned, &Obs::noop(), None).certs.len();
            black_box((n, inputs.ssl.len()))
        })
    });
    group.bench_function("load_dir_to_corpus", |b| {
        b.iter(|| {
            let inputs = load(dir, &Obs::noop());
            black_box(build_corpus_obs(inputs, &Obs::noop(), None).certs.len())
        })
    });
    // The same path with a live Obs handle (span tree + batched counters +
    // histograms); the gap to the arm above is the instrumentation cost the
    // obs_overhead bin guards (< 3%, recorded in BENCH_obs.json).
    group.bench_function("load_dir_to_corpus_instrumented", |b| {
        b.iter(|| {
            let obs = Obs::new();
            let inputs = load(dir, &obs);
            black_box(build_corpus_obs(inputs, &obs, None).certs.len())
        })
    });
    group.finish();
}

fn bench_ingest_components(c: &mut Criterion) {
    let dir = fixture_dir();
    let template = load(dir, &Obs::noop());
    let mut group = c.benchmark_group("ingest_components");
    group.sample_size(10);
    group.bench_function("load_dir_only", |b| {
        b.iter(|| black_box(load(dir, &Obs::noop()).ssl.len()))
    });
    group.bench_function("inputs_clone_only", |b| {
        b.iter(|| black_box(template.clone().ssl.len()))
    });
    group.bench_function("build_corpus_only", |b| {
        b.iter(|| {
            black_box(
                build_corpus_obs(template.clone(), &Obs::noop(), None)
                    .certs
                    .len(),
            )
        })
    });
    group.bench_function("interception_filter_only", |b| {
        b.iter(|| {
            let mut interner = Interner::with_capacity(template.x509.len());
            let (excluded, issuers) = mtls_core::pipeline::interception::filter(
                &template.ssl,
                &template.x509,
                &template.ct,
                &template.meta,
                &mut interner,
            );
            black_box((excluded.len(), issuers.len()))
        })
    });
    group.finish();
}

fn bench_shard_readers(c: &mut Criterion) {
    let dir = fixture_dir();
    let mut group = c.benchmark_group("shard_readers");
    group.sample_size(10);
    group.bench_function("read_dir", |b| {
        b.iter(|| {
            let (ssl, x509, _) =
                mtls_zeek::read_dir_obs(dir, IngestMode::Strict, &Obs::noop(), None).expect("read");
            black_box((ssl.len(), x509.len()))
        })
    });
    // Lenient mode on a clean corpus: measures the cost of the skip
    // accounting (diag counters, byte offsets) relative to strict.
    group.bench_function("read_dir_lenient", |b| {
        b.iter(|| {
            let (ssl, x509, stats) =
                mtls_zeek::read_dir_obs(dir, IngestMode::Lenient, &Obs::noop(), None)
                    .expect("read");
            black_box((ssl.len(), x509.len(), stats.rows_parsed))
        })
    });
    group.finish();
}

fn bench_fp_index(c: &mut Criterion) {
    let sim = sim_output();
    let mut group = c.benchmark_group("fp_index");
    group.bench_function("alloc_string_siphash", |b| {
        b.iter(|| {
            // The pre-interning shape: every fingerprint cloned into an
            // owned key, hashed with the default SipHash.
            let mut index: HashMap<String, usize> = HashMap::with_capacity(sim.x509.len());
            for (i, rec) in sim.x509.iter().enumerate() {
                index.insert(rec.fingerprint.clone(), i);
            }
            let mut hits = 0usize;
            for conn in &sim.ssl {
                for fp in conn
                    .cert_chain_fps
                    .iter()
                    .chain(&conn.client_cert_chain_fps)
                {
                    if index.contains_key(fp) {
                        hits += 1;
                    }
                }
            }
            black_box(hits)
        })
    });
    group.bench_function("interned_symbol_fxhash", |b| {
        b.iter(|| {
            let mut interner = Interner::with_capacity(sim.x509.len());
            let mut index: FxHashMap<Symbol, usize> = FxHashMap::default();
            index.reserve(sim.x509.len());
            for (i, rec) in sim.x509.iter().enumerate() {
                index.insert(interner.intern(&rec.fingerprint), i);
            }
            let mut hits = 0usize;
            for conn in &sim.ssl {
                for fp in conn
                    .cert_chain_fps
                    .iter()
                    .chain(&conn.client_cert_chain_fps)
                {
                    if interner.get(fp).is_some_and(|sym| index.contains_key(&sym)) {
                        hits += 1;
                    }
                }
            }
            black_box(hits)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest_end_to_end,
    bench_ingest_components,
    bench_shard_readers,
    bench_fp_index
);
criterion_main!(benches);
