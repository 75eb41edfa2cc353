//! Property tests: arbitrary records must round-trip through Zeek-TSV.

use mtls_zeek::tsv::{escape, unescape, unescape_into};
use mtls_zeek::{read_ssl_log, read_x509_log, write_ssl_log, write_x509_log};
use mtls_zeek::{Ipv4, SslRecord, TlsVersion, X509Record, X509Rows};
use proptest::prelude::*;
use std::io::Cursor;

fn arb_version() -> impl Strategy<Value = TlsVersion> {
    prop_oneof![
        Just(TlsVersion::Tls10),
        Just(TlsVersion::Tls11),
        Just(TlsVersion::Tls12),
        Just(TlsVersion::Tls13),
    ]
}

// Strings with no control characters (Zeek never logs them) but with
// tabs/commas/backslashes allowed to exercise escaping.
fn arb_field() -> impl Strategy<Value = String> {
    "[ -~]{0,40}"
}

fn arb_vec_field() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[ -~]{1,20}", 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ssl_records_round_trip(
        ts in 0f64..3e9,
        uid in "[A-Za-z0-9]{1,12}",
        ip_a in any::<u32>(),
        ip_b in any::<u32>(),
        port_a in any::<u16>(),
        port_b in any::<u16>(),
        version in arb_version(),
        sni in proptest::option::of("[a-z0-9.-]{1,30}"),
        established in any::<bool>(),
        server_fps in arb_vec_field(),
        client_fps in arb_vec_field(),
    ) {
        let rec = SslRecord {
            ts,
            uid,
            orig_h: Ipv4(ip_a),
            orig_p: port_a,
            resp_h: Ipv4(ip_b),
            resp_p: port_b,
            version,
            server_name: sni,
            established,
            cert_chain_fps: server_fps,
            client_cert_chain_fps: client_fps,
        };
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, std::slice::from_ref(&rec)).unwrap();
        let parsed = read_ssl_log(Cursor::new(buf)).unwrap();
        prop_assert_eq!(parsed, vec![rec]);
    }

    #[test]
    fn x509_records_round_trip(
        fingerprint in "[a-f0-9]{8}",
        serial in "[A-F0-9]{2,16}",
        subject in arb_field(),
        issuer in arb_field(),
        issuer_org in proptest::option::of("[ -~]{1,30}"),
        subject_cn in proptest::option::of("[ -~]{1,30}"),
        nvb in -10_000_000_000i64..10_000_000_000,
        nva in -10_000_000_000i64..10_000_000_000,
        key_length in prop_oneof![Just(1024u16), Just(2048), Just(256)],
        san_dns in arb_vec_field(),
        san_email in arb_vec_field(),
        ca in any::<bool>(),
    ) {
        let rec = X509Record {
            ts: 1.0,
            fingerprint,
            version: 3,
            serial,
            subject,
            issuer,
            issuer_org,
            subject_cn,
            not_valid_before: nvb,
            not_valid_after: nva,
            key_alg: "rsa".into(),
            key_length,
            sig_alg: "sha256WithRSAEncryption".into(),
            san_dns,
            san_email,
            san_uri: vec![],
            san_ip: vec![],
            basic_constraints_ca: ca,
        };
        let mut buf = Vec::new();
        write_x509_log(&mut buf, std::slice::from_ref(&rec)).unwrap();
        let parsed = read_x509_log(Cursor::new(buf)).unwrap();
        prop_assert_eq!(parsed, vec![rec]);
    }

    #[test]
    fn ipv4_parse_display_round_trip(raw in any::<u32>()) {
        let ip = Ipv4(raw);
        prop_assert_eq!(Ipv4::parse(&ip.to_string()), Some(ip));
        prop_assert!(ip.in_subnet(ip.subnet24(), 24));
    }
}

// One reused row: `X509Rows::next_into` refills the same record row after
// row, so a field must never keep bytes, list entries or a `Some` from the
// row before. Rows of different shapes back to back — SAN lists growing
// and shrinking, optional fields toggling, escaped and plain text — must
// each equal the record `read_x509_log` builds fresh.
fn arb_shape_field() -> impl Strategy<Value = String> {
    "[ -~\té中]{0,30}"
}

fn arb_san() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[ -~é]{0,12}", 0..5)
}

fn arb_row() -> impl Strategy<Value = X509Record> {
    (
        (
            "[a-f0-9]{1,16}",
            arb_shape_field(),
            arb_shape_field(),
            proptest::option::of(arb_shape_field()),
            proptest::option::of(arb_shape_field()),
            prop_oneof![Just("rsa"), Just("ecdsa"), Just("x,y\\z")],
        ),
        (arb_san(), arb_san(), arb_san(), arb_san()),
        (
            -10_000_000_000i64..10_000_000_000,
            -10_000_000_000i64..10_000_000_000,
            any::<bool>(),
            0f64..3e9,
        ),
    )
        .prop_map(
            |(
                (fingerprint, subject, issuer, issuer_org, subject_cn, key_alg),
                (san_dns, san_email, san_uri, san_ip),
                (not_valid_before, not_valid_after, ca, ts),
            )| X509Record {
                ts,
                fingerprint,
                version: if ca { 3 } else { 1 },
                serial: "0A".into(),
                subject,
                issuer,
                issuer_org,
                subject_cn,
                not_valid_before,
                not_valid_after,
                key_alg: key_alg.into(),
                key_length: 2048,
                sig_alg: "sha256WithRSAEncryption".into(),
                san_dns,
                san_email,
                san_uri,
                san_ip,
                basic_constraints_ca: ca,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn one_reused_row_equals_fresh_records(rows in proptest::collection::vec(arb_row(), 1..10)) {
        let mut buf = Vec::new();
        write_x509_log(&mut buf, &rows).unwrap();
        let fresh = read_x509_log(Cursor::new(&buf)).unwrap();
        let mut reader = X509Rows::new(&buf).unwrap();
        prop_assert_eq!(reader.len(), fresh.len());
        let mut row = X509Record::default();
        let mut reused = Vec::new();
        while let Some(parsed) = reader.next_into(&mut row) {
            parsed.unwrap();
            reused.push(row.clone());
        }
        prop_assert!(reader.is_empty());
        prop_assert_eq!(reused, fresh);
    }
}

#[test]
fn reused_row_reports_the_first_error_of_the_fresh_reader() {
    let good = X509Record {
        fingerprint: "aa".into(),
        subject: "CN=a\\,b".into(),
        issuer_org: Some("Org".into()),
        san_dns: vec!["a.example".into(), "b.example".into()],
        ..X509Record::default()
    };
    let mut buf = Vec::new();
    write_x509_log(&mut buf, [&good, &good]).unwrap();
    let text = String::from_utf8(buf).unwrap();
    // Break the second row's `certificate.version`, then the header too.
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let second = lines.iter().rposition(|l| !l.starts_with('#')).unwrap();
    let mut cols: Vec<&str> = lines[second].split('\t').collect();
    cols[2] = "X";
    lines[second] = cols.join("\t");
    let bad_row = lines.join("\n");
    let bad_header = bad_row.replace("certificate.serial", "certificate.cereal");
    for shard in [bad_row, bad_header] {
        let want = read_x509_log(Cursor::new(shard.as_bytes()))
            .unwrap_err()
            .to_string();
        let got = match X509Rows::new(shard.as_bytes()) {
            Err(e) => e.to_string(),
            Ok(mut reader) => {
                let mut row = X509Record::default();
                reader.next_into(&mut row).unwrap().unwrap();
                reader.next_into(&mut row).unwrap().unwrap_err().to_string()
            }
        };
        assert_eq!(got, want);
    }
}

// Failure injection: the readers accept whatever a disk hands them —
// arbitrary text and mutated valid logs must yield Ok or Err, never panic.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn readers_never_panic_on_arbitrary_text(text in "\\PC{0,600}") {
        let _ = read_ssl_log(Cursor::new(text.clone().into_bytes()));
        let _ = read_x509_log(Cursor::new(text.into_bytes()));
    }

    #[test]
    fn readers_never_panic_on_mutated_logs(
        cut in 0usize..600,
        insert_at in 0usize..600,
        junk in "\\PC{0,40}",
    ) {
        let rec = SslRecord {
            ts: 1_651_363_200.25,
            uid: "Cmut1".into(),
            orig_h: Ipv4::new(172, 29, 0, 9),
            orig_p: 40_000,
            resp_h: Ipv4::new(9, 9, 9, 9),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: Some("mut.example.com".into()),
            established: true,
            cert_chain_fps: vec!["aa".into()],
            client_cert_chain_fps: vec!["bb".into()],
        };
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, std::slice::from_ref(&rec)).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        // The serialized log is pure ASCII, so any index is a char boundary.
        text.truncate(cut.min(text.len()));
        let at = insert_at.min(text.len());
        if text.is_char_boundary(at) {
            text.insert_str(at, &junk);
        }
        let _ = read_ssl_log(Cursor::new(text.into_bytes()));
    }
}

// Field escaping: `escape`/`unescape` are the layer every field crosses
// twice, so they must be exact inverses on anything a record can hold, and
// `unescape` must be total (never panic, never error) on anything a
// corrupted disk can hold. The vendored proptest subset has no
// `any::<String>()`, so SOUP is the stand-in: separators (a real embedded
// tab/newline/CR), backslashes, hex digits dense enough to form accidental
// `\xNN` sequences, punctuation, and multi-byte chars.
const SOUP: &str = "[\t\n\r ,\\\\x0-9a-fA-F!\"#$%&'()*+./:;<=>?@^_`|~é中λ-]{0,60}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn escape_round_trips_arbitrary_strings(s in SOUP) {
        prop_assert_eq!(unescape(&escape(&s)).as_ref(), s.as_str());
    }

    #[test]
    fn escape_round_trips_escape_lookalikes(s in "[\\\\x0-9a-fA-F]{0,24}") {
        // Dense runs over {\, x, hex} form literal `\xNN`-looking text: a
        // field that already contains the text "\x41" must come back as
        // that text, not as "A".
        prop_assert_eq!(unescape(&escape(&s)).as_ref(), s.as_str());
    }

    #[test]
    fn escaped_output_is_separator_free(s in SOUP) {
        let escaped = escape(&s);
        prop_assert!(!escaped.contains(['\t', '\n', '\r', ',']), "{:?}", escaped);
    }

    #[test]
    fn unescape_is_total_on_arbitrary_input(s in SOUP) {
        let out = unescape(&s);
        // No panic, and untouched input passes through verbatim.
        if !s.contains("\\x") {
            prop_assert_eq!(out.as_ref(), s.as_str());
        }
    }
}

/// The char-at-a-time walk that `unescape`'s run copy replaced, kept as
/// its reference: one `push` per char or escape.
fn unescape_by_char(s: &str) -> String {
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

/// `unescape` and `unescape_into` (onto a field that already holds text)
/// against the char walk.
fn unescape_matches_reference(s: &str) {
    let want = unescape_by_char(s);
    assert_eq!(unescape(s).as_ref(), want.as_str(), "{s:?}");
    let mut out = String::from("kept:");
    unescape_into(s, &mut out);
    assert_eq!(out, format!("kept:{want}"), "{s:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_copy_unescape_equals_the_char_walk(s in SOUP) {
        unescape_matches_reference(&s);
    }

    #[test]
    fn run_copy_unescape_equals_the_char_walk_on_escape_lookalikes(
        s in "[\\\\x0-9a-fA-Fé中]{0,24}",
    ) {
        // Dense {\, x, hex} runs make well-formed, malformed and cut-off
        // escapes next to multi-byte chars.
        unescape_matches_reference(&s);
    }
}

#[test]
fn unescape_passes_truncated_escapes_through() {
    // Malformed or cut-off escape sequences — including at the very end of
    // a field, where the old reader could index past the slice — survive
    // verbatim.
    for s in [
        "\\", "\\x", "\\x4", "\\xZZ", "abc\\x", "abc\\x4", "\\x0g", "x\\",
    ] {
        assert_eq!(unescape(s).as_ref(), s, "{s:?}");
    }
    assert_eq!(unescape("\\x41\\x4").as_ref(), "A\\x4");
    assert_eq!(unescape("\\x09end\\x").as_ref(), "\tend\\x");
    for s in [
        "\\",
        "\\x4",
        "é\\xe9\\",
        "\\\\x41",
        "\\xC3\\xA9",
        "中\\x2c中\\x2",
    ] {
        unescape_matches_reference(s);
    }
}

// SWAR equivalence: every u64-at-a-time scanner must be byte-identical to
// its scalar twin on adversarial bytes — embedded `\r`, trailing tabs,
// high-bit bytes (the classic haszero-formula false-positive trap), and
// lengths that straddle the 8-byte word boundary.
use mtls_zeek::swar;

// Bytes biased heavily toward the delimiters and toward 0x00/0x80/0xFF so
// word-boundary and high-bit interactions actually occur.
fn arb_hot_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        Just(b'\t'),
        Just(b'\n'),
        Just(b'\r'),
        Just(b','),
        Just(b'\\'),
        Just(b'x'),
        Just(0x00u8),
        Just(0x80u8),
        Just(0xFFu8),
        any::<u8>(),
    ]
}

fn arb_hay() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(arb_hot_byte(), 0..96)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn swar_find_matches_scalar(hay in arb_hay(), needle in arb_hot_byte(), start in 0usize..96) {
        let start = start.min(hay.len());
        prop_assert_eq!(
            swar::find_byte_from(&hay, start, needle),
            swar::scalar::find_byte_from(&hay, start, needle)
        );
    }

    #[test]
    fn swar_count_matches_scalar(hay in arb_hay(), needle in arb_hot_byte()) {
        prop_assert_eq!(swar::count_byte(&hay, needle), swar::scalar::count_byte(&hay, needle));
    }

    #[test]
    fn swar_contains_any5_matches_scalar(hay in arb_hay()) {
        let needles = [b'\t', b'\n', b'\r', b',', b'\\'];
        prop_assert_eq!(
            swar::contains_any5(&hay, needles),
            swar::scalar::contains_any5(&hay, needles)
        );
    }

    #[test]
    fn swar_contains_seq2_matches_scalar(hay in arb_hay()) {
        prop_assert_eq!(
            swar::contains_seq2(&hay, b'\\', b'x'),
            swar::scalar::contains_seq2(&hay, b'\\', b'x')
        );
    }

    #[test]
    fn swar_split_matches_slice_split(hay in arb_hay(), needle in arb_hot_byte()) {
        let ours: Vec<&[u8]> = swar::split_byte(&hay, needle).collect();
        let std: Vec<&[u8]> = hay.split(|&b| b == needle).collect();
        prop_assert_eq!(ours, std);
    }

    #[test]
    fn swar_split_str_matches_str_split(s in SOUP, tab_run in 0usize..4) {
        // Trailing tabs exercise the trailing-empty-slice semantics.
        let s = format!("{s}{}", "\t".repeat(tab_run));
        for needle in [b'\t', b','] {
            let ours: Vec<&str> = swar::split_str(&s, needle).collect();
            let std: Vec<&str> = s.split(needle as char).collect();
            prop_assert_eq!(ours, std);
        }
    }
}
