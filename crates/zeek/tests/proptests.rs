//! Property tests: arbitrary records must round-trip through Zeek-TSV.

use mtls_zeek::tsv::{escape, unescape, unescape_into};
use mtls_zeek::{read_ssl_log, read_x509_log, write_ssl_log, write_x509_log};
use mtls_zeek::{Fp, Ipv4, SslRecord, TlsVersion, X509Record, X509Rows};
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

fn arb_fp() -> impl Strategy<Value = Fp> {
    "[0-9a-f]{64}".prop_map(|s| Fp::parse(&s).expect("64 lowercase hex digits"))
}

fn arb_chain() -> impl Strategy<Value = Vec<Fp>> {
    proptest::collection::vec(arb_fp(), 0..4)
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
        server_fps in arb_chain(),
        client_fps in arb_chain(),
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
        fingerprint in arb_fp(),
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
            arb_fp(),
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
        fingerprint: Fp::of(b"good"),
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
            cert_chain_fps: vec![Fp::of(b"server")],
            client_cert_chain_fps: vec![Fp::of(b"client")],
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

/// The dotted-quad parser before it became one pass over the bytes: the
/// oracle for the accept set (four decimal octets of 1–3 digits, each at
/// most 255, no leading zeros).
fn ipv4_parse_oracle(s: &str) -> Option<Ipv4> {
    let mut parts = s.split('.');
    let mut octets = [0u8; 4];
    for o in octets.iter_mut() {
        let part = parts.next()?;
        if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        if part.len() > 1 && part.starts_with('0') {
            return None;
        }
        *o = part.parse().ok()?;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(Ipv4(u32::from_be_bytes(octets)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn ipv4_parse_matches_oracle_on_digits_and_dots(s in "[0-9.]{0,20}") {
        prop_assert_eq!(Ipv4::parse(&s), ipv4_parse_oracle(&s), "{:?}", s);
    }

    #[test]
    fn ipv4_parse_matches_oracle_on_near_addresses(
        octets in proptest::collection::vec("[0-9]{0,4}", 3..6),
        tail in "[0-9a.x ]{0,2}",
    ) {
        let s = format!("{}{tail}", octets.join("."));
        prop_assert_eq!(Ipv4::parse(&s), ipv4_parse_oracle(&s), "{:?}", s);
    }

    #[test]
    fn ipv4_parse_matches_oracle_on_arbitrary_input(s in "\\PC{0,20}") {
        prop_assert_eq!(Ipv4::parse(&s), ipv4_parse_oracle(&s), "{:?}", s);
    }
}

/// What `Fp::parse` must accept: exactly 64 lowercase hex digits.
fn is_fp_text(s: &str) -> bool {
    s.len() == Fp::LEN && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fp_renders_back_what_it_accepted(s in "[0-9a-f]{64}") {
        let fp = Fp::parse(&s).unwrap();
        prop_assert_eq!(fp.as_str(), s.as_str());
        prop_assert_eq!(fp.to_string(), s.clone());
        prop_assert_eq!(fp.as_bytes(), s.as_bytes());
    }

    #[test]
    fn fp_rejects_every_other_near_miss(s in "[0-9a-gA-F,x -]{60,68}") {
        prop_assert_eq!(Fp::parse(&s).is_some(), is_fp_text(&s), "{:?}", s);
    }

    #[test]
    fn fp_rejects_every_other_arbitrary_input(s in "\\PC{0,70}") {
        prop_assert_eq!(Fp::parse(&s).is_some(), is_fp_text(&s), "{:?}", s);
    }

    #[test]
    fn fp_order_is_string_order(
        a in "[0-9a-f]{64}",
        shared in 0usize..=64,
        tail in "[0-9a-f]{64}",
    ) {
        // A shared prefix of any length, so the orders are compared at
        // every digit position (and on equal values).
        let b = format!("{}{}", &a[..shared], &tail[shared..]);
        let (fa, fb) = (Fp::parse(&a).unwrap(), Fp::parse(&b).unwrap());
        prop_assert_eq!(fa.cmp(&fb), a.cmp(&b));
        prop_assert_eq!(fa == fb, a == b);
    }

    #[test]
    fn fp_equality_is_digit_equality_and_equal_fps_hash_equally(
        a in "[0-9a-f]{64}",
        shared in 0usize..=64,
        tail in "[0-9a-f]{64}",
    ) {
        let b = format!("{}{}", &a[..shared], &tail[shared..]);
        let (fa, fb) = (Fp::parse(&a).unwrap(), Fp::parse(&b).unwrap());
        prop_assert_eq!(fa == fb, a == b);
        prop_assert_eq!(fa != fb, a != b);
        let copy = Fp::parse(&a).unwrap();
        prop_assert!(fa == copy);
        prop_assert_eq!(fx_hash(&fa), fx_hash(&copy));
        if fa == fb {
            prop_assert_eq!(fx_hash(&fa), fx_hash(&fb));
        }
    }

    #[test]
    fn fp_near_misses_compare_unequal(a in "[0-9a-f]{64}", step in 1u8..16) {
        // One digit changed, at every position: inside the hashed head
        // and past digit 16, in each 16-digit word.
        let fa = Fp::parse(&a).unwrap();
        for pos in 0..Fp::LEN {
            let mut digits = a.clone().into_bytes();
            let value = (hex_value(digits[pos]) + step) % 16;
            digits[pos] = b"0123456789abcdef"[usize::from(value)];
            let near = Fp::parse(std::str::from_utf8(&digits).unwrap()).unwrap();
            prop_assert!(fa != near, "digit {}", pos);
            prop_assert!(near != fa, "digit {}", pos);
        }
    }
}

/// `fp`'s hash under the join's hasher.
fn fx_hash(fp: &Fp) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = mtls_intern::FxHasher::default();
    fp.hash(&mut hasher);
    hasher.finish()
}

/// The value of one lowercase hex digit.
fn hex_value(digit: u8) -> u8 {
    match digit {
        b'0'..=b'9' => digit - b'0',
        _ => digit - b'a' + 10,
    }
}

/// A chain field as the reader must judge it: unset or empty, or
/// comma-separated entries that each parse as an `Fp`.
fn chain_oracle(field: &str) -> Option<Vec<Fp>> {
    if field == "(empty)" || field == "-" || field.is_empty() {
        return Some(Vec::new());
    }
    field.split(',').map(Fp::parse).collect()
}

fn arb_chain_text() -> impl Strategy<Value = String> {
    let entry = prop_oneof![
        "[0-9a-f]{64}",
        "[0-9a-f]{63,65}",
        "[0-9a-fA-F]{64}",
        "[0-9a-f,]{0,3}",
        Just("-".to_string()),
    ];
    (proptest::collection::vec(entry, 0..4), "[,]{0,1}").prop_map(|(entries, tail)| {
        let mut text = entries.join(",");
        text.push_str(&tail);
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn chain_fields_parse_as_comma_joined_fingerprints(chain in arb_chain_text()) {
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, std::iter::empty()).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str(&format!(
            "1.5\tCx\t10.0.0.1\t1\t10.0.0.2\t443\tTLSv12\t-\tT\t{chain}\t(empty)\n"
        ));
        match (read_ssl_log(Cursor::new(text)), chain_oracle(&chain)) {
            (Ok(rows), Some(fps)) => prop_assert_eq!(&rows[0].cert_chain_fps, &fps),
            (Err(mtls_zeek::TsvError::BadField { field, .. }), None) => {
                prop_assert_eq!(field, "cert_chain_fps")
            }
            (got, want) => prop_assert!(false, "{:?}: read {:?}, oracle {:?}", chain, got, want),
        }
    }
}
